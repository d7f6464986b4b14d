#include "axis/stream.hpp"

namespace hlshc::axis {

std::string lane_port(const std::string& prefix, int lane) {
  return prefix + "_tdata" + std::to_string(lane);
}

Beat input_row_beat(const idct::Block& block, int r) {
  Beat beat;
  for (int c = 0; c < kLanes; ++c)
    beat.lanes[static_cast<size_t>(c)] =
        BitVec(kInElemWidth, idct::at(block, r, c));
  beat.last = (r == idct::kBlockDim - 1);
  return beat;
}

std::vector<Beat> matrix_to_beats(const idct::Block& block) {
  std::vector<Beat> beats;
  beats.reserve(idct::kBlockDim);
  for (int r = 0; r < idct::kBlockDim; ++r)
    beats.push_back(input_row_beat(block, r));
  return beats;
}

}  // namespace hlshc::axis
