// Sparse set of node ids with ascending iteration and O(marked) reset.
//
// A two-level bitset: bit i of words_[w] marks node 64w + i, and bit j of
// summary_[s] marks words_[64s + j] as non-zero.  Marking is two ORs;
// iteration and clearing visit only the marked words plus one summary
// word per 4096 ids, and yield the ids in ascending order without a sort.
// The drift attributor keeps its per-step touched set in one and the
// hotspot tracker its per-window one.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace lgg::obs {

class TouchedSet {
 public:
  /// Sizes the set for ids [0, count) and empties it.
  void bind(std::size_t count) {
    const std::size_t words = (count + 63) / 64;
    words_.assign(words, 0);
    summary_.assign((words + 63) / 64, 0);
  }

  void mark(std::size_t i) {
    const std::size_t w = i >> 6;
    words_[w] |= std::uint64_t{1} << (i & 63);
    summary_[w >> 6] |= std::uint64_t{1} << (w & 63);
  }

  /// Calls f(v) for every marked id in ascending order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      for (std::uint64_t words = summary_[s]; words != 0; words &= words - 1) {
        const std::size_t w = (s << 6) + std::countr_zero(words);
        for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
          f(static_cast<NodeId>((w << 6) + std::countr_zero(bits)));
        }
      }
    }
  }

  /// Unmarks every id.
  void clear() {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      for (std::uint64_t words = summary_[s]; words != 0; words &= words - 1) {
        words_[(s << 6) + std::countr_zero(words)] = 0;
      }
      summary_[s] = 0;
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
};

}  // namespace lgg::obs
