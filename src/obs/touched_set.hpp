// Sparse set of node ids with ascending iteration and O(marked) reset.
//
// A two-level bitset: bit i of words_[w] marks node 64w + i, and bit j of
// summary_[s] marks words_[64s + j] as non-zero.  Marking is one OR, plus
// a second on the summary only when the word was empty; iteration and
// clearing visit only the marked words plus one summary word per 4096
// ids, and yield the ids in ascending order without a sort.
//
// A loop that marks many ids pays for those ORs: marks into one word form
// a chain of read-modify-writes, and with a few thousand ids a set has
// only a few dozen words.  Such loops stage() instead, one plain byte
// store per id, and a gather() then folds the staged bytes into the bits
// in one O(ids / 8) pass.  The drift attributor keeps its per-step touched
// set in one and the hotspot tracker its per-window one; both stage their
// per-step marks.
#pragma once

#include <algorithm>
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
    staged_.assign(words * 64, Staged::kNo);
    any_staged_ = false;
  }

  void mark(std::size_t i) { mark_word(i >> 6, std::uint64_t{1} << (i & 63)); }

  [[nodiscard]] bool contains(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Stages a mark on id i: a plain byte store that no other mark waits
  /// on.  The set holds the mark only after the next gather().
  void stage(std::size_t i) {
    staged_[i] = Staged::kYes;
    any_staged_ = true;
  }

  /// Moves every staged mark into the set: O(ids / 8) if anything was
  /// staged since the last gather, O(1) otherwise.
  void gather() {
    if (!any_staged_) return;
    any_staged_ = false;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      Staged* const flags = &staged_[w << 6];
      std::uint64_t bits = 0;
      for (std::size_t k = 0; k < 64; k += 8) {
        std::uint64_t chunk = 0;  // flags k..k+7, flag j in bits 8j..8j+7
        for (std::size_t j = 0; j < 8; ++j) {
          chunk |= static_cast<std::uint64_t>(flags[k + j]) << (8 * j);
        }
        // Each byte is 0 or 1; the multiply moves byte j's bit to bit
        // 56 + j with no carries, so the top byte is the eight marks.
        bits |= ((chunk * 0x0102040810204080) >> 56) << k;
      }
      if (bits == 0) continue;
      std::fill(flags, flags + 64, Staged::kNo);
      mark_word(w, bits);
    }
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

  /// Unmarks every id; staged marks stay staged.
  void clear() {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      for (std::uint64_t words = summary_[s]; words != 0; words &= words - 1) {
        words_[(s << 6) + std::countr_zero(words)] = 0;
      }
      summary_[s] = 0;
    }
  }

 private:
  /// Marks the ids of `bits` within word w.
  void mark_word(std::size_t w, std::uint64_t bits) {
    const std::uint64_t word = words_[w];
    words_[w] = word | bits;
    // Only a word's first mark touches the summary, so a run of marks does
    // not queue every store behind one summary word.
    if (word == 0) summary_[w >> 6] |= std::uint64_t{1} << (w & 63);
  }

  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
  // One flag per id.  An enum, not a char type, so a stage() store cannot
  // alias the caller's other data and force it back to memory.
  enum class Staged : std::uint8_t { kNo = 0, kYes = 1 };
  std::vector<Staged> staged_;
  bool any_staged_ = false;
};

}  // namespace lgg::obs
