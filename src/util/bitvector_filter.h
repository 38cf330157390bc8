#ifndef GSTORED_UTIL_BITVECTOR_FILTER_H_
#define GSTORED_UTIL_BITVECTOR_FILTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"

namespace gstored {

/// Fixed-length hashed bit vector used by Algorithm 4 ("assembling variables'
/// internal candidates"). Each site compresses a variable's internal
/// candidate set into one of these; the coordinator ORs the vectors from all
/// sites and broadcasts the union. Membership tests have one-sided error:
/// MayContain never returns false for an inserted id (no false negatives),
/// so filtering with it never discards a real candidate.
///
/// In memory the vector is always dense, so MayContain is one word probe.
/// On the wire (net/wire.h) each vector ships either as these words or as
/// its sorted set-bit positions, whichever is smaller: the fixed length
/// bounds the per-variable communication cost instead of fixing it.
class BitvectorFilter {
 public:
  /// Default length (in bits) used by the engine.
  static constexpr size_t kDefaultBits = 1 << 16;

  BitvectorFilter() : BitvectorFilter(kDefaultBits) {}
  explicit BitvectorFilter(size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {
    GSTORED_CHECK_GT(bits, 0u);
  }

  size_t bits() const { return bits_; }

  /// The bit an id hashes to (Algorithm 4 lines 13-14); Insert and
  /// MayContain hash each id once, through here.
  size_t Position(uint64_t id) const {
    return static_cast<size_t>(MixU64(id) % bits_);
  }

  /// Inserts an id (hash-mapped onto one bit).
  void Insert(uint64_t id) { SetPosition(Position(id)); }

  /// Sets one bit by position (< bits()); the wire decoder's sparse form.
  void SetPosition(size_t pos) {
    words_[pos >> 6] |= uint64_t{1} << (pos & 63);
  }

  /// True if `id` may have been inserted (on this or any OR-ed vector).
  bool MayContain(uint64_t id) const {
    size_t pos = Position(id);
    return (words_[pos >> 6] >> (pos & 63)) & 1;
  }

  /// Clears every bit, keeping the length (and the allocation).
  void Clear() { std::fill(words_.begin(), words_.end(), 0); }

  /// Unions another filter into this one (coordinator-side OR).
  void UnionWith(const BitvectorFilter& other) {
    GSTORED_CHECK_EQ(bits_, other.bits_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// Size of the dense word array in bytes: the in-memory size, and the
  /// upper bound of a filter's wire body.
  size_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

  /// Raw word access for the wire codecs (net/wire.h).
  const std::vector<uint64_t>& words() const { return words_; }

  /// Replaces the word array with decoded wire bytes. The decoder validates
  /// the word count against bits() before calling; mismatches are a bug.
  void AssignWords(std::vector<uint64_t> words) {
    GSTORED_CHECK_EQ(words.size(), words_.size());
    words_ = std::move(words);
  }

  /// Fraction of set bits; used in tests to check saturation behaviour.
  double FillRatio() const {
    size_t set = 0;
    for (uint64_t w : words_) set += static_cast<size_t>(__builtin_popcountll(w));
    return static_cast<double>(set) / static_cast<double>(bits_);
  }

 private:
  size_t bits_;
  std::vector<uint64_t> words_;
};

}  // namespace gstored

#endif  // GSTORED_UTIL_BITVECTOR_FILTER_H_
