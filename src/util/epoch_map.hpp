#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rsnsec {

/// Set over a dense index space that empties in O(1), for scratch state
/// that many small passes reuse over one large index space (the cones of
/// a netlist, indexed by NodeId). An index is in the set iff its stamp
/// equals the current epoch, so emptying the set only advances the
/// epoch, and stamps left by earlier passes read as absent. When the
/// epoch counter wraps, every stamp is zeroed once, so a stamp written
/// 2^bits passes ago can never pass for a current one. `Stamp` is a
/// parameter so that tests can reach the wraparound in 255 passes.
template <typename Stamp = std::uint32_t>
class EpochSet {
 public:
  /// Starts a pass over indices [0, n): grows the index space to n if it
  /// is smaller (never shrinks) and empties the set.
  void reset(std::size_t n) {
    if (stamp_.size() < n) stamp_.resize(n, Stamp{0});
    if (++epoch_ == Stamp{0}) {
      std::fill(stamp_.begin(), stamp_.end(), Stamp{0});
      epoch_ = 1;
    }
  }

  bool contains(std::size_t i) const { return stamp_[i] == epoch_; }
  void insert(std::size_t i) { stamp_[i] = epoch_; }

 private:
  std::vector<Stamp> stamp_;
  Stamp epoch_ = 1;  ///< never 0, so a zero stamp is always absent
};

/// Map from a dense index space to T that empties in O(1): an EpochSet of
/// the indices holding a value, plus the values. get() of an index not
/// set in the current pass returns the caller's `absent` value, never one
/// left by an earlier pass.
template <typename T, typename Stamp = std::uint32_t>
class EpochMap {
 public:
  /// Starts a pass over indices [0, n), like EpochSet::reset.
  void reset(std::size_t n) {
    keys_.reset(n);
    if (values_.size() < n) values_.resize(n);
  }

  bool contains(std::size_t i) const { return keys_.contains(i); }
  T get(std::size_t i, T absent) const {
    return keys_.contains(i) ? values_[i] : absent;
  }
  void set(std::size_t i, T value) {
    keys_.insert(i);
    values_[i] = value;
  }

 private:
  EpochSet<Stamp> keys_;
  std::vector<T> values_;
};

}  // namespace rsnsec
