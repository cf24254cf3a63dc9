#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace rsnsec {

/// Workspaces that the chunks of parallel fan-outs share: a chunk claims
/// a free slot, or makes a new one when every slot is claimed, and
/// releases it when it ends. A slot is made only when all others are in
/// use, so there are never more slots than chunks that ran at once (at
/// most one per pool thread). Which slot a chunk gets depends on
/// scheduling, so a slot's user resets or overwrites whatever it reads.
/// Slots live as long as the pool. Thread-safe.
template <typename T>
class SlotPool {
 public:
  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;  // slots are claimed by address
  SlotPool& operator=(const SlotPool&) = delete;

  /// Claims a free slot, or the one `make()` returns (a std::unique_ptr
  /// to T, made outside the lock) when none is free.
  template <typename Make>
  T& acquire(Make&& make) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        T* slot = free_.back();
        free_.pop_back();
        return *slot;
      }
    }
    std::unique_ptr<T> created = make();
    T& slot = *created;
    const std::lock_guard<std::mutex> lock(mutex_);
    slots_.push_back(std::move(created));
    return slot;
  }

  /// Returns a claimed slot to the free list.
  void release(T& slot) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(&slot);
  }

  /// Slots made so far.
  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<T>> slots_;  ///< guarded by mutex_
  std::vector<T*> free_;                   ///< guarded by mutex_
};

}  // namespace rsnsec
