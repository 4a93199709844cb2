// Atomic read-modify-write operations on plain arrays.
//
// The paper's functors rely on CUDA atomicMin / atomicAdd / atomicCAS; the
// CPU analogs below operate on unadorned memory through std::atomic_ref
// (C++20) so that problem state can stay in ordinary std::vector storage.
// All operations use relaxed ordering: Gunrock operators are bulk
// synchronous, and the fork/join of each pass provides the necessary
// happens-before edges between steps.
#pragma once

#include <atomic>

namespace gunrock::par {

/// Atomically stores min(*addr, val); returns the previous value.
template <typename T>
inline T AtomicMin(T* addr, T val) {
  std::atomic_ref<T> ref(*addr);
  T old = ref.load(std::memory_order_relaxed);
  while (val < old &&
         !ref.compare_exchange_weak(old, val, std::memory_order_relaxed)) {
  }
  return old;
}

/// Atomically stores max(*addr, val); returns the previous value.
template <typename T>
inline T AtomicMax(T* addr, T val) {
  std::atomic_ref<T> ref(*addr);
  T old = ref.load(std::memory_order_relaxed);
  while (old < val &&
         !ref.compare_exchange_weak(old, val, std::memory_order_relaxed)) {
  }
  return old;
}

/// Atomic fetch-add for integral types.
template <typename T>
inline T AtomicAdd(T* addr, T val) {
  static_assert(std::is_integral_v<T>);
  return std::atomic_ref<T>(*addr).fetch_add(val, std::memory_order_relaxed);
}

/// Atomic fetch-add for float/double via CAS (portable across libstdc++
/// versions that lack atomic_ref<float>::fetch_add).
inline float AtomicAdd(float* addr, float val) {
  std::atomic_ref<float> ref(*addr);
  float old = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(old, old + val,
                                    std::memory_order_relaxed)) {
  }
  return old;
}

inline double AtomicAdd(double* addr, double val) {
  std::atomic_ref<double> ref(*addr);
  double old = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(old, old + val,
                                    std::memory_order_relaxed)) {
  }
  return old;
}

/// Atomic compare-and-swap; returns true when *addr was `expected` and has
/// been replaced by `desired` (the CUDA atomicCAS success test).
template <typename T>
inline bool AtomicCas(T* addr, T expected, T desired) {
  std::atomic_ref<T> ref(*addr);
  return ref.compare_exchange_strong(expected, desired,
                                     std::memory_order_relaxed);
}

/// Test-and-test-and-set claim of a one-way slot: a slot that leaves
/// `unclaimed` never returns to it. A relaxed load runs first, and the
/// locked CAS only while that load still shows `unclaimed`, so a claim on
/// an already-claimed slot never takes its cache line exclusive. Returns
/// the slot's previous value: `unclaimed` means this call claimed it
/// (exactly one of any set of concurrent claimants sees that). Slots whose
/// expected value can recur must use AtomicCas.
template <typename T>
inline T AtomicClaim(T* addr, T unclaimed, T desired) {
  std::atomic_ref<T> ref(*addr);
  T seen = ref.load(std::memory_order_relaxed);
  if (seen == unclaimed) {
    ref.compare_exchange_strong(seen, desired, std::memory_order_relaxed);
  }
  return seen;
}

/// Atomic exchange; returns the previous value.
template <typename T>
inline T AtomicExchange(T* addr, T val) {
  return std::atomic_ref<T>(*addr).exchange(val, std::memory_order_relaxed);
}

/// Relaxed atomic load / store for values raced on by functors.
template <typename T>
inline T AtomicLoad(const T* addr) {
  return std::atomic_ref<const T>(*addr).load(std::memory_order_relaxed);
}

template <typename T>
inline void AtomicStore(T* addr, T val) {
  std::atomic_ref<T>(*addr).store(val, std::memory_order_relaxed);
}

}  // namespace gunrock::par
