// Lane-mask frontier: the bit-parallel multi-source traversal state
// (Then et al., "The More the Merrier: Efficient Multi-Source Graph
// Traversal", VLDB 2015; Yang et al., GraphBLAST's multi-column SpMM
// view of batched BFS).
//
// One 64-bit word per vertex holds the membership of up to 64 concurrent
// source lanes, so a single CSR row scan propagates the frontier of all
// lanes at once: `next[v] |= frontier[u] & ~visited[v]`. The structure is
// epoch-stamped like par::EpochBitmap — a new traversal level (or a new
// wave on a recycled workspace lease) invalidates every mask with one
// counter bump instead of an O(|V|) clear.
//
// Unlike EpochBitmap, a slot's payload (the lane mask) cannot be folded
// into the stamp, so first-touch-per-epoch must both reset the stale mask
// and publish the stamp without losing a concurrent OR. OrBits() resolves
// the reset-vs-or race with a tiny claim protocol: the first toucher CASes
// the stamp to a reserved kResetting value, stores its bits over the stale
// mask, then publishes the epoch stamp; concurrent touchers spin (bounded:
// two stores) until the stamp is current and then fetch_or. In the common
// case — the slot is already stamped — OrBits is two loads plus one
// fetch_or, and only the loads when every bit is already present.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

namespace gunrock::par {

class LaneMaskFrontier {
 public:
  LaneMaskFrontier() = default;

  std::size_t size() const noexcept { return masks_.size(); }

  /// Resizes to `n` vertices. Storage is replaced (and the epoch reset)
  /// only when the size actually changes, so a workspace-resident
  /// instance serving one graph allocates exactly once.
  void Resize(std::size_t n) {
    if (masks_.size() != n) {
      masks_ = std::vector<std::atomic<std::uint64_t>>(n);
      stamps_ = std::vector<std::atomic<std::uint32_t>>(n);  // zeroed
      epoch_ = 1;
    }
  }

  /// Invalidates every current mask in O(1). Callers must not run
  /// NewEpoch concurrently with OrBits/Load (levels are bulk-synchronous;
  /// the epoch bump happens at the serial level boundary).
  void NewEpoch() {
    ++epoch_;
    if (epoch_ == 0 || epoch_ == kResetting) {  // wrap: stale stamps alias
      for (auto& s : stamps_) s.store(0, std::memory_order_relaxed);
      epoch_ = 1;
    }
  }

  /// Lane mask of vertex `i` this epoch (0 when untouched).
  std::uint64_t Load(std::size_t i) const {
    return stamps_[i].load(std::memory_order_acquire) == epoch_
               ? masks_[i].load(std::memory_order_relaxed)
               : 0;
  }

  /// ORs `bits` into vertex i's mask; returns the *previous* mask, so a
  /// zero return means this call was the vertex's first touch this epoch
  /// (the caller's exact-dedup signal — exactly one of any set of
  /// concurrent claimants observes it). Safe to call concurrently for the
  /// same vertex from any number of threads.
  std::uint64_t OrBits(std::size_t i, std::uint64_t bits) {
    for (;;) {
      std::uint32_t s = stamps_[i].load(std::memory_order_acquire);
      if (s == epoch_) {
        // Masks only grow within an epoch, so bits already present stay
        // present: skip the locked RMW (read before the lock).
        const std::uint64_t mask = masks_[i].load(std::memory_order_relaxed);
        if ((mask & bits) == bits) return mask;
        return masks_[i].fetch_or(bits, std::memory_order_relaxed);
      }
      if (s != kResetting &&
          stamps_[i].compare_exchange_weak(s, kResetting,
                                           std::memory_order_acquire)) {
        // We own the reset: overwrite the stale mask, then publish. The
        // release pairs with the acquire loads above, so a thread that
        // sees the current stamp also sees the reset mask.
        masks_[i].store(bits, std::memory_order_relaxed);
        stamps_[i].store(epoch_, std::memory_order_release);
        return 0;
      }
      // Another thread holds the reset claim (or the CAS raced); its
      // publish is two stores away — spin.
    }
  }

 private:
  /// Reserved stamp marking a slot mid-reset; never a valid epoch.
  static constexpr std::uint32_t kResetting = 0xffffffffu;

  std::vector<std::atomic<std::uint64_t>> masks_;
  std::vector<std::atomic<std::uint32_t>> stamps_;
  std::uint32_t epoch_ = 1;  // stamp 0 is never a valid epoch
};

/// Mask of the first `lanes` lane bits (lanes == 64 -> all ones).
inline constexpr std::uint64_t LaneMaskOf(std::size_t lanes) {
  return lanes >= 64 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << lanes) - 1;
}

}  // namespace gunrock::par
