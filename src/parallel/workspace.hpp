// Workspace arena: typed, growable scratch buffers keyed by slot id.
//
// The paper's operators keep their working sets resident on the GPU and
// ping-pong between preallocated queues so "no intermediate results ever
// hit memory" between launches. The CPU analog: an enactor loop owns one
// Workspace and threads it through every operator call, so the chunk-local
// buffers, degree-scan offsets, scatter arrays and compaction counters are
// allocated once during warm-up and reused on every subsequent iteration.
// In steady state a full advance/filter iteration performs no heap
// allocation.
//
// A slot holds one value of an arbitrary container type (std::vector<T>,
// std::vector<std::vector<T>>, ...). Get<T>(slot) returns a reference that
// stays valid across later Get calls for other slots — the arena stores
// each container behind a stable pointer — so an operator may hold its
// buffers while nested helpers (scan, compact) fetch theirs. Requesting a
// slot with a different type than it currently holds replaces the buffer;
// slot ids are partitioned per layer below so that cannot happen by
// accident.
//
// Reuse discipline (enforced by tests/test_determinism.cpp): operators
// must fully overwrite whatever region of a reused buffer they read back,
// so results never depend on data left by a previous iteration.
#pragma once

#include <cstddef>
#include <memory>
#include <typeinfo>
#include <vector>

namespace gunrock::par {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Returns the container stored in `slot`, default-constructing it on
  /// first use (or when the requested type changed). The reference remains
  /// valid until the slot is reassigned a different type or Release() is
  /// called — growing the slot table does not move the containers.
  template <typename T>
  T& Get(unsigned slot) {
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    Entry& e = slots_[slot];
    if (!e.ptr || *e.type != typeid(T)) {
      e.ptr = std::make_shared<T>();
      e.type = &typeid(T);
      ++creations_;
    }
    return *static_cast<T*>(e.ptr.get());
  }

  /// Number of container creations so far (first-use allocations plus
  /// type-change replacements). A warm arena serving a steady workload
  /// must hold this constant — the workspace-lease recycling tests assert
  /// exactly that.
  std::size_t creations() const noexcept { return creations_; }

  /// Drops every buffer (capacity included). Mainly for tests and for
  /// releasing memory after an unusually large run.
  void Release() { slots_.clear(); }

 private:
  struct Entry {
    std::shared_ptr<void> ptr;            // type-erased owning pointer
    const std::type_info* type = nullptr;
  };
  std::vector<Entry> slots_;
  std::size_t creations_ = 0;
};

/// Slot-id registry. Each call site owns a fixed id; layers get disjoint
/// ranges so composed operators (advance -> scan -> compact) never collide
/// while sharing one arena.
namespace ws {
enum : unsigned {
  // parallel/ helpers (scan, compact, reduce).
  kScanBlockSums = 0,
  kCompactBlockCounts,
  kGenerateBlockCounts,
  kThreeWayBlockCounts,
  kReducePartials,
  kConcatOffsets,

  // core/ operators (advance, filter).
  kCoreFirst = 16,
  kAdvanceOffsets = kCoreFirst,
  kAdvanceRaw,
  kAdvanceLocals,
  kAdvanceCounts,
  kAdvanceAppendOffsets,
  kTwcSmall,
  kTwcMedium,
  kTwcLarge,
  kFilterLocals,
  kFilterEdgeLocals,
  kFilterOffsets,
  kFilterHistory,
  kSimtSmallCosts,
  kSimtReducePartials,

  // primitives/ and applications: private scratch starts here.
  kUserFirst = 48,
};
}  // namespace ws

}  // namespace gunrock::par
