// Options shared by every primitive's public API, plus the RunControl
// block that makes a primitive run engine-invokable.
#pragma once

#include <cstdint>
#include <functional>

#include "core/cancel.hpp"
#include "core/policy.hpp"
#include "core/workspace.hpp"
#include "graph/csr.hpp"
#include "graph/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace gunrock {

struct CommonOptions {
  /// Workload-mapping strategy for traversal steps (paper Section 4.4).
  core::LoadBalance load_balance = core::LoadBalance::kAuto;
  /// Thread pool to run on; nullptr selects the process-global pool.
  par::ThreadPool* pool = nullptr;
  /// Collect per-operator records into TraversalStats::records.
  bool collect_records = false;

  par::ThreadPool& Pool() const {
    return pool ? *pool : par::ThreadPool::Global();
  }
};

/// Execution control handed to a primitive runner by its caller — the
/// query engine, a batch driver, or any host application that wants to
/// recycle scratch across calls or stop a run early. Every field is
/// optional; a default RunControl reproduces the classic free-function
/// behavior (private arena, run to convergence).
struct RunControl {
  /// Caller-owned scratch arena. The engine leases one warm arena per
  /// in-flight query, so steady-state serving allocates no workspace
  /// memory; a null pointer makes the primitive create a private arena
  /// for the call.
  core::Workspace* workspace = nullptr;
  /// Cooperative stop signal, polled at iteration boundaries; the
  /// primitive throws core::Cancelled when it fires. Null = never stop.
  const core::CancelToken* cancel = nullptr;
  /// Tri-state precomputed graph::ComputeScaleFreeHint: -1 = unknown
  /// (the primitive computes it, one O(|V|) reduction), 0/1 = known.
  /// The engine computes it once per registered graph so short queries
  /// don't pay the pass.
  int scale_free_hint = -1;

  /// The scale-free hint for `g`: the precomputed one when known,
  /// otherwise graph::ComputeScaleFreeHint.
  bool ScaleFree(const graph::Csr& g, par::ThreadPool& pool) const {
    return scale_free_hint >= 0 ? scale_free_hint > 0
                                : graph::ComputeScaleFreeHint(g, pool);
  }

  /// Iteration-boundary cancellation/deadline poll (~two relaxed loads).
  void Checkpoint() const {
    if (cancel) cancel->Check();
  }
};

/// Arena slot ranges for primitive-private scratch, carved out of
/// par::ws::kUserFirst upward. An engine-leased arena is reused by
/// whatever query runs next, so each primitive keeps its slots disjoint
/// from the others' — a slot's stored type then stays stable no matter
/// how queries interleave, and recycling never churns buffers.
namespace pslot {
enum : unsigned {
  kBfsFirst = par::ws::kUserFirst,       // bfs.cpp       (+0 .. +5)
  kSsspFirst = par::ws::kUserFirst + 6,  // sssp.cpp      (+6 .. +13)
  kPagerankFirst = par::ws::kUserFirst + 14,  // pagerank.cpp (+14 .. +23)
  kBcFirst = par::ws::kUserFirst + 24,   // bc.cpp        (+24 .. +27)
  kCcFirst = par::ws::kUserFirst + 28,   // cc.cpp        (+28 .. +31)
  kMstFirst = par::ws::kUserFirst + 32,  // mst.cpp       (+32 .. +39)
  kTrianglesFirst = par::ws::kUserFirst + 40,  // triangles.cpp (+40 .. +43)
  kLpFirst = par::ws::kUserFirst + 44,   // label_propagation.cpp (+44..+51)
  kRankingFirst = par::ws::kUserFirst + 52,  // ranking.cpp (+52 .. +63)
  kBatchFirst = par::ws::kUserFirst + 64,  // bfs_batch/ppr_batch (+64..+79)
  kSpmvFirst = par::ws::kUserFirst + 80,  // core/spmv.hpp scratch (+80..+87)
  kMatrixFirst = par::ws::kUserFirst + 88,  // sssp_batch.cpp (+88..+103)
  kAppFirst = par::ws::kUserFirst + 104,  // applications / user code
};
}  // namespace pslot

/// Per-lane control for the batched multi-source primitives (BfsBatch /
/// PprBatch): where RunControl stops a whole run, this drops individual
/// source lanes at iteration boundaries — the engine's coalescing pass
/// maps each lane to one query's CancelToken, so cancelling one query of
/// a merged wave removes only its lane while the rest run on unaffected.
struct BatchLaneControl {
  /// Called at every iteration boundary with the currently active lane
  /// mask; returns the lanes to KEEP (intersected with `active`). Null =
  /// keep all. Dropped lanes' per-lane results are left unspecified and
  /// excluded from the result's completed mask.
  std::function<std::uint64_t(std::uint64_t active)> keep;

  std::uint64_t Poll(std::uint64_t active) const {
    return keep ? (active & keep(active)) : active;
  }
};

}  // namespace gunrock
