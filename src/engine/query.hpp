// Typed queries for the engine (engine/query_engine.hpp).
//
// A query is "one primitive run over one registered graph": the request
// carries the primitive's own options struct (so every knob a direct call
// accepts is available through the engine), the response carries the
// primitive's own result struct plus serving metadata (terminal status,
// queue/run latency split). Both sides are closed std::variants — the
// engine dispatches with one std::visit and no type erasure, and adding a
// primitive to the serving set is a one-alternative change.
//
// The servable set covers all nine primitive families: the traversal
// five (bfs/sssp/bc/cc/pagerank) plus mst, the ranking trio
// (hits/salsa/ppr), triangles, and label propagation. HITS/SALSA run on
// a (forward, reverse) CSR pair; the engine materializes the reverse
// graph lazily per registered graph, so pure-traversal serving never
// pays for it.
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/cc.hpp"
#include "primitives/label_propagation.hpp"
#include "primitives/mst.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/ranking.hpp"
#include "primitives/sssp.hpp"
#include "primitives/sssp_batch.hpp"
#include "primitives/triangles.hpp"
#include "util/types.hpp"

namespace gunrock::engine {

// --- requests ---------------------------------------------------------------
// `opts.pool` is ignored: engine queries always run on the engine's
// shared pool.

struct BfsQuery {
  vid_t source = 0;
  BfsOptions opts{};
};

struct SsspQuery {
  vid_t source = 0;
  SsspOptions opts{};
};

struct BcQuery {
  vid_t source = 0;
  BcOptions opts{};
};

struct CcQuery {
  CcOptions opts{};
};

struct PagerankQuery {
  PagerankOptions opts{};
};

struct MstQuery {
  MstOptions opts{};
};

struct TrianglesQuery {
  TriangleOptions opts{};
};

struct LabelPropagationQuery {
  LabelPropagationOptions opts{};
};

/// Runs on (g, reverse(g)); the engine builds the reverse CSR lazily at
/// first use and caches it with the registered graph.
struct HitsQuery {
  HitsOptions opts{};
};

/// Runs on (g, reverse(g)) like HitsQuery.
struct SalsaQuery {
  SalsaOptions opts{};
};

struct PprQuery {
  /// Teleport set; WithSource replaces it with {source}, so a PPR
  /// prototype fans out across a SubmitAll source list like BFS does.
  std::vector<vid_t> seeds{0};
  PprOptions opts{};
};

/// Many-to-many SSSP distance table: N sources × M targets in one query,
/// executed as ≤64-lane SsspBatch waves. One query = one epoch-pinned
/// snapshot = one cancel token; every wave of it sees the same adjacency.
struct MatrixQuery {
  std::vector<vid_t> sources;
  /// Columns of the table; empty keeps every vertex (M = |V|).
  std::vector<vid_t> targets;
  /// On-demand path extraction: for each (source, target) pair the
  /// result carries the vertex sequence of one shortest path (empty when
  /// unreachable). The source must appear in `sources` — paths ride the
  /// wave that already holds that source's full distance column, so they
  /// cost one witness walk, not an extra SSSP.
  std::vector<std::pair<vid_t, vid_t>> paths;
  /// delta / backend / load-balance knobs, shared by every wave.
  /// opts.reverse is stamped by the engine for the spmv backend.
  SsspBatchOptions opts{};
  /// Lanes per wave: 0 resolves via MatrixWaveWidth (the coalescing
  /// budget model, gated on the scale-free hint like BFS wave
  /// formation); the engine stamps it at submit from its own budget. An
  /// explicit value (clamped to 64) always wins.
  std::uint32_t wave = 0;
};

using QueryRequest =
    std::variant<BfsQuery, SsspQuery, BcQuery, CcQuery, PagerankQuery,
                 MstQuery, TrianglesQuery, LabelPropagationQuery, HitsQuery,
                 SalsaQuery, PprQuery, MatrixQuery>;

/// Short primitive name of a request ("bfs", "sssp", ...).
inline const char* KindName(const QueryRequest& request) {
  struct Namer {
    const char* operator()(const BfsQuery&) const { return "bfs"; }
    const char* operator()(const SsspQuery&) const { return "sssp"; }
    const char* operator()(const BcQuery&) const { return "bc"; }
    const char* operator()(const CcQuery&) const { return "cc"; }
    const char* operator()(const PagerankQuery&) const { return "pagerank"; }
    const char* operator()(const MstQuery&) const { return "mst"; }
    const char* operator()(const TrianglesQuery&) const {
      return "triangles";
    }
    const char* operator()(const LabelPropagationQuery&) const {
      return "lp";
    }
    const char* operator()(const HitsQuery&) const { return "hits"; }
    const char* operator()(const SalsaQuery&) const { return "salsa"; }
    const char* operator()(const PprQuery&) const { return "ppr"; }
    const char* operator()(const MatrixQuery&) const { return "matrix"; }
  };
  return std::visit(Namer{}, request);
}

/// Canonical out-of-range text, shared by the engine's solo and wave run
/// paths (and by front-end pre-checks that want to match it): a client
/// must see the identical error whether its query happened to be merged
/// into a wave or ran alone.
inline std::string SourceRangeError(const char* kind, long long source,
                                    vid_t num_vertices) {
  return std::string(kind) + " source " + std::to_string(source) +
         " out of range [0, " + std::to_string(num_vertices) + ")";
}

/// Pre-run source/seed validation against a graph with `num_vertices`
/// vertices: nullopt when the request may run, the canonical error text
/// otherwise. Mirrors the solo runners' semantics exactly — PPR succeeds
/// with an empty result on an empty graph *before* its seed check, so PPR
/// seeds are not validated when num_vertices == 0; every other sourced
/// kind (bfs/sssp/bc) checks first and fails.
inline std::optional<std::string> ValidateSource(const QueryRequest& request,
                                                 vid_t num_vertices) {
  const auto check = [&](vid_t v) -> std::optional<std::string> {
    if (v < 0 || v >= num_vertices) {
      return SourceRangeError(KindName(request), v, num_vertices);
    }
    return std::nullopt;
  };
  if (const auto* bfs = std::get_if<BfsQuery>(&request)) {
    return check(bfs->source);
  }
  if (const auto* sssp = std::get_if<SsspQuery>(&request)) {
    return check(sssp->source);
  }
  if (const auto* bc = std::get_if<BcQuery>(&request)) {
    return check(bc->source);
  }
  if (const auto* ppr = std::get_if<PprQuery>(&request)) {
    if (num_vertices == 0) return std::nullopt;
    for (const vid_t seed : ppr->seeds) {
      if (auto err = check(seed)) return err;
    }
  }
  if (const auto* m = std::get_if<MatrixQuery>(&request)) {
    for (const vid_t s : m->sources) {
      if (auto err = check(s)) return err;
    }
    for (const vid_t t : m->targets) {
      if (auto err = check(t)) return err;
    }
    for (const auto& [s, t] : m->paths) {
      if (auto err = check(s)) return err;
      if (auto err = check(t)) return err;
    }
  }
  return std::nullopt;
}

/// True for requests on `g` that need its reverse CSR: HITS/SALSA
/// always, PPR when its spmv backend (a gather over the reverse
/// orientation) was requested, and PageRank when its gather runs on a
/// graph not built symmetric.
inline bool NeedsReverseGraph(const graph::Csr& g,
                              const QueryRequest& request) {
  if (const auto* pr = std::get_if<PagerankQuery>(&request)) {
    return pr->opts.Gathers() && !g.symmetric() &&
           pr->opts.reverse == nullptr;
  }
  if (const auto* ppr = std::get_if<PprQuery>(&request)) {
    return ppr->opts.backend == core::SpmvBackend::kSpmv;
  }
  if (const auto* m = std::get_if<MatrixQuery>(&request)) {
    // The spmv backend gathers over the reverse orientation; kAuto and
    // kFrontier relax over the forward graph only.
    return m->opts.backend == MatrixBackend::kSpmv;
  }
  return std::holds_alternative<HitsQuery>(request) ||
         std::holds_alternative<SalsaQuery>(request);
}

/// Stamps a per-graph backend policy (GraphOptions::backend) onto a
/// request whose own backend is still kAuto; a non-auto request value
/// always wins. No-op for kinds without a backend knob and for a kAuto
/// policy (each primitive then resolves kAuto by its own rule, never from
/// the pool width, so engine and direct runs agree by construction).
inline void ApplyBackendPolicy(QueryRequest& request,
                               core::SpmvBackend backend) {
  if (backend == core::SpmvBackend::kAuto) return;
  const auto stamp = [&](core::SpmvBackend& b) {
    if (b == core::SpmvBackend::kAuto) b = backend;
  };
  if (auto* pr = std::get_if<PagerankQuery>(&request)) {
    stamp(pr->opts.backend);
  } else if (auto* hits = std::get_if<HitsQuery>(&request)) {
    stamp(hits->opts.backend);
  } else if (auto* salsa = std::get_if<SalsaQuery>(&request)) {
    stamp(salsa->opts.backend);
  } else if (auto* ppr = std::get_if<PprQuery>(&request)) {
    stamp(ppr->opts.backend);
  }
}

/// True for request kinds the engine's coalescing pass can merge into one
/// batched multi-source wave: BFS without predecessors (BfsBatch extracts
/// per-lane depths, not parent trees) and single-seed PPR (one seed = one
/// lane column). The merged run must reproduce each direct call's result
/// — exactly for BFS depths; for PPR to the same rounding spread as two
/// scalar runs of each other (bitwise on a single-lane pool, see
/// ppr_batch.hpp) — so anything else always runs solo.
inline bool CoalescibleRequest(const QueryRequest& request) {
  if (const auto* bfs = std::get_if<BfsQuery>(&request)) {
    return !bfs->opts.compute_preds && bfs->opts.reverse == nullptr &&
           !bfs->opts.collect_records;
  }
  if (const auto* ppr = std::get_if<PprQuery>(&request)) {
    return ppr->seeds.size() == 1 && !ppr->opts.collect_records;
  }
  return false;
}

/// True when two coalescible requests may share one wave: same kind and
/// identical options/variant — the source (or seed) is the lane axis, so
/// it is deliberately not compared.
inline bool CoalesceCompatible(const QueryRequest& a,
                               const QueryRequest& b) {
  if (a.index() != b.index()) return false;
  if (const auto* x = std::get_if<BfsQuery>(&a)) {
    const auto& y = std::get<BfsQuery>(b);
    return x->opts.load_balance == y.opts.load_balance &&
           x->opts.idempotent == y.opts.idempotent &&
           x->opts.direction == y.opts.direction &&
           x->opts.do_alpha == y.opts.do_alpha &&
           x->opts.do_beta == y.opts.do_beta;
  }
  if (const auto* x = std::get_if<PprQuery>(&a)) {
    const auto& y = std::get<PprQuery>(b);
    return x->opts.damping == y.opts.damping &&
           x->opts.tolerance == y.opts.tolerance &&
           x->opts.max_iterations == y.opts.max_iterations &&
           x->opts.load_balance == y.opts.load_balance &&
           x->opts.backend == y.opts.backend;
  }
  return false;
}

/// Copy of `request` with its source vertex replaced; requests without a
/// source (CC, PageRank, MST, triangles, LP, HITS, SALSA) pass through
/// unchanged, as does MatrixQuery (its source *list* is the whole
/// request — fan it out by splitting the list, not via SubmitAll). PPR
/// interprets the source as a single-seed teleport set. This is how
/// SubmitAll stamps one prototype request over a span of sources.
inline QueryRequest WithSource(QueryRequest request, vid_t source) {
  if (auto* bfs = std::get_if<BfsQuery>(&request)) {
    bfs->source = source;
  } else if (auto* sssp = std::get_if<SsspQuery>(&request)) {
    sssp->source = source;
  } else if (auto* bc = std::get_if<BcQuery>(&request)) {
    bc->source = source;
  } else if (auto* ppr = std::get_if<PprQuery>(&request)) {
    ppr->seeds.assign(1, source);
  }
  return request;
}

/// Coalescing-budget wave width for a matrix query on an n-vertex graph,
/// shared by SubmitImpl's stamp and RunMatrix's direct-call default. The
/// lease-resident wave state (buffers that stay in the recycled
/// workspace arena) costs ~64n bytes fixed — five lane-mask frontiers at
/// 12n each plus flags and piles — and ~8n per lane for the distance
/// column blocks (the spmv backend's two float blocks bound the frontier
/// backend's one), so the budget caps the lane count at ≤64. Non-scale-
/// free graphs fall back to single-lane waves — exactly the gate BFS
/// wave formation applies, and the same break-even reasoning: a shared
/// Δ window over long-diameter meshes re-scans the union frontier for
/// little lane overlap.
inline std::uint32_t MatrixWaveWidth(vid_t num_vertices, bool scale_free,
                                     std::size_t budget_bytes) {
  if (!scale_free) return 1;
  const auto n = static_cast<std::size_t>(num_vertices);
  const std::size_t fixed = 64 * n;
  const std::size_t per_lane = 8 * n;
  if (per_lane == 0) return kMaxBatchLanes;  // empty graph: width is moot
  if (fixed + per_lane > budget_bytes) return 1;
  return static_cast<std::uint32_t>(std::min<std::size_t>(
      kMaxBatchLanes, (budget_bytes - fixed) / per_lane));
}

// --- responses --------------------------------------------------------------

enum class QueryStatus {
  kQueued,            ///< admitted, waiting for a runner
  kRunning,           ///< on a runner, workspace leased
  kDone,              ///< finished; response.result holds the payload
  kCancelled,         ///< stopped by QueryHandle::Cancel()
  kDeadlineExceeded,  ///< stopped by the submit-time deadline
  kRejected,          ///< refused at admission (queue full, kReject policy)
  kFailed,            ///< the primitive threw; response.error has details
};

inline const char* ToString(QueryStatus s) {
  switch (s) {
    case QueryStatus::kQueued: return "queued";
    case QueryStatus::kRunning: return "running";
    case QueryStatus::kDone: return "done";
    case QueryStatus::kCancelled: return "cancelled";
    case QueryStatus::kDeadlineExceeded: return "deadline-exceeded";
    case QueryStatus::kRejected: return "rejected";
    case QueryStatus::kFailed: return "failed";
  }
  return "?";
}

/// True for states a query can never leave.
inline bool IsTerminal(QueryStatus s) {
  return s != QueryStatus::kQueued && s != QueryStatus::kRunning;
}

/// Distance table from a MatrixQuery. Row-major: table[i * num_targets
/// + j] is the shortest distance sources[i] → targets[j] (kInfinity when
/// unreachable). Every cell is bit-identical to the matching scalar
/// Sssp(g, sources[i]).dist[targets[j]] — the SsspBatch contract, so the
/// table is reproducible across backends, wave splits and pool widths.
struct MatrixResult {
  std::size_t num_sources = 0;
  std::size_t num_targets = 0;
  std::vector<weight_t> table;
  /// paths[k] answers the request's paths[k] pair: the vertex sequence
  /// source..target of one shortest path, empty when unreachable.
  std::vector<std::vector<vid_t>> paths;
  /// SsspBatch waves the query was split into.
  std::uint64_t waves = 0;
  /// Aggregate across waves; iterations sums per-wave rounds.
  core::TraversalStats stats;
};

using QueryResult =
    std::variant<std::monostate, BfsResult, SsspResult, BcResult, CcResult,
                 PagerankResult, MstResult, TriangleResult,
                 LabelPropagationResult, HitsResult, SalsaResult, PprResult,
                 MatrixResult>;

struct QueryResponse {
  QueryStatus status = QueryStatus::kQueued;
  /// Primitive result; std::monostate unless status == kDone. Extract
  /// with std::get<BfsResult>(response.result) etc.
  QueryResult result;
  /// Failure detail when status is kFailed / kRejected.
  std::string error;
  double queue_ms = 0.0;  ///< admission to runner pickup
  double run_ms = 0.0;    ///< runner pickup to terminal state
  double total_ms = 0.0;  ///< admission to terminal state
};

// --- dispatch ---------------------------------------------------------------

/// Runs a MatrixQuery as a sequence of ≤wave-lane SsspBatch waves and
/// projects the per-lane distance columns onto the target set (plus any
/// requested witness-walk path extractions). `reverse` is required only
/// for the kSpmv backend; a zero q.wave resolves via MatrixWaveWidth
/// with the default engine budget. Defined in engine/matrix.cpp.
MatrixResult RunMatrix(const graph::Csr& g, const MatrixQuery& q,
                       const graph::Csr* reverse = nullptr,
                       par::ThreadPool* pool = nullptr,
                       const RunControl& ctl = {});

/// The one request->primitive dispatch, shared by the engine's runners,
/// the bench baselines and the soak oracle (so adding a family is a
/// single-visitor change). `reverse` is required only for requests where
/// NeedsReverseGraph() holds; `pool`, when non-null, overrides the
/// request's own opts.pool (the engine pins its shared pool this way —
/// direct callers usually leave both null and run the request verbatim).
inline QueryResult RunRequest(const graph::Csr& g,
                              const QueryRequest& request,
                              const graph::Csr* reverse = nullptr,
                              par::ThreadPool* pool = nullptr,
                              const RunControl& ctl = {}) {
  const bool needs_reverse = NeedsReverseGraph(g, request);
  GR_CHECK(!needs_reverse || reverse != nullptr,
           "RunRequest: this request needs the reverse graph");
  return std::visit(
      [&](const auto& q) -> QueryResult {
        using Q = std::decay_t<decltype(q)>;
        auto opts = q.opts;
        if (pool) opts.pool = pool;
        if constexpr (std::is_same_v<Q, BfsQuery>) {
          return Bfs(g, q.source, opts, ctl);
        } else if constexpr (std::is_same_v<Q, SsspQuery>) {
          return Sssp(g, q.source, opts, ctl);
        } else if constexpr (std::is_same_v<Q, BcQuery>) {
          return Bc(g, q.source, opts, ctl);
        } else if constexpr (std::is_same_v<Q, CcQuery>) {
          return Cc(g, opts, ctl);
        } else if constexpr (std::is_same_v<Q, PagerankQuery>) {
          if (needs_reverse) opts.reverse = reverse;
          return Pagerank(g, opts, ctl);
        } else if constexpr (std::is_same_v<Q, MstQuery>) {
          return Mst(g, opts, ctl);
        } else if constexpr (std::is_same_v<Q, TrianglesQuery>) {
          return CountTriangles(g, opts, ctl);
        } else if constexpr (std::is_same_v<Q, LabelPropagationQuery>) {
          return LabelPropagation(g, opts, ctl);
        } else if constexpr (std::is_same_v<Q, HitsQuery>) {
          return Hits(g, *reverse, opts, ctl);
        } else if constexpr (std::is_same_v<Q, SalsaQuery>) {
          return Salsa(g, *reverse, opts, ctl);
        } else if constexpr (std::is_same_v<Q, MatrixQuery>) {
          return RunMatrix(g, q, reverse, pool, ctl);
        } else {
          static_assert(std::is_same_v<Q, PprQuery>);
          if (opts.backend == core::SpmvBackend::kSpmv) {
            opts.reverse = reverse;  // non-null per the check above
          }
          return PersonalizedPagerank(g, q.seeds, opts, ctl);
        }
      },
      request);
}


}  // namespace gunrock::engine
