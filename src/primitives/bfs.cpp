#include "primitives/bfs.hpp"

#include "core/advance.hpp"
#include "core/compute.hpp"
#include "core/direction.hpp"
#include "core/filter.hpp"
#include "core/frontier.hpp"
#include "graph/stats.hpp"
#include "parallel/atomics.hpp"
#include "parallel/bitmap.hpp"
#include "parallel/compact.hpp"
#include "parallel/reduce.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gunrock {

namespace {

/// Problem data slice (the paper's Problem component): SoA per-vertex
/// state shared by the functors.
struct BfsProblem {
  std::int32_t* depth = nullptr;
  vid_t* pred = nullptr;          // nullptr when preds are not requested
  par::EpochBitmap* visited = nullptr;  // idempotent-mode claim set
  std::int32_t iteration = 0;     // depth to assign this iteration
};

/// Non-idempotent advance: an atomic claim on the depth label takes each
/// vertex exactly once, so the output frontier is duplicate-free.
struct BfsAtomicFunctor {
  static bool CondEdge(vid_t s, vid_t d, eid_t, BfsProblem& p) {
    if (par::AtomicClaim(&p.depth[d], std::int32_t{-1}, p.iteration) ==
        -1) {
      if (p.pred) p.pred[d] = s;
      return true;
    }
    return false;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, BfsProblem&) {}
};

/// Idempotent advance: plain reads/writes — rediscovery is benign because
/// every writer stores the same depth. Duplicates may be emitted.
struct BfsIdempotentFunctor {
  static bool CondEdge(vid_t s, vid_t d, eid_t, BfsProblem& p) {
    if (par::AtomicLoad(&p.depth[d]) != -1) return false;
    par::AtomicStore(&p.depth[d], p.iteration);
    if (p.pred) par::AtomicStore(&p.pred[d], s);
    return true;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, BfsProblem&) {}
};

/// Idempotent-mode filter: the visited bitmap's test-and-set is the exact
/// dedup claim ("Gunrock's fastest BFS ... uses heuristics within its
/// filter that reduce the concurrent discovery of child nodes").
struct BfsFilterFunctor {
  static bool CondVertex(vid_t v, BfsProblem& p) {
    return p.visited->TestAndSet(static_cast<std::size_t>(v));
  }
  static void ApplyVertex(vid_t, BfsProblem&) {}
};

/// Pull advance: the operator already verified the parent is in the
/// current frontier; the candidate is unvisited by construction.
struct BfsPullFunctor {
  static bool CondEdge(vid_t s, vid_t d, eid_t, BfsProblem& p) {
    p.depth[d] = p.iteration;
    if (p.pred) p.pred[d] = s;
    return true;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, BfsProblem&) {}
};

}  // namespace

BfsResult Bfs(const graph::Csr& g, vid_t source, const BfsOptions& opts) {
  return Bfs(g, source, opts, RunControl{});
}

BfsResult Bfs(const graph::Csr& g, vid_t source, const BfsOptions& opts,
              const RunControl& ctl) {
  GR_CHECK(source >= 0 && source < g.num_vertices(),
           "BFS source out of range");
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const graph::Csr& rg = opts.reverse ? *opts.reverse : g;
  const bool in_edges = opts.reverse != nullptr || g.symmetric();

  BfsResult result;
  result.depth.assign(n, -1);
  if (opts.compute_preds) result.pred.assign(n, kInvalidVid);

  // Enactor-owned scratch arena: every operator call below reuses its
  // buffers through this, so iterations are allocation-free after warm-up.
  // An engine-leased arena (ctl.workspace) extends the reuse across
  // queries — with a warm lease only the result buffers above allocate.
  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;

  // Both per-vertex sets are epoch-stamped and arena-resident: a fresh
  // query (visited) or a direction switch (frontier_bits) invalidates
  // them with one counter bump instead of an O(|V|) clear, and a warm
  // lease reuses their storage outright.
  auto& visited = ws.Get<par::EpochBitmap>(pslot::kBfsFirst + 3);
  visited.Resize(n);
  visited.NewEpoch();
  auto& frontier_bits = ws.Get<par::EpochBitmap>(pslot::kBfsFirst + 4);
  frontier_bits.Resize(n);

  BfsProblem prob;
  prob.depth = result.depth.data();
  prob.pred = opts.compute_preds ? result.pred.data() : nullptr;
  prob.visited = &visited;

  core::AdvanceConfig adv_cfg;
  adv_cfg.lb = opts.load_balance;
  adv_cfg.scale_free_hint = ctl.scale_free_hint >= 0
                                ? ctl.scale_free_hint > 0
                                : graph::ComputeScaleFreeHint(g, pool);
  adv_cfg.workspace = &ws;
  core::FilterConfig filter_cfg;
  filter_cfg.history_hash = true;
  filter_cfg.workspace = &ws;

  core::DirectionOptimizer optimizer(g.num_vertices(), opts.do_alpha,
                                     opts.do_beta);

  auto& frontier = ws.Get<core::VertexFrontier>(pslot::kBfsFirst);
  frontier.Assign({source});
  result.depth[source] = 0;
  visited.Set(static_cast<std::size_t>(source));

  // Edge counts for the direction controller: edges reachable from
  // unvisited vertices shrink as the traversal claims them.
  eid_t m_unvisited = g.num_edges() - g.degree(source);

  core::EfficiencyAccumulator efficiency;
  // Pull-mode unvisited list and idempotent-mode advance output, both
  // reused across iterations and (via the lease) across queries.
  auto& candidates = ws.Get<std::vector<vid_t>>(pslot::kBfsFirst + 1);
  auto& raw = ws.Get<std::vector<vid_t>>(pslot::kBfsFirst + 2);
  WallTimer timer;

  const bool optimizing = opts.direction == core::Direction::kOptimizing;
  while (!frontier.empty()) {
    ctl.Checkpoint();
    prob.iteration = result.stats.iterations + 1;
    const std::size_t n_f = frontier.size();

    bool pull = opts.direction == core::Direction::kPull;
    if (optimizing) {
      // The controller's inputs (frontier out-edges, unexplored edges)
      // are only worth computing when the direction can actually switch.
      const eid_t m_f = par::TransformReduce(
          pool, n_f, eid_t{0}, [](eid_t a, eid_t b) { return a + b; },
          [&](std::size_t i) { return g.degree(frontier.current()[i]); },
          &ws);
      pull = optimizer.ShouldPull(m_f, m_unvisited,
                                  static_cast<vid_t>(n_f));
    }

    core::AdvanceResult adv;
    if (pull) {
      frontier_bits.NewEpoch();  // O(1) invalidation of the previous set
      core::ForEach(pool, std::span<const vid_t>(frontier.current()),
                    [&](vid_t v) {
                      frontier_bits.Set(static_cast<std::size_t>(v));
                    });
      candidates.resize(n);
      const std::size_t nc = par::GenerateIf(
          pool, n, std::span<vid_t>(candidates),
          [&](std::size_t v) { return result.depth[v] == -1; },
          [](std::size_t v) { return static_cast<vid_t>(v); }, &ws);
      candidates.resize(nc);
      adv = core::AdvancePull<BfsPullFunctor>(pool, rg, frontier_bits,
                                              candidates, &frontier.next(),
                                              prob, adv_cfg);
      // Pull discovers uniquely (one thread owns each candidate); mark
      // visited so a later push iteration stays consistent.
      core::ForEach(pool, std::span<const vid_t>(frontier.next()),
                    [&](vid_t v) {
                      visited.Set(static_cast<std::size_t>(v));
                    });
    } else if (opts.idempotent) {
      raw.clear();
      adv = core::AdvancePush<BfsIdempotentFunctor>(
          pool, g, frontier.current(), &raw, prob, adv_cfg);
      core::FilterVertex<BfsFilterFunctor>(pool, raw, &frontier.next(),
                                           prob, filter_cfg);
    } else {
      adv = core::AdvancePush<BfsAtomicFunctor>(
          pool, g, frontier.current(), &frontier.next(), prob, adv_cfg);
    }

    // A push functor stores whichever frontier source claimed a vertex,
    // which depends on the schedule. When the rows of `rg` are in-edges,
    // replace it with the first in-neighbour one level up, the smallest
    // id on sorted rows and the parent pull picks. With one frontier
    // vertex every claim already stored the only possible parent.
    if (!pull && prob.pred && in_edges && n_f > 1) {
      const std::int32_t up = prob.iteration - 1;
      core::ForEach(pool, std::span<const vid_t>(frontier.next()),
                    [&](vid_t v) {
                      const eid_t end = rg.row_end(v);
                      for (eid_t e = rg.row_begin(v); e < end; ++e) {
                        const vid_t u = rg.edge_dest(e);
                        if (result.depth[u] == up) {
                          result.pred[v] = u;
                          break;
                        }
                      }
                    });
    }

    result.stats.edges_visited += adv.edges_visited;
    efficiency.Add(adv.lane_efficiency, adv.edges_visited);
    if (opts.collect_records) {
      result.stats.records.push_back(
          {pull ? "advance-pull" : "advance-push", prob.iteration, n_f,
           frontier.next().size(), adv.edges_visited,
           adv.lane_efficiency});
    }

    if (optimizing) {
      const eid_t m_new = par::TransformReduce(
          pool, frontier.next().size(), eid_t{0},
          [](eid_t a, eid_t b) { return a + b; },
          [&](std::size_t i) { return g.degree(frontier.next()[i]); },
          &ws);
      m_unvisited -= m_new;
    }

    frontier.Flip();
    ++result.stats.iterations;
  }

  result.stats.elapsed_ms = timer.ElapsedMs();
  result.stats.lane_efficiency = efficiency.Value();
  return result;
}

}  // namespace gunrock
