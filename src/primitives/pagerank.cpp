#include "primitives/pagerank.hpp"

#include <cmath>

#include "core/advance.hpp"
#include "core/compute.hpp"
#include "core/filter.hpp"
#include "core/frontier.hpp"
#include "core/spmv.hpp"
#include "parallel/atomics.hpp"
#include "parallel/reduce.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gunrock {

namespace {

struct PrProblem {
  const double* rank = nullptr;   // current iterate (read)
  double* rank_next = nullptr;    // accumulator (atomicAdd)
  double* frozen = nullptr;       // steady contributions of retired vertices
  const double* inv_outdeg = nullptr;
  double damping = 0.85;
  double tolerance = 1e-9;
};

/// Distribute step: push damped rank share along every out-edge. A
/// visit-only advance (returns false, output = nullptr).
struct PrDistributeFunctor {
  static bool CondEdge(vid_t s, vid_t d, eid_t, PrProblem& p) {
    par::AtomicAdd(&p.rank_next[d],
                   p.damping * p.rank[s] * p.inv_outdeg[s]);
    return false;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, PrProblem&) {}
};

/// Convergence filter: keep a vertex in the frontier while its rank is
/// still moving.
struct PrConvergenceFunctor {
  static bool CondVertex(vid_t v, PrProblem& p) {
    return std::abs(p.rank_next[v] - p.rank[v]) > p.tolerance;
  }
  static void ApplyVertex(vid_t, PrProblem&) {}
};

/// Retirement push (frontier mode): a vertex leaving the frontier freezes
/// its rank; its neighbors keep receiving that share through the `frozen`
/// accumulator instead of losing the mass. `rank` points at the frozen
/// (post-swap) values here.
struct PrFreezeFunctor {
  static bool CondEdge(vid_t s, vid_t d, eid_t, PrProblem& p) {
    par::AtomicAdd(&p.frozen[d],
                   p.damping * p.rank[s] * p.inv_outdeg[s]);
    return false;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, PrProblem&) {}
};

}  // namespace

PagerankResult Pagerank(const graph::Csr& g, const PagerankOptions& opts) {
  return Pagerank(g, opts, RunControl{});
}

PagerankResult Pagerank(const graph::Csr& g, const PagerankOptions& opts,
                        const RunControl& ctl) {
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  PagerankResult result;
  if (n == 0) return result;

  // Enactor-owned scratch arena plus hoisted per-iteration buffers: the
  // convergence loop reuses everything after the first iteration, and an
  // engine lease extends the reuse across queries. `rank` stays a plain
  // local — it is moved into the result.
  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;

  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  auto& rank_next = ws.Get<std::vector<double>>(pslot::kPagerankFirst + 1);
  rank_next.assign(n, 0.0);
  auto& inv_outdeg = ws.Get<std::vector<double>>(pslot::kPagerankFirst + 2);
  inv_outdeg.assign(n, 0.0);
  core::ForAll(pool, n, [&](std::size_t v) {
    const eid_t d = g.degree(static_cast<vid_t>(v));
    inv_outdeg[v] = d > 0 ? 1.0 / static_cast<double>(d) : 0.0;
  });

  // Gather form: the power iteration as a merge-path semiring sweep
  // over in-edges (core/spmv.hpp). No frontier, no filter compaction;
  // contributions are pre-scaled once per vertex (one random load per
  // edge instead of two) and the base+damping fold is fused into the
  // sweep's finalize. Residual-max convergence matches the push path's
  // per-vertex criterion, so iteration counts agree.
  if (opts.Gathers()) {
    GR_CHECK(g.symmetric() || opts.reverse != nullptr,
             "PageRank gather needs a symmetric graph or opts.reverse");
    const graph::Csr& rg = opts.reverse ? *opts.reverse : g;
    const auto cols = rg.col_indices();
    auto& scaled = ws.Get<std::vector<double>>(pslot::kPagerankFirst + 9);
    scaled.resize(n);
    core::EfficiencyAccumulator efficiency;
    WallTimer timer;
    while (result.iterations < opts.max_iterations) {
      ctl.Checkpoint();
      const double dangling = par::TransformReduce(
          pool, n, 0.0, [](double a, double b) { return a + b; },
          [&](std::size_t v) {
            return g.degree(static_cast<vid_t>(v)) == 0 ? rank[v] : 0.0;
          },
          &ws);
      const double base =
          (1.0 - opts.damping + opts.damping * dangling) /
          static_cast<double>(n);
      core::ForAll(pool, n, [&](std::size_t v) {
        scaled[v] = rank[v] * inv_outdeg[v];
      });
      core::SpmvMergePath<double>(
          pool, rg.row_offsets(), std::span<double>(rank_next), 0.0,
          [](double a, double b) { return a + b; },
          [&](std::size_t e) {
            return scaled[static_cast<std::size_t>(cols[e])];
          },
          [&](std::size_t, double acc) {
            return base + opts.damping * acc;
          },
          &ws, pslot::kSpmvFirst);
      result.stats.edges_visited += rg.num_edges();
      efficiency.Add(core::LaneEfficiencyEqualWork(rg.num_edges()),
                     rg.num_edges());
      ++result.iterations;
      ++result.stats.iterations;
      // Max-residual convergence: order-invariant, so the parallel
      // reduction stays deterministic at any pool width.
      const double resid = par::TransformReduce(
          pool, n, 0.0, [](double a, double b) { return a > b ? a : b; },
          [&](std::size_t v) { return std::abs(rank_next[v] - rank[v]); },
          &ws);
      rank.swap(rank_next);
      if (resid <= opts.tolerance) break;
    }
    result.rank = std::move(rank);
    result.stats.elapsed_ms = timer.ElapsedMs();
    result.stats.lane_efficiency = efficiency.Value();
    return result;
  }

  auto& frozen = ws.Get<std::vector<double>>(pslot::kPagerankFirst + 3);
  frozen.assign(opts.frontier_mode ? n : 0, 0.0);
  PrProblem prob;
  prob.frozen = frozen.data();
  prob.inv_outdeg = inv_outdeg.data();
  prob.damping = opts.damping;
  prob.tolerance = opts.tolerance;

  core::AdvanceConfig adv_cfg;
  adv_cfg.lb = opts.load_balance;
  adv_cfg.scale_free_hint = ctl.ScaleFree(g, pool);
  adv_cfg.workspace = &ws;
  core::FilterConfig filter_cfg;
  filter_cfg.workspace = &ws;

  // Frontier starts with all vertices (paper: "the frontier always
  // contains all vertices" for PR-style primitives).
  auto& frontier = ws.Get<core::VertexFrontier>(pslot::kPagerankFirst);
  frontier.Clear();
  frontier.current().resize(n);
  core::ForAll(pool, n, [&](std::size_t v) {
    frontier.current()[v] = static_cast<vid_t>(v);
  });

  core::EfficiencyAccumulator efficiency;
  // Exact-mode full-vertex pusher list and frontier-mode membership
  // scratch, reused across iterations and queries.
  auto& all = ws.Get<std::vector<vid_t>>(pslot::kPagerankFirst + 4);
  auto& was_active = ws.Get<std::vector<char>>(pslot::kPagerankFirst + 5);
  auto& still_active = ws.Get<std::vector<char>>(pslot::kPagerankFirst + 6);
  auto& old_frontier = ws.Get<std::vector<vid_t>>(pslot::kPagerankFirst + 7);
  auto& leavers = ws.Get<std::vector<vid_t>>(pslot::kPagerankFirst + 8);
  WallTimer timer;

  while (!frontier.empty() && result.iterations < opts.max_iterations) {
    ctl.Checkpoint();
    // Base value plus uniformly redistributed dangling mass.
    const double dangling = par::TransformReduce(
        pool, n, 0.0, [](double a, double b) { return a + b; },
        [&](std::size_t v) {
          return g.degree(static_cast<vid_t>(v)) == 0 ? rank[v] : 0.0;
        },
        &ws);
    const double base =
        (1.0 - opts.damping + opts.damping * dangling) /
        static_cast<double>(n);
    // Push accumulates into rank_next; seed it with the base (and the
    // retirees' frozen contributions in frontier mode).
    core::ForAll(pool, n, [&](std::size_t v) {
      rank_next[v] = base + (opts.frontier_mode ? frozen[v] : 0.0);
    });

    prob.rank = rank.data();
    prob.rank_next = rank_next.data();

    // In exact mode every vertex pushes; in frontier mode only the active
    // frontier pushes (Gunrock-faithful approximation).
    std::span<const vid_t> pushers = frontier.current();
    if (!opts.frontier_mode &&
        frontier.current().size() != n) {
      all.resize(n);
      core::ForAll(pool, n, [&](std::size_t v) {
        all[v] = static_cast<vid_t>(v);
      });
      pushers = all;
    }
    const auto adv = core::AdvancePush<PrDistributeFunctor>(
        pool, g, pushers, static_cast<std::vector<vid_t>*>(nullptr),
        prob, adv_cfg);
    result.stats.edges_visited += adv.edges_visited;
    efficiency.Add(adv.lane_efficiency, adv.edges_visited);

    // In frontier mode, vertices outside the frontier keep their old rank
    // (they stopped pushing; their steady share arrives via `frozen`).
    if (opts.frontier_mode) {
      was_active.assign(n, 0);
      core::ForEach(pool, std::span<const vid_t>(frontier.current()),
                    [&](vid_t v) {
                      was_active[static_cast<std::size_t>(v)] = 1;
                    });
      core::ForAll(pool, n, [&](std::size_t v) {
        if (!was_active[v]) rank_next[v] = rank[v];
      });
    }

    // Exact mode re-filters the full vertex set so a vertex whose residual
    // bounces back above tolerance re-enters the frontier; frontier mode
    // filters only the active set (once out, always out — the
    // approximation the paper accepts).
    core::FilterVertex<PrConvergenceFunctor>(pool, pushers,
                                             &frontier.next(), prob,
                                             filter_cfg);
    if (opts.frontier_mode) old_frontier = frontier.current();
    frontier.Flip();
    rank.swap(rank_next);
    ++result.iterations;
    ++result.stats.iterations;

    if (opts.frontier_mode) {
      // Retire vertices that just left the frontier: one final push of
      // their frozen contribution (post-swap rank) into `frozen`.
      still_active.assign(n, 0);
      core::ForEach(pool, std::span<const vid_t>(frontier.current()),
                    [&](vid_t v) {
                      still_active[static_cast<std::size_t>(v)] = 1;
                    });
      leavers.clear();
      for (const vid_t v : old_frontier) {
        if (!still_active[static_cast<std::size_t>(v)]) {
          leavers.push_back(v);
        }
      }
      if (!leavers.empty()) {
        prob.rank = rank.data();  // frozen values live in `rank` now
        core::AdvancePush<PrFreezeFunctor>(
            pool, g, leavers, static_cast<std::vector<vid_t>*>(nullptr),
            prob, adv_cfg);
      }
    }
  }

  result.rank = std::move(rank);
  result.stats.elapsed_ms = timer.ElapsedMs();
  result.stats.lane_efficiency = efficiency.Value();
  return result;
}

}  // namespace gunrock
