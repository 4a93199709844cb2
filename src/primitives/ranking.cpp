#include "primitives/ranking.hpp"

#include <cmath>

#include "core/advance.hpp"
#include "core/compute.hpp"
#include "core/spmv.hpp"
#include "core/workspace.hpp"
#include "parallel/atomics.hpp"
#include "parallel/reduce.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gunrock {

namespace {

/// Shared state for the score-propagation functors: an advance over the
/// appropriate graph accumulates src_score (optionally scaled per-source)
/// into dst_score with atomicAdd.
struct PropagateProblem {
  const double* src_score = nullptr;
  double* dst_score = nullptr;
  const double* src_scale = nullptr;  // nullptr = 1.0
};

struct PropagateFunctor {
  static bool CondEdge(vid_t s, vid_t d, eid_t, PropagateProblem& p) {
    const double scale = p.src_scale ? p.src_scale[s] : 1.0;
    par::AtomicAdd(&p.dst_score[d], p.src_score[s] * scale);
    return false;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, PropagateProblem&) {}
};

/// Full-vertex pusher list, arena-resident across iterations and queries
/// (slot pslot::kRankingFirst; every ranking primitive stores the same
/// type there, so a recycled lease never re-types it).
std::span<const vid_t> AllVertices(par::ThreadPool& pool,
                                   core::Workspace& ws, std::size_t n) {
  auto& all = ws.Get<std::vector<vid_t>>(pslot::kRankingFirst);
  all.resize(n);
  core::ForAll(pool, n,
               [&](std::size_t v) { all[v] = static_cast<vid_t>(v); });
  return all;
}

double NormalizeL1(par::ThreadPool& pool, std::vector<double>& x) {
  const double sum = par::ReduceSum(pool, std::span<const double>(x));
  if (sum > 0) {
    core::ForAll(pool, x.size(), [&](std::size_t i) { x[i] /= sum; });
  }
  return sum;
}

double NormalizeL2(par::ThreadPool& pool, std::vector<double>& x,
                   core::Workspace* ws) {
  const double sum_sq = par::TransformReduce(
      pool, x.size(), 0.0, [](double a, double b) { return a + b; },
      [&](std::size_t i) { return x[i] * x[i]; }, ws);
  const double norm = std::sqrt(sum_sq);
  if (norm > 0) {
    core::ForAll(pool, x.size(), [&](std::size_t i) { x[i] /= norm; });
  }
  return norm;
}

double L1Distance(par::ThreadPool& pool, std::span<const double> a,
                  std::span<const double> b) {
  return par::TransformReduce(
      pool, a.size(), 0.0, [](double x, double y) { return x + y; },
      [&](std::size_t i) { return std::abs(a[i] - b[i]); });
}

/// y[v] = sum of x[u] over row v of `a` (the gather orientation), via the
/// merge-path plus-times sweep — the spmv-backend replacement for the
/// zero-init + atomic-scatter pattern below. Every row is overwritten, so
/// no zero pass is needed; pre-scale x to fold per-source factors in.
void SpmvGather(par::ThreadPool& pool, const graph::Csr& a,
                std::span<const double> x, std::span<double> y,
                core::Workspace& ws) {
  const auto cols = a.col_indices();
  core::SpmvMergePath<double>(
      pool, a.row_offsets(), y, 0.0,
      [](double p, double q) { return p + q; },
      [&](std::size_t e) { return x[static_cast<std::size_t>(cols[e])]; },
      [](std::size_t, double acc) { return acc; }, &ws, pslot::kSpmvFirst);
}

bool UseSpmv(core::SpmvBackend backend, bool scale_free) {
  return backend == core::SpmvBackend::kSpmv ||
         (backend == core::SpmvBackend::kAuto && scale_free);
}

}  // namespace

HitsResult Hits(const graph::Csr& g, const graph::Csr& rg,
                const HitsOptions& opts) {
  return Hits(g, rg, opts, RunControl{});
}

HitsResult Hits(const graph::Csr& g, const graph::Csr& rg,
                const HitsOptions& opts, const RunControl& ctl) {
  GR_CHECK(g.num_vertices() == rg.num_vertices(),
           "forward/reverse vertex count mismatch");
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  HitsResult result;
  if (n == 0) return result;
  result.hub.assign(n, 1.0 / static_cast<double>(n));
  result.authority.assign(n, 0.0);

  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;
  core::AdvanceConfig adv_cfg;
  adv_cfg.lb = opts.load_balance;
  adv_cfg.scale_free_hint = ctl.ScaleFree(g, pool);
  adv_cfg.workspace = &ws;
  const bool use_spmv = UseSpmv(opts.backend, adv_cfg.scale_free_hint);
  const auto all = AllVertices(pool, ws, n);

  auto& prev_hub = ws.Get<std::vector<double>>(pslot::kRankingFirst + 1);
  auto& prev_auth = ws.Get<std::vector<double>>(pslot::kRankingFirst + 2);
  prev_hub = result.hub;
  prev_auth.assign(n, 0.0);

  const auto normalize = [&](std::vector<double>& x) {
    if (opts.norm == HitsNorm::kL2) {
      NormalizeL2(pool, x, &ws);
    } else {
      NormalizeL1(pool, x);
    }
  };

  PropagateProblem prob;
  WallTimer timer;
  for (; result.iterations < opts.max_iterations;) {
    ctl.Checkpoint();
    // auth = sum of hub over in-edges (gather over rg / push over g);
    // hub = sum of auth over out-edges (gather over g / push over rg).
    if (use_spmv) {
      SpmvGather(pool, rg, result.hub, result.authority, ws);
      result.stats.edges_visited += rg.num_edges();
      normalize(result.authority);
      SpmvGather(pool, g, result.authority, result.hub, ws);
      result.stats.edges_visited += g.num_edges();
      normalize(result.hub);
    } else {
      core::ForAll(pool, n, [&](std::size_t v) { result.authority[v] = 0; });
      prob.src_score = result.hub.data();
      prob.dst_score = result.authority.data();
      prob.src_scale = nullptr;
      auto adv = core::AdvancePush<PropagateFunctor>(
          pool, g, all, static_cast<std::vector<vid_t>*>(nullptr), prob,
          adv_cfg);
      result.stats.edges_visited += adv.edges_visited;
      normalize(result.authority);

      core::ForAll(pool, n, [&](std::size_t v) { result.hub[v] = 0; });
      prob.src_score = result.authority.data();
      prob.dst_score = result.hub.data();
      adv = core::AdvancePush<PropagateFunctor>(
          pool, rg, all, static_cast<std::vector<vid_t>*>(nullptr), prob,
          adv_cfg);
      result.stats.edges_visited += adv.edges_visited;
      normalize(result.hub);
    }

    ++result.iterations;
    const double moved =
        L1Distance(pool, result.hub, prev_hub) +
        L1Distance(pool, result.authority, prev_auth);
    prev_hub = result.hub;
    prev_auth = result.authority;
    if (moved < opts.tolerance) break;
  }
  result.stats.elapsed_ms = timer.ElapsedMs();
  result.stats.iterations = result.iterations;
  return result;
}

SalsaResult Salsa(const graph::Csr& g, const graph::Csr& rg,
                  const SalsaOptions& opts) {
  return Salsa(g, rg, opts, RunControl{});
}

SalsaResult Salsa(const graph::Csr& g, const graph::Csr& rg,
                  const SalsaOptions& opts, const RunControl& ctl) {
  GR_CHECK(g.num_vertices() == rg.num_vertices(),
           "forward/reverse vertex count mismatch");
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  SalsaResult result;
  if (n == 0) return result;
  result.hub.assign(n, 1.0 / static_cast<double>(n));
  result.authority.assign(n, 1.0 / static_cast<double>(n));

  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;

  // Stochastic scalings: 1/outdeg for the hub->auth walk, 1/indeg for the
  // auth->hub walk.
  auto& inv_out = ws.Get<std::vector<double>>(pslot::kRankingFirst + 3);
  auto& inv_in = ws.Get<std::vector<double>>(pslot::kRankingFirst + 4);
  inv_out.resize(n);
  inv_in.resize(n);
  core::ForAll(pool, n, [&](std::size_t v) {
    const eid_t od = g.degree(static_cast<vid_t>(v));
    const eid_t id = rg.degree(static_cast<vid_t>(v));
    inv_out[v] = od > 0 ? 1.0 / static_cast<double>(od) : 0.0;
    inv_in[v] = id > 0 ? 1.0 / static_cast<double>(id) : 0.0;
  });

  core::AdvanceConfig adv_cfg;
  adv_cfg.lb = opts.load_balance;
  adv_cfg.scale_free_hint = ctl.ScaleFree(g, pool);
  adv_cfg.workspace = &ws;
  const auto all = AllVertices(pool, ws, n);

  auto& prev_hub = ws.Get<std::vector<double>>(pslot::kRankingFirst + 1);
  auto& prev_auth = ws.Get<std::vector<double>>(pslot::kRankingFirst + 2);
  auto& next_auth = ws.Get<std::vector<double>>(pslot::kRankingFirst + 5);
  auto& next_hub = ws.Get<std::vector<double>>(pslot::kRankingFirst + 6);
  prev_hub = result.hub;
  prev_auth = result.authority;

  const bool use_spmv = UseSpmv(opts.backend, adv_cfg.scale_free_hint);
  // Pre-scaled score vectors for the spmv gather: the per-source
  // stochastic factor is folded in once per vertex (the push path rounds
  // score * scale identically per edge, so the products match bitwise).
  auto& hub_scaled = ws.Get<std::vector<double>>(pslot::kRankingFirst + 10);
  auto& auth_scaled = ws.Get<std::vector<double>>(pslot::kRankingFirst + 11);
  if (use_spmv) {
    hub_scaled.resize(n);
    auth_scaled.resize(n);
    next_auth.resize(n);
    next_hub.resize(n);
  }

  PropagateProblem prob;
  WallTimer timer;
  for (; result.iterations < opts.max_iterations;) {
    ctl.Checkpoint();
    if (use_spmv) {
      // a'[v] = sum_{u -> v} h[u] / outdeg(u): gather over rg.
      core::ForAll(pool, n, [&](std::size_t v) {
        hub_scaled[v] = result.hub[v] * inv_out[v];
      });
      SpmvGather(pool, rg, hub_scaled, next_auth, ws);
      // h'[u] = sum_{u -> v} a[v] / indeg(v): gather over g.
      core::ForAll(pool, n, [&](std::size_t v) {
        auth_scaled[v] = result.authority[v] * inv_in[v];
      });
      SpmvGather(pool, g, auth_scaled, next_hub, ws);
      result.stats.edges_visited += g.num_edges() + rg.num_edges();
    } else {
      // a'[v] = sum_{u -> v} h[u] / outdeg(u)
      next_auth.assign(n, 0.0);
      prob.src_score = result.hub.data();
      prob.dst_score = next_auth.data();
      prob.src_scale = inv_out.data();
      auto adv = core::AdvancePush<PropagateFunctor>(
          pool, g, all, static_cast<std::vector<vid_t>*>(nullptr), prob,
          adv_cfg);
      result.stats.edges_visited += adv.edges_visited;

      // h'[u] = sum_{u -> v} a[v] / indeg(v): push along reverse edges
      // with the *source* (= v in forward orientation) scaled by
      // 1/indeg(v).
      next_hub.assign(n, 0.0);
      prob.src_score = result.authority.data();
      prob.dst_score = next_hub.data();
      prob.src_scale = inv_in.data();
      adv = core::AdvancePush<PropagateFunctor>(
          pool, rg, all, static_cast<std::vector<vid_t>*>(nullptr), prob,
          adv_cfg);
      result.stats.edges_visited += adv.edges_visited;
    }

    result.authority.swap(next_auth);
    result.hub.swap(next_hub);
    // The walks are substochastic only at sinks; renormalize to keep the
    // scores a distribution.
    NormalizeL1(pool, result.authority);
    NormalizeL1(pool, result.hub);

    ++result.iterations;
    const double moved =
        L1Distance(pool, result.hub, prev_hub) +
        L1Distance(pool, result.authority, prev_auth);
    prev_hub = result.hub;
    prev_auth = result.authority;
    if (moved < opts.tolerance) break;
  }
  result.stats.elapsed_ms = timer.ElapsedMs();
  result.stats.iterations = result.iterations;
  return result;
}

PprResult PersonalizedPagerank(const graph::Csr& g,
                               std::span<const vid_t> seeds,
                               const PprOptions& opts) {
  return PersonalizedPagerank(g, seeds, opts, RunControl{});
}

PprResult PersonalizedPagerank(const graph::Csr& g,
                               std::span<const vid_t> seeds,
                               const PprOptions& opts,
                               const RunControl& ctl) {
  GR_CHECK(!seeds.empty(), "PPR needs at least one seed");
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  PprResult result;
  if (n == 0) return result;

  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;

  auto& teleport = ws.Get<std::vector<double>>(pslot::kRankingFirst + 7);
  teleport.assign(n, 0.0);
  for (const vid_t s : seeds) {
    GR_CHECK(s >= 0 && s < g.num_vertices(), "seed out of range");
    teleport[static_cast<std::size_t>(s)] =
        1.0 / static_cast<double>(seeds.size());
  }

  std::vector<double> rank(teleport.begin(), teleport.end());
  auto& next = ws.Get<std::vector<double>>(pslot::kRankingFirst + 8);
  auto& scaled = ws.Get<std::vector<double>>(pslot::kRankingFirst + 9);
  next.resize(n);
  scaled.resize(n);
  auto& inv_out = ws.Get<std::vector<double>>(pslot::kRankingFirst + 3);
  inv_out.resize(n);
  core::ForAll(pool, n, [&](std::size_t v) {
    const eid_t d = g.degree(static_cast<vid_t>(v));
    inv_out[v] = d > 0 ? 1.0 / static_cast<double>(d) : 0.0;
  });

  core::AdvanceConfig adv_cfg;
  adv_cfg.lb = opts.load_balance;
  adv_cfg.scale_free_hint = ctl.ScaleFree(g, pool);
  adv_cfg.workspace = &ws;
  const auto all = AllVertices(pool, ws, n);

  // kAuto stays on push (see PprOptions::backend); spmv is the explicit
  // gather formulation over the reverse orientation.
  const bool use_spmv = opts.backend == core::SpmvBackend::kSpmv;
  const graph::Csr& rg = opts.reverse ? *opts.reverse : g;
  const auto rcols = rg.col_indices();

  PropagateProblem prob;
  WallTimer timer;
  for (; result.iterations < opts.max_iterations;) {
    ctl.Checkpoint();
    // Dangling mass teleports back to the seeds.
    const double dangling = par::TransformReduce(
        pool, n, 0.0, [](double a, double b) { return a + b; },
        [&](std::size_t v) {
          return g.degree(static_cast<vid_t>(v)) == 0 ? rank[v] : 0.0;
        },
        &ws);
    if (use_spmv) {
      // Same per-edge product as the push path — (damping * rank[u])
      // rounded, then * inv_out[u] rounded — folded in per vertex; the
      // teleport-plus-dangling base joins in finalize.
      core::ForAll(pool, n, [&](std::size_t v) {
        scaled[v] = (opts.damping * rank[v]) * inv_out[v];
      });
      const double base = 1.0 - opts.damping + opts.damping * dangling;
      core::SpmvMergePath<double>(
          pool, rg.row_offsets(), std::span<double>(next), 0.0,
          [](double p, double q) { return p + q; },
          [&](std::size_t e) {
            return scaled[static_cast<std::size_t>(rcols[e])];
          },
          [&](std::size_t v, double acc) {
            return base * teleport[v] + acc;
          },
          &ws, pslot::kSpmvFirst);
      result.stats.edges_visited += rg.num_edges();
    } else {
      core::ForAll(pool, n, [&](std::size_t v) {
        next[v] = (1.0 - opts.damping + opts.damping * dangling) *
                  teleport[v];
      });
      // Push damping * rank / outdeg along out-edges.
      core::ForAll(pool, n, [&](std::size_t v) {
        scaled[v] = opts.damping * rank[v];
      });
      prob.src_score = scaled.data();
      prob.dst_score = next.data();
      prob.src_scale = inv_out.data();
      const auto adv = core::AdvancePush<PropagateFunctor>(
          pool, g, all, static_cast<std::vector<vid_t>*>(nullptr), prob,
          adv_cfg);
      result.stats.edges_visited += adv.edges_visited;
    }

    const double moved = L1Distance(pool, next, rank);
    rank.swap(next);
    ++result.iterations;
    if (moved < opts.tolerance) break;
  }
  result.rank = std::move(rank);
  result.stats.elapsed_ms = timer.ElapsedMs();
  result.stats.iterations = result.iterations;
  return result;
}

}  // namespace gunrock
