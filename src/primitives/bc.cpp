#include "primitives/bc.hpp"

#include "core/advance.hpp"
#include "core/compute.hpp"
#include "core/frontier.hpp"
#include "parallel/atomics.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gunrock {

namespace {

struct BcProblem {
  std::int32_t* depth = nullptr;
  double* sigma = nullptr;
  double* delta = nullptr;
  std::int32_t iteration = 0;
};

/// Forward phase: discover (claim on depth) and accumulate sigma across
/// every level-crossing edge. A depth is written once, so the claim's
/// previous value is final: each level-crossing edge contributes exactly
/// once regardless of which thread won the discovery race, and edges to
/// already-labelled vertices skip the locked CAS.
struct BcForwardFunctor {
  static bool CondEdge(vid_t s, vid_t d, eid_t, BcProblem& p) {
    const std::int32_t prev =
        par::AtomicClaim(&p.depth[d], std::int32_t{-1}, p.iteration);
    if (prev == -1 || prev == p.iteration) {
      par::AtomicAdd(&p.sigma[d], par::AtomicLoad(&p.sigma[s]));
    }
    return prev == -1;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, BcProblem&) {}
};

/// Backward phase: visit-only advance over a stored level; every edge to a
/// successor (depth + 1) pulls its dependency share. Runs with
/// output = nullptr, so CondEdge performs the computation and returns
/// false (nothing is emitted).
struct BcBackwardFunctor {
  static bool CondEdge(vid_t s, vid_t d, eid_t, BcProblem& p) {
    if (p.depth[d] == p.depth[s] + 1 && p.sigma[d] > 0) {
      const double share =
          p.sigma[s] / p.sigma[d] * (1.0 + p.delta[d]);
      par::AtomicAdd(&p.delta[s], share);
    }
    return false;
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, BcProblem&) {}
};

void BcFromSource(const graph::Csr& g, vid_t source, const BcOptions& opts,
                  par::ThreadPool& pool, bool scale_free,
                  core::Workspace& ws, std::vector<double>& delta,
                  const RunControl& ctl, BcResult* result) {
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  result->depth.assign(n, -1);
  result->sigma.assign(n, 0.0);
  delta.assign(n, 0.0);

  BcProblem prob;
  prob.depth = result->depth.data();
  prob.sigma = result->sigma.data();
  prob.delta = delta.data();

  core::AdvanceConfig adv_cfg;
  adv_cfg.lb = opts.load_balance;
  adv_cfg.scale_free_hint = scale_free;
  adv_cfg.workspace = &ws;

  result->depth[source] = 0;
  result->sigma[source] = 1.0;

  // Forward: store each level's frontier for the backward sweep.
  std::vector<std::vector<vid_t>> levels;
  levels.push_back({source});
  while (!levels.back().empty()) {
    ctl.Checkpoint();
    prob.iteration = static_cast<std::int32_t>(levels.size());
    std::vector<vid_t> next;
    const auto adv = core::AdvancePush<BcForwardFunctor>(
        pool, g, levels.back(), &next, prob, adv_cfg);
    result->stats.edges_visited += adv.edges_visited;
    ++result->stats.iterations;
    levels.push_back(std::move(next));
  }
  levels.pop_back();  // drop the empty terminator

  // Backward: deepest level first; level L pulls from level L+1.
  for (std::size_t l = levels.size(); l-- > 1;) {
    ctl.Checkpoint();
    const auto adv = core::AdvancePush<BcBackwardFunctor>(
        pool, g, levels[l], static_cast<std::vector<vid_t>*>(nullptr),
        prob, adv_cfg);
    result->stats.edges_visited += adv.edges_visited;
  }

  // Accumulate: undirected convention halves each pair's contribution.
  double* bc = result->bc.data();
  core::ForAll(pool, n, [&](std::size_t v) {
    if (static_cast<vid_t>(v) != source) bc[v] += delta[v] / 2.0;
  });
}

}  // namespace

BcResult Bc(const graph::Csr& g, vid_t source, const BcOptions& opts) {
  const vid_t src_list[] = {source};
  return BcMultiSource(g, src_list, opts);
}

BcResult Bc(const graph::Csr& g, vid_t source, const BcOptions& opts,
            const RunControl& ctl) {
  const vid_t src_list[] = {source};
  return BcMultiSource(g, src_list, opts, ctl);
}

BcResult BcMultiSource(const graph::Csr& g, std::span<const vid_t> sources,
                       const BcOptions& opts) {
  return BcMultiSource(g, sources, opts, RunControl{});
}

BcResult BcMultiSource(const graph::Csr& g, std::span<const vid_t> sources,
                       const BcOptions& opts, const RunControl& ctl) {
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  BcResult result;
  result.bc.assign(n, 0.0);
  const bool scale_free = ctl.ScaleFree(g, pool);
  // Workspace and the dependency accumulator persist across sources (and,
  // with an engine lease, across queries), so a multi-source sweep
  // allocates only its per-level frontiers.
  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;
  auto& delta = ws.Get<std::vector<double>>(pslot::kBcFirst);
  WallTimer timer;
  for (const vid_t s : sources) {
    GR_CHECK(s >= 0 && s < g.num_vertices(), "BC source out of range");
    BcFromSource(g, s, opts, pool, scale_free, ws, delta, ctl, &result);
  }
  if (opts.normalize && n > 2) {
    const double scale =
        1.0 / (static_cast<double>(n - 1) * static_cast<double>(n - 2) /
               2.0);
    core::ForAll(pool, n, [&](std::size_t v) { result.bc[v] *= scale; });
  }
  result.stats.elapsed_ms = timer.ElapsedMs();
  return result;
}

}  // namespace gunrock
