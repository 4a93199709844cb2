#include "primitives/cc.hpp"

#include "core/compute.hpp"
#include "core/filter.hpp"
#include "core/frontier.hpp"
#include "parallel/atomics.hpp"
#include "parallel/compact.hpp"
#include "parallel/reduce.hpp"
#include "parallel/union_find.hpp"
#include "util/timer.hpp"

namespace gunrock {

namespace {

struct CcProblem {
  vid_t* comp = nullptr;
};

/// Hooking filter on the edge frontier: find both endpoints' roots (with
/// path halving) and CAS the larger root under the smaller. The edge is
/// dropped once its endpoints share a root or its hook lands; it stays
/// for the next round only when another hook claimed that root first.
struct CcHookFunctor {
  static bool CondEdge(vid_t s, vid_t d, eid_t, CcProblem& p) {
    const vid_t rs = par::FindRoot(p.comp, s);
    const vid_t rd = par::FindRoot(p.comp, d);
    if (rs == rd) return false;
    const vid_t hi = rs > rd ? rs : rd;
    const vid_t lo = rs > rd ? rd : rs;
    return !par::AtomicCas(&p.comp[hi], hi, lo);
  }
  static void ApplyEdge(vid_t, vid_t, eid_t, CcProblem&) {}
};

}  // namespace

CcResult Cc(const graph::Csr& g, const CcOptions& opts) {
  return Cc(g, opts, RunControl{});
}

CcResult Cc(const graph::Csr& g, const CcOptions& opts,
            const RunControl& ctl) {
  par::ThreadPool& pool = opts.Pool();
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t m = static_cast<std::size_t>(g.num_edges());

  CcResult result;
  result.component.resize(n);
  core::ForAll(pool, n, [&](std::size_t v) {
    result.component[v] = static_cast<vid_t>(v);
  });

  CcProblem prob;
  prob.comp = result.component.data();

  const auto edge_src = g.edge_sources(pool);
  const auto edge_dst = g.col_indices();

  // Enactor-owned arena for the edge frontier and the filter's scratch;
  // an engine lease extends the reuse across queries.
  core::Workspace private_ws;
  core::Workspace& ws = ctl.workspace ? *ctl.workspace : private_ws;
  core::FilterConfig filter_cfg;
  filter_cfg.workspace = &ws;

  WallTimer timer;

  // Edge frontier: one arc per undirected edge (u <= v); on a directed
  // input every such arc participates (hooking is symmetric anyway).
  auto& edges = ws.Get<core::EdgeFrontier>(pslot::kCcFirst);
  edges.Clear();
  {
    edges.current().resize(m);
    const std::size_t kept = par::GenerateIf(
        pool, m, std::span<eid_t>(edges.current()),
        [&](std::size_t e) { return edge_src[e] <= edge_dst[e]; },
        [](std::size_t e) { return static_cast<eid_t>(e); }, &ws);
    edges.current().resize(kept);
  }

  // Each round retries only the edges whose hook lost a race, so a pool
  // without contention finishes in one.
  while (!edges.empty()) {
    ctl.Checkpoint();
    const auto hook = core::FilterEdge<CcHookFunctor>(
        pool, edge_src, edge_dst, edges.current(), &edges.next(), prob,
        filter_cfg);
    result.stats.edges_visited += static_cast<eid_t>(hook.input_size);
    edges.Flip();
    ++result.stats.iterations;
  }

  // Final flatten: every label becomes its (now stable) root, the
  // component's minimum vertex id.
  core::ForAll(pool, n, [&](std::size_t v) {
    par::AtomicStore(&prob.comp[v],
                     par::FindRoot(prob.comp, static_cast<vid_t>(v)));
  });
  result.num_components = static_cast<vid_t>(par::TransformReduce(
      pool, n, std::size_t{0},
      [](std::size_t a, std::size_t b) { return a + b; },
      [&](std::size_t v) {
        return result.component[v] == static_cast<vid_t>(v) ? std::size_t{1}
                                                            : 0;
      }));

  result.stats.elapsed_ms = timer.ElapsedMs();
  result.stats.lane_efficiency = 1.0;
  return result;
}

}  // namespace gunrock
