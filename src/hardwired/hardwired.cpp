#include "hardwired/hardwired.hpp"

#include <algorithm>
#include <atomic>

#include "parallel/atomics.hpp"
#include "parallel/bitmap.hpp"
#include "parallel/compact.hpp"
#include "parallel/for_each.hpp"
#include "parallel/reduce.hpp"
#include "parallel/union_find.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gunrock::hardwired {

namespace {

/// Expand a frontier chunk with CAS claims into a per-chunk buffer.
/// Shared by the BFS/BC top-down loops.
template <typename Claim>
void ExpandTopDown(const graph::Csr& g, std::span<const vid_t> frontier,
                   std::size_t lo, std::size_t hi,
                   std::vector<vid_t>* local, eid_t* edges, Claim&& claim) {
  for (std::size_t i = lo; i < hi; ++i) {
    const vid_t u = frontier[i];
    const eid_t rb = g.row_begin(u), re = g.row_end(u);
    *edges += re - rb;
    for (eid_t e = rb; e < re; ++e) {
      const vid_t v = g.edge_dest(e);
      if (claim(u, v, e)) local->push_back(v);
    }
  }
}

void GatherChunks(par::ThreadPool& pool,
                  const std::vector<std::vector<vid_t>>& locals,
                  std::size_t count, std::vector<vid_t>* out) {
  out->clear();
  par::ConcatChunks(pool, locals, count, out);
}

/// Reusable per-chunk expansion scratch: the chunk-local buffers keep
/// their capacity across iterations, so a steady-state traversal loop
/// performs no heap allocation.
struct ChunkScratch {
  std::vector<std::vector<vid_t>> locals;
  std::vector<eid_t> counts;

  /// Prepares for `chunks` chunks; chunk bodies must clear their local
  /// buffer before appending.
  void Reset(std::size_t chunks) {
    if (locals.size() < chunks) locals.resize(chunks);
    counts.assign(chunks, 0);
  }

  eid_t TotalCount(std::size_t chunks) const {
    eid_t total = 0;
    for (std::size_t c = 0; c < chunks; ++c) total += counts[c];
    return total;
  }
};

}  // namespace

TimedDepths Bfs(const graph::Csr& g, vid_t source, par::ThreadPool& pool) {
  GR_CHECK(source >= 0 && source < g.num_vertices(), "bad source");
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  TimedDepths out;
  out.depth.assign(n, -1);
  std::int32_t* depth = out.depth.data();

  par::Bitmap in_frontier(n);
  std::vector<vid_t> frontier{source}, next;
  std::vector<vid_t> candidates;
  ChunkScratch scratch;
  depth[source] = 0;
  eid_t m_unvisited = g.num_edges() - g.degree(source);

  WallTimer timer;
  std::int32_t level = 1;
  bool pulling = false;
  while (!frontier.empty()) {
    const eid_t m_f = par::TransformReduce(
        pool, frontier.size(), eid_t{0},
        [](eid_t a, eid_t b) { return a + b; },
        [&](std::size_t i) { return g.degree(frontier[i]); });
    if (!pulling && m_f > m_unvisited / 14) pulling = true;
    if (pulling &&
        frontier.size() < static_cast<std::size_t>(g.num_vertices()) / 24) {
      pulling = false;
    }

    if (pulling) {
      in_frontier.Reset(pool);
      par::ParallelFor(pool, 0, frontier.size(), [&](std::size_t i) {
        in_frontier.Set(static_cast<std::size_t>(frontier[i]));
      });
      candidates.resize(n);
      const std::size_t nc = par::GenerateIf(
          pool, n, std::span<vid_t>(candidates),
          [&](std::size_t v) { return depth[v] == -1; },
          [](std::size_t v) { return static_cast<vid_t>(v); });
      candidates.resize(nc);
      const std::size_t grain = 64;
      const std::size_t chunks = (nc + grain - 1) / grain;
      scratch.Reset(chunks);
      par::ParallelForChunks(
          pool, 0, nc, grain,
          [&](std::size_t lo, std::size_t hi, std::size_t c, unsigned) {
            auto& local = scratch.locals[c];
            local.clear();
            for (std::size_t i = lo; i < hi; ++i) {
              const vid_t v = candidates[i];
              for (eid_t e = g.row_begin(v); e < g.row_end(v); ++e) {
                ++scratch.counts[c];
                const vid_t u = g.edge_dest(e);
                if (in_frontier.Test(static_cast<std::size_t>(u))) {
                  depth[v] = level;
                  local.push_back(v);
                  break;
                }
              }
            }
          });
      GatherChunks(pool, scratch.locals, chunks, &next);
      out.edges_visited += scratch.TotalCount(chunks);
    } else {
      const std::size_t grain = 64;
      const std::size_t chunks = (frontier.size() + grain - 1) / grain;
      scratch.Reset(chunks);
      par::ParallelForChunks(
          pool, 0, frontier.size(), grain,
          [&](std::size_t lo, std::size_t hi, std::size_t c, unsigned) {
            auto& local = scratch.locals[c];
            local.clear();
            ExpandTopDown(g, frontier, lo, hi, &local, &scratch.counts[c],
                          [&](vid_t, vid_t v, eid_t) {
                            return par::AtomicClaim(&depth[v],
                                                    std::int32_t{-1},
                                                    level) == -1;
                          });
          });
      GatherChunks(pool, scratch.locals, chunks, &next);
      out.edges_visited += scratch.TotalCount(chunks);
    }

    const eid_t m_new = par::TransformReduce(
        pool, next.size(), eid_t{0}, [](eid_t a, eid_t b) { return a + b; },
        [&](std::size_t i) { return g.degree(next[i]); });
    m_unvisited -= m_new;
    frontier.swap(next);
    ++level;
  }
  out.elapsed_ms = timer.ElapsedMs();
  return out;
}

TimedDists Sssp(const graph::Csr& g, vid_t source, par::ThreadPool& pool) {
  GR_CHECK(g.has_weights(), "hardwired SSSP needs weights");
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  TimedDists out;
  out.dist.assign(n, kInfinity);
  out.dist[source] = 0;
  weight_t* dist = out.dist.data();

  const double mean_w =
      static_cast<double>(par::ReduceSum(pool, g.weights())) /
      static_cast<double>(g.num_edges());
  const weight_t delta = static_cast<weight_t>(std::max(
      1.0, kWarpWidth * mean_w / std::max(1.0, g.average_degree())));

  std::vector<std::int32_t> mark(n, 0);
  std::int32_t* mark_p = mark.data();
  std::int32_t epoch = 0;

  std::vector<vid_t> near{source}, far, next_near, next_far;
  ChunkScratch scratch;                 // near-slice chunk buffers
  std::vector<std::vector<vid_t>> lf;  // far-slice chunk buffers
  weight_t threshold = delta;
  WallTimer timer;
  while (!near.empty() || !far.empty()) {
    if (near.empty()) {
      threshold += delta;
      next_far.clear();
      for (const vid_t v : far) {
        (dist[v] < threshold ? near : next_far).push_back(v);
      }
      far.swap(next_far);
      if (near.empty()) continue;
    }
    ++epoch;
    const std::int32_t e_now = epoch;
    const std::size_t grain = 64;
    const std::size_t chunks = (near.size() + grain - 1) / grain;
    scratch.Reset(chunks);
    if (lf.size() < chunks) lf.resize(chunks);
    par::ParallelForChunks(
        pool, 0, near.size(), grain,
        [&](std::size_t lo, std::size_t hi, std::size_t c, unsigned) {
          auto& local_near = scratch.locals[c];
          auto& local_far = lf[c];
          local_near.clear();
          local_far.clear();
          for (std::size_t i = lo; i < hi; ++i) {
            const vid_t u = near[i];
            const weight_t du = par::AtomicLoad(&dist[u]);
            const eid_t rb = g.row_begin(u), re = g.row_end(u);
            scratch.counts[c] += re - rb;
            for (eid_t e = rb; e < re; ++e) {
              const vid_t v = g.edge_dest(e);
              const weight_t nd = du + g.edge_weight(e);
              if (nd < par::AtomicMin(&dist[v], nd) &&
                  par::AtomicExchange(&mark_p[v], e_now) != e_now) {
                (nd < threshold ? local_near : local_far).push_back(v);
              }
            }
          }
        });
    GatherChunks(pool, scratch.locals, chunks, &next_near);
    for (std::size_t c = 0; c < chunks; ++c) {
      far.insert(far.end(), lf[c].begin(), lf[c].end());
    }
    out.edges_visited += scratch.TotalCount(chunks);
    near.swap(next_near);
  }
  out.elapsed_ms = timer.ElapsedMs();
  return out;
}

TimedBc Bc(const graph::Csr& g, vid_t source, par::ThreadPool& pool) {
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  TimedBc out;
  out.bc.assign(n, 0.0);
  std::vector<std::int32_t> depth(n, -1);
  std::vector<double> sigma(n, 0.0), delta(n, 0.0);
  std::int32_t* depth_p = depth.data();
  double* sigma_p = sigma.data();
  double* delta_p = delta.data();

  depth[source] = 0;
  sigma[source] = 1.0;
  std::vector<std::vector<vid_t>> levels;
  levels.push_back({source});

  WallTimer timer;
  // Forward: fused discovery + sigma accumulation. Chunk scratch is
  // reused across levels; only the stored level frontiers themselves
  // allocate (they must outlive the loop for the backward sweep).
  ChunkScratch scratch;
  while (!levels.back().empty()) {
    const auto& frontier = levels.back();
    const std::int32_t level = static_cast<std::int32_t>(levels.size());
    const std::size_t grain = 64;
    const std::size_t chunks = (frontier.size() + grain - 1) / grain;
    scratch.Reset(chunks);
    par::ParallelForChunks(
        pool, 0, frontier.size(), grain,
        [&](std::size_t lo, std::size_t hi, std::size_t c, unsigned) {
          auto& local = scratch.locals[c];
          local.clear();
          ExpandTopDown(g, frontier, lo, hi, &local, &scratch.counts[c],
                        [&](vid_t u, vid_t v, eid_t) {
                          const std::int32_t prev = par::AtomicClaim(
                              &depth_p[v], std::int32_t{-1}, level);
                          if (prev == -1 || prev == level) {
                            par::AtomicAdd(&sigma_p[v],
                                           par::AtomicLoad(&sigma_p[u]));
                          }
                          return prev == -1;
                        });
        });
    std::vector<vid_t> next;
    GatherChunks(pool, scratch.locals, chunks, &next);
    out.edges_visited += scratch.TotalCount(chunks);
    levels.push_back(std::move(next));
  }
  levels.pop_back();

  // Backward: dependency accumulation, deepest level first.
  for (std::size_t l = levels.size(); l-- > 1;) {
    const auto& frontier = levels[l];
    par::ParallelFor(pool, 0, frontier.size(), [&](std::size_t i) {
      const vid_t u = frontier[i];
      double acc = 0.0;
      for (eid_t e = g.row_begin(u); e < g.row_end(u); ++e) {
        const vid_t w = g.edge_dest(e);
        if (depth_p[w] == depth_p[u] + 1 && sigma_p[w] > 0) {
          acc += sigma_p[u] / sigma_p[w] * (1.0 + delta_p[w]);
        }
      }
      delta_p[u] = acc;
    });
    out.edges_visited += par::TransformReduce(
        pool, frontier.size(), eid_t{0},
        [](eid_t a, eid_t b) { return a + b; },
        [&](std::size_t i) { return g.degree(frontier[i]); });
  }
  par::ParallelFor(pool, 0, n, [&](std::size_t v) {
    if (static_cast<vid_t>(v) != source) out.bc[v] = delta[v] / 2.0;
  });
  out.elapsed_ms = timer.ElapsedMs();
  return out;
}

TimedComponents Cc(const graph::Csr& g, par::ThreadPool& pool) {
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  TimedComponents out;
  out.component.resize(n);
  vid_t* comp = out.component.data();

  WallTimer timer;
  par::ParallelFor(pool, 0, n,
                   [&](std::size_t v) { comp[v] = static_cast<vid_t>(v); });
  const auto srcs = g.edge_sources(pool);
  const auto dsts = g.col_indices();

  // Concurrent union-find with CAS hooks and path halving: one pass over
  // the edges suffices — a failed hook retries with the refreshed roots
  // until the endpoints share one. This is the fused, frontier-free loop
  // a hardwired implementation gets to write.
  par::ParallelFor(pool, 0, m, [&](std::size_t e) {
    const vid_t eu = srcs[e], ev = dsts[e];
    if (eu > ev) return;  // each undirected edge once
    vid_t u = eu, v = ev;
    while (true) {
      const vid_t ru = par::FindRoot(comp, u), rv = par::FindRoot(comp, v);
      if (ru == rv) return;
      const vid_t hi = std::max(ru, rv), lo = std::min(ru, rv);
      if (par::AtomicCas(&comp[hi], hi, lo)) return;
      u = hi;  // lost the race: rediscover roots and retry
      v = lo;
    }
  });
  // Final flatten to the (now stable) roots.
  par::ParallelFor(pool, 0, n, [&](std::size_t v) {
    par::AtomicStore(&comp[v], par::FindRoot(comp, static_cast<vid_t>(v)));
  });

  out.num_components = static_cast<vid_t>(par::TransformReduce(
      pool, n, std::size_t{0},
      [](std::size_t a, std::size_t b) { return a + b; },
      [&](std::size_t v) {
        return comp[v] == static_cast<vid_t>(v) ? std::size_t{1} : 0;
      }));
  out.elapsed_ms = timer.ElapsedMs();
  return out;
}

}  // namespace gunrock::hardwired
