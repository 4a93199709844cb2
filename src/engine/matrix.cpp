// MatrixQuery execution: the wave loop over SsspBatch plus the target
// projection and on-demand path extraction (engine/query.hpp).
#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "core/compute.hpp"
#include "engine/query.hpp"
#include "engine/query_engine.hpp"  // QueryEngineOptions' default budget
#include "util/error.hpp"

namespace gunrock::engine {

namespace {

/// One shortest path source..target recovered from the source's finished
/// distance column by walking witness edges: (u, v) is a witness when
/// fl(dist[u] + w) == dist[v]. Every vertex with a finite label has a
/// witness predecessor (the last edge of the optimal fold that produced
/// its label), so a DFS over witness edges from the target always
/// reaches the source — the visited set makes that robust to zero-weight
/// plateaus, where a greedy single-step walk can ping-pong forever.
/// Scans target-side out-neighbors as in-edges, the symmetric-graph
/// assumption scalar SSSP's predecessor recompute already makes.
std::vector<vid_t> ExtractPath(const graph::Csr& g,
                               std::span<const weight_t> dist, vid_t source,
                               vid_t target) {
  if (dist[static_cast<std::size_t>(target)] == kInfinity) return {};
  std::vector<vid_t> path;
  if (source == target) {
    path.push_back(source);
    return path;
  }
  std::vector<std::uint8_t> visited(
      static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<vid_t> stack{target};
  // parent[v] = the vertex we reached v *from* during the DFS — i.e. the
  // next hop towards the target in the recovered path.
  std::vector<vid_t> parent(static_cast<std::size_t>(g.num_vertices()),
                            kInvalidVid);
  visited[static_cast<std::size_t>(target)] = 1;
  while (!stack.empty()) {
    const vid_t v = stack.back();
    stack.pop_back();
    if (v == source) {
      for (vid_t cur = source; cur != kInvalidVid;
           cur = parent[static_cast<std::size_t>(cur)]) {
        path.push_back(cur);
      }
      return path;
    }
    const weight_t dv = dist[static_cast<std::size_t>(v)];
    for (eid_t e = g.row_begin(v); e < g.row_end(v); ++e) {
      const vid_t u = g.edge_dest(e);
      if (visited[static_cast<std::size_t>(u)]) continue;
      if (dist[static_cast<std::size_t>(u)] + g.edge_weight(e) != dv) {
        continue;
      }
      visited[static_cast<std::size_t>(u)] = 1;
      parent[static_cast<std::size_t>(u)] = v;
      stack.push_back(u);
    }
  }
  return {};  // no witness chain (asymmetric input): report "no path"
}

}  // namespace

MatrixResult RunMatrix(const graph::Csr& g, const MatrixQuery& q,
                       const graph::Csr* reverse, par::ThreadPool* pool,
                       const RunControl& ctl) {
  GR_CHECK(!q.sources.empty(), "matrix query needs at least one source");
  const auto n = static_cast<std::size_t>(g.num_vertices());
  for (const vid_t t : q.targets) {
    GR_CHECK(t >= 0 && static_cast<std::size_t>(t) < n,
             SourceRangeError("matrix target", t, g.num_vertices()));
  }
  // Each path request rides the wave holding its source's column; map it
  // to the first occurrence of that source in the lane axis up front.
  std::vector<std::size_t> path_lane(q.paths.size());
  for (std::size_t k = 0; k < q.paths.size(); ++k) {
    const auto [s, t] = q.paths[k];
    GR_CHECK(t >= 0 && static_cast<std::size_t>(t) < n,
             SourceRangeError("matrix path target", t, g.num_vertices()));
    const auto it = std::find(q.sources.begin(), q.sources.end(), s);
    GR_CHECK(it != q.sources.end(),
             "matrix path source " + std::to_string(s) +
                 " is not in the query's source list");
    path_lane[k] = static_cast<std::size_t>(it - q.sources.begin());
  }

  SsspBatchOptions opts = q.opts;
  if (pool) opts.pool = pool;
  if (opts.backend == MatrixBackend::kSpmv) {
    opts.reverse = reverse;  // RunRequest pre-checked non-null
  }
  // Resolve the hint once so per-wave kAuto resolution (and a zero
  // q.wave) never pays the O(|V|) reduction more than once.
  const bool scale_free = ctl.ScaleFree(g, opts.Pool());
  RunControl inner = ctl;
  inner.scale_free_hint = scale_free ? 1 : 0;
  const std::uint32_t wave =
      q.wave > 0 ? std::min<std::uint32_t>(q.wave, kMaxBatchLanes)
                 : MatrixWaveWidth(g.num_vertices(), scale_free,
                                   QueryEngineOptions{}.coalesce_budget_bytes);

  MatrixResult out;
  out.num_sources = q.sources.size();
  out.num_targets = q.targets.empty() ? n : q.targets.size();
  out.table.resize(out.num_sources * out.num_targets);
  out.paths.resize(q.paths.size());

  for (std::size_t base = 0; base < out.num_sources; base += wave) {
    const std::size_t lanes =
        std::min<std::size_t>(wave, out.num_sources - base);
    const auto r = SsspBatch(
        g, std::span<const vid_t>(q.sources).subspan(base, lanes), opts,
        inner);
    ++out.waves;
    out.stats.edges_visited += r.stats.edges_visited;
    out.stats.iterations += r.stats.iterations;
    par::ThreadPool& p = opts.Pool();
    p.Parallel([&](unsigned rank) {
      for (std::size_t l = rank; l < lanes; l += p.num_threads()) {
        const std::vector<weight_t>& dist = r.dist[l];
        weight_t* row = out.table.data() + (base + l) * out.num_targets;
        if (q.targets.empty()) {
          std::memcpy(row, dist.data(), n * sizeof(weight_t));
        } else {
          for (std::size_t j = 0; j < out.num_targets; ++j) {
            row[j] = dist[static_cast<std::size_t>(q.targets[j])];
          }
        }
      }
    });
    for (std::size_t k = 0; k < q.paths.size(); ++k) {
      if (path_lane[k] < base || path_lane[k] >= base + lanes) continue;
      out.paths[k] = ExtractPath(g, r.dist[path_lane[k] - base],
                                 q.paths[k].first, q.paths[k].second);
    }
  }
  out.stats.lane_efficiency = 1.0;
  return out;
}

}  // namespace gunrock::engine
