// Community structure on a clustered graph: connected components to find
// the communities, k-core decomposition to find each community's dense
// nucleus, and graph coloring to schedule conflict-free updates — three
// different frontier-operator pipelines over one dataset.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>
#include <vector>

#include "gunrock.hpp"

int main(int argc, char** argv) {
  using namespace gunrock;
  // --quick: tiny inputs for the ctest smoke run (mirrors bench --quick).
  const bool quick =
      argc > 1 && std::string_view(argv[1]) == "--quick";

  graph::PlantedPartitionParams params;
  params.num_clusters = quick ? 4 : 12;
  params.cluster_size = quick ? 128 : 2048;
  params.intra_edges_per_vertex = quick ? 6 : 10;
  params.inter_edges = 0;  // isolated communities: CC finds them exactly
  graph::BuildOptions build;
  build.symmetrize = true;
  const auto g = graph::BuildCsr(
      GeneratePlantedPartition(params, par::ThreadPool::Global()), build);
  std::printf("clustered graph: %d vertices, %lld edges, %d planted "
              "communities\n",
              g.num_vertices(), static_cast<long long>(g.num_edges()),
              params.num_clusters);

  // 1. Connected components (root hooking with path halving).
  const auto cc = Cc(g);
  std::printf("\nCC found %d components in %.1f ms (%d hooking rounds)\n",
              cc.num_components, cc.stats.elapsed_ms,
              cc.stats.iterations);
  std::map<vid_t, std::int64_t> sizes;
  for (const auto label : cc.component) ++sizes[label];
  std::printf("component sizes:");
  for (const auto& [label, size] : sizes) {
    std::printf(" %lld", static_cast<long long>(size));
  }
  std::printf("\n");

  // 2. k-core decomposition: how dense is each community's nucleus?
  const auto kcore = KCore(g);
  std::printf("\nk-core: degeneracy %d (%.1f ms, %d peeling rounds)\n",
              kcore.degeneracy, kcore.stats.elapsed_ms,
              kcore.stats.iterations);
  std::vector<std::int64_t> core_hist(
      static_cast<std::size_t>(kcore.degeneracy) + 1, 0);
  for (const auto c : kcore.core) {
    ++core_hist[static_cast<std::size_t>(c)];
  }
  std::printf("core-number histogram:");
  for (std::size_t k = 0; k < core_hist.size(); ++k) {
    if (core_hist[k] > 0) {
      std::printf(" %zu:%lld", k, static_cast<long long>(core_hist[k]));
    }
  }
  std::printf("\n");

  // 3. Coloring: a conflict-free schedule for per-community updates.
  const auto coloring = GraphColoring(g);
  std::printf("\ncoloring: %d colors in %d rounds (%.1f ms)\n",
              coloring.num_colors, coloring.rounds,
              coloring.stats.elapsed_ms);
  // Verify properness on a sample.
  for (vid_t v = 0; v < g.num_vertices(); v += 977) {
    for (const vid_t u : g.neighbors(v)) {
      if (coloring.color[u] == coloring.color[v]) {
        std::printf("IMPROPER COLORING at edge (%d,%d)!\n", v, u);
        return 1;
      }
    }
  }
  std::printf("sampled edges verified conflict-free\n");

  // And the maximal independent set, while we're at it.
  const auto mis = MaximalIndependentSet(g);
  std::printf("\nMIS: %d of %d vertices (%d rounds)\n", mis.set_size,
              g.num_vertices(), mis.rounds);
  return 0;
}
