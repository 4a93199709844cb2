// Merge-path SpMV sweep vs the push formulation on the dense-frontier
// ranking primitives — the contrast the semiring backend exists for,
// measured end to end per topology class.
//
// Rows (envelope JSON, schema_version 1):
//   primitive "pagerank"  fixed-budget PageRank: framework "frontier"
//                         (the paper's Section 5.5 push: advance +
//                         atomicAdd, pull = false, kFrontier) vs
//                         framework "spmv" (pull: the pre-scaled
//                         merge-path sweep over in-edges). Gated on
//                         every dataset, meshes included, since kAuto
//                         picks the sweep on every topology.
//   primitive "hits"      the same contrast on HITS' scatter/gather
//                         ping-pong — informational (DESIGN.md §9).
//
// Every measurement is min-of-N (GUNROCK_BENCH_REPS floor 5): the
// contrast is algorithmic, so each side's best-observed time is the
// honest comparison. Both sides reuse warm per-side workspaces, so
// neither wins on allocation effects.
//
//   --quick / --json PATH   as every bench binary (see bench/common.hpp)
//   --min-speedup X         exit 1 unless geomean(frontier/spmv) over
//                           all pagerank rows is >= X — the CI
//                           acceptance check for the backend
//   GUNROCK_BENCH_SCALE / GUNROCK_BENCH_REPS  as usual
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace bench;

double g_min_speedup = 0.0;

/// Times fn() `reps` times and keeps the minimum (same rationale as
/// msbfs_batch: an algorithmic contrast wants each side's best).
template <typename F>
double TimeMinMs(F&& fn, int reps) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    const double ms = t.ElapsedMs();
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

struct Contrast {
  double spmv_ms = 0.0;
  double frontier_ms = 0.0;
  double speedup() const {
    return spmv_ms > 0 ? frontier_ms / spmv_ms : 0.0;
  }
};

/// Untimed warm-up doubling as a correctness cross-check: the two
/// backends must agree to rounding, or the faster time is meaningless.
void CheckScores(const std::vector<double>& a, const std::vector<double>& b,
                 const char* what) {
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (std::abs(a[v] - b[v]) > 1e-9 * (1.0 + std::abs(a[v]))) {
      std::fprintf(stderr, "spmv_backend: %s backends diverged at vertex "
                           "%zu (%.17g vs %.17g)\n",
                   what, v, a[v], b[v]);
      std::exit(1);
    }
  }
}

Contrast MeasurePagerank(const Dataset& d, int reps) {
  PagerankOptions opts;
  opts.tolerance = 0.0;  // fixed budget: both sides run every iteration
  opts.max_iterations = 10;

  core::Workspace spmv_ws, frontier_ws;
  RunControl spmv_ctl, frontier_ctl;
  spmv_ctl.workspace = &spmv_ws;
  frontier_ctl.workspace = &frontier_ws;

  PagerankOptions fopts = opts;
  fopts.backend = core::SpmvBackend::kFrontier;
  opts.pull = true;  // symmetrized datasets: the graph is its own reverse
  const auto rs = Pagerank(d.graph, opts, spmv_ctl);
  const auto rf = Pagerank(d.graph, fopts, frontier_ctl);
  CheckScores(rf.rank, rs.rank, "pagerank");

  Contrast c;
  c.spmv_ms = TimeMinMs([&] { Pagerank(d.graph, opts, spmv_ctl); }, reps);
  c.frontier_ms =
      TimeMinMs([&] { Pagerank(d.graph, fopts, frontier_ctl); }, reps);
  return c;
}

Contrast MeasureHits(const Dataset& d, int reps) {
  HitsOptions opts;
  opts.tolerance = 0.0;
  opts.max_iterations = 10;

  core::Workspace spmv_ws, frontier_ws;
  RunControl spmv_ctl, frontier_ctl;
  spmv_ctl.workspace = &spmv_ws;
  frontier_ctl.workspace = &frontier_ws;

  // Symmetrized datasets: the graph is its own reverse.
  opts.backend = core::SpmvBackend::kSpmv;
  const auto rs = Hits(d.graph, d.graph, opts, spmv_ctl);
  HitsOptions fopts = opts;
  fopts.backend = core::SpmvBackend::kFrontier;
  const auto rf = Hits(d.graph, d.graph, fopts, frontier_ctl);
  CheckScores(rf.authority, rs.authority, "hits");

  Contrast c;
  c.spmv_ms =
      TimeMinMs([&] { Hits(d.graph, d.graph, opts, spmv_ctl); }, reps);
  c.frontier_ms =
      TimeMinMs([&] { Hits(d.graph, d.graph, fopts, frontier_ctl); }, reps);
  return c;
}

void EmitRows(JsonWriter& writer, Table& table, const std::string& primitive,
              const Dataset& d, const Contrast& c) {
  table.Cell(d.name);
  table.Cell(d.type);
  table.Cell(primitive);
  table.Cell(c.spmv_ms);
  table.Cell(c.frontier_ms);
  table.Cell(c.speedup(), "%.2fx");
  table.EndRow();

  writer.BeginRecord()
      .Field("primitive", primitive)
      .Field("framework", "spmv")
      .Field("dataset", d.name)
      .Field("ms", c.spmv_ms)
      .Field("speedup", c.speedup());
  writer.BeginRecord()
      .Field("primitive", primitive)
      .Field("framework", "frontier")
      .Field("dataset", d.name)
      .Field("ms", c.frontier_ms);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --min-speedup before the shared parser (which rejects unknown
  // flags so typos can't silently run the full-size bench).
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--min-speedup" && i + 1 < argc) {
      g_min_speedup = std::atof(argv[++i]);
    } else {
      rest.push_back(argv[i]);
    }
  }
  ParseArgs(static_cast<int>(rest.size()), rest.data());

  // min-of-N needs real N: quick rows are millisecond-scale, so a floor
  // of 5 reps keeps the gated speedups out of min-of-1 noise.
  const int reps = std::max(Reps(), 5);
  const auto datasets = LoadDatasets();

  JsonWriter writer("spmv_backend");
  Table table({"dataset", "type", "primitive", "spmv-ms", "frontier-ms",
               "speedup"});
  table.PrintHeader();

  std::vector<double> gated_speedups;
  for (const auto& d : datasets) {
    const Contrast pr = MeasurePagerank(d, reps);
    EmitRows(writer, table, "pagerank", d, pr);
    gated_speedups.push_back(pr.speedup());

    const Contrast hits = MeasureHits(d, reps);
    EmitRows(writer, table, "hits", d, hits);
  }

  const double geomean = Geomean(gated_speedups);
  std::printf("\npagerank spmv-vs-frontier geomean speedup "
              "(all rows): %.2fx\n",
              geomean);
  writer.BeginRecord()
      .Field("primitive", "pagerank_spmv_geomean")
      .Field("framework", "summary")
      .Field("dataset", "all")
      .Field("speedup", geomean);
  writer.WriteIfRequested();

  if (g_min_speedup > 0 && geomean < g_min_speedup) {
    std::fprintf(stderr,
                 "spmv_backend: geomean speedup %.2fx below the required "
                 "%.2fx\n",
                 geomean, g_min_speedup);
    return 1;
  }
  return 0;
}
