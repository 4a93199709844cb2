// Reproduction benchmark: the paper's five primitives plus the 64-lane
// batched BFS on a Graph500 Kronecker graph and a road mesh, timed end to
// end through their public gunrock:: entry points and checked against
// the serial baselines; a traced pass adds per-layer metrics.
//
//   perfbench --workload kron|road|road-1lane [--seed N] [--seconds S]
//             [--trace 0|1] [--trace-out PATH] [--commit SHA] [--tiny]
//
// Untraced pass (--trace 0): end-to-end metrics. Traced pass (--trace 1):
// per-layer metrics, spans written as Chrome trace_event JSON to
// --trace-out, and the tracing overhead against untraced rounds of the
// same run. Every metric is printed as "metric <name> <value> <unit>";
// the last line of output is one JSON object with the pass's metrics.
// --tiny shrinks the graphs for the benchmark's own test.
//
// Design rules that keep the figures steady from run to run:
//  * each primitive runs through its RunControl overload on one
//    caller-owned arena, warmed by an untimed round (the free-function
//    form allocates a private arena per call);
//  * the pool has nproc-1 lanes (1 on road-1lane), so one vCPU stays
//    free for the rest of the machine;
//  * timed calls run in interleaved rounds (bfs, sssp, bc, cc, pr,
//    msbfs, bfs, ...), so a burst of host noise lands a little on every
//    metric instead of on one metric's block;
//  * set-up is rebuilt several times and reported as the median, and
//    every per-call timing as the run's fastest call (report.hpp says
//    why).
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "baselines/serial.hpp"
#include "check.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "layers.hpp"
#include "parallel/thread_pool.hpp"
#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/bfs_batch.hpp"
#include "primitives/cc.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/sssp.hpp"
#include "report.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace gunrock;

struct Workload {
  const char* name;
  bool kron;         // Graph500 Kronecker; otherwise the road mesh
  bool one_lane;     // 1-lane pool instead of nproc-1 lanes
  std::uint64_t default_seed;
};

// The road mesh's generator seed (bench/common.hpp's roadnet).
constexpr std::uint64_t kRoadSeed = 106;

// kron: 5 BFS levels of huge frontiers — load balancing, direction
// switching, pull/SpMV and the lane-mask advance do the work.
// road-1lane: ~950 levels of small frontiers on one lane — per-level
// passes, filters and frontier bookkeeping dominate. road: the same graph
// on nproc-1 lanes, where barriers add to every level; BENCHMARK.json
// leaves it out because its figures do not repeat on a shared host.
constexpr Workload kWorkloads[] = {
    {"kron", true, false, 104},
    {"road", false, false, kRoadSeed},
    {"road-1lane", false, true, kRoadSeed},
};

constexpr int kSetupRepeats = 7;
constexpr int kMinRounds = 3;
constexpr int kLayerReps = 15;
constexpr int kSerialReps = 3;
constexpr std::size_t kMsbfsLanes = 64;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload kron|road|road-1lane [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out PATH] "
               "[--commit SHA] [--tiny]\n",
               argv0);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (!has_value) Usage(argv[0]);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      for (const auto& w : kWorkloads) {
        if (v == w.name) a.workload = &w;
      }
      if (!a.workload) Usage(argv[0]);
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage(argv[0]);
      a.seed_given = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0)) Usage(argv[0]);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") Usage(argv[0]);
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      Usage(argv[0]);
    }
  }
  if (!a.workload) Usage(argv[0]);
  if (!a.seed_given) a.seed = a.workload->default_seed;
  return a;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s = brand;
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

long LastLevelCacheKb() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long bytes = sysconf(name);
    if (bytes > 0) return bytes / 1024;
  }
  return 0;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Graph {
  graph::Csr g;
  vid_t source = 0;
};

/// Generate, weight, symmetrize and pick the max-degree source — the
/// set-up a user pays before the first query. Appends the step timings.
Graph Setup(const Args& a, par::ThreadPool& pool, Tracer& tr,
            Samples* total, Samples* generate, Samples* build) {
  Scope scope(tr, "setup");
  Graph out;
  graph::Coo coo;
  double ms = Timed(tr, "graph.generate", [&] {
    if (a.workload->kron) {
      graph::RmatParams p;  // Graph500 parameters, as bench/common.hpp
      p.scale = a.tiny ? 10 : 16;
      p.edge_factor = 16;
      p.a = 0.57;
      p.b = 0.19;
      p.c = 0.19;
      p.seed = a.seed;
      coo = GenerateRmat(p, pool);
    } else {
      // One fixed mesh, like the paper's fixed roadNet-CA dataset: on a
      // mesh the source's position sets the level count (700-1000 over
      // ten seeds) and with it the direction switches, which would make
      // the seed, not the code, decide the BFS/BC times. The seed still
      // draws the edge weights below.
      graph::RoadParams p;
      p.width = p.height = a.tiny ? 32 : 512;
      p.seed = kRoadSeed;
      coo = GenerateRoad(p, pool);
    }
  });
  generate->Add(ms);
  ms += Timed(tr, "graph.attach_weights", [&] {
    graph::AttachRandomWeights(coo, 1, 64, a.seed);
  });
  const double build_ms = Timed(tr, "graph.build_csr", [&] {
    graph::BuildOptions opts;
    opts.symmetrize = true;
    out.g = graph::BuildCsr(coo, opts, pool);
  });
  build->Add(build_ms);
  ms += build_ms;
  ms += Timed(tr, "graph.max_degree_source", [&] {
    for (vid_t v = 1; v < out.g.num_vertices(); ++v) {
      if (out.g.degree(v) > out.g.degree(out.source)) out.source = v;
    }
  });
  total->Add(ms);
  return out;
}

/// The `count` vertices nearest the source in BFS order (depth, then id):
/// a batch of queries from one neighbourhood, whose lanes share most of
/// their traversal.
std::vector<vid_t> MsbfsSources(const std::vector<std::int32_t>& depth,
                                std::size_t count) {
  std::vector<vid_t> reachable;
  for (std::size_t v = 0; v < depth.size(); ++v) {
    if (depth[v] >= 0) reachable.push_back(static_cast<vid_t>(v));
  }
  count = std::min(count, reachable.size());
  std::partial_sort(reachable.begin(),
                    reachable.begin() + static_cast<std::ptrdiff_t>(count),
                    reachable.end(), [&](vid_t a, vid_t b) {
                      const auto da = depth[static_cast<std::size_t>(a)];
                      const auto db = depth[static_cast<std::size_t>(b)];
                      return da != db ? da < db : a < b;
                    });
  reachable.resize(count);
  return reachable;
}

enum Prim { kBfs, kSssp, kBc, kCc, kPr, kMsbfs, kNumPrims };
constexpr const char* kPrimNames[kNumPrims] = {"bfs", "sssp", "bc",
                                               "cc",  "pr",   "msbfs"};

enum class Mode { kWarm, kTimed, kTraced };

/// Runs interleaved rounds of every primitive on one warm arena, checks
/// each output after its timer stops, and keeps per-call timings apart
/// for untraced (index 0) and traced (index 1) rounds.
class Runner {
 public:
  Runner(const graph::Csr& g, vid_t source, par::ThreadPool& pool,
         const Reference& ref, Tracer& tr)
      : g_(g), source_(source), ref_(ref), tr_(tr) {
    ctl_.workspace = &ws_;
    bfs_.pool = sssp_.pool = bc_.pool = cc_.pool = pr_.pool = ms_.pool =
        &pool;
    bfs_.direction = core::Direction::kOptimizing;  // table3's gunrock row
    sssp_.compute_preds = false;
    pr_.tolerance = 0.0;
    pr_.max_iterations = kPrIterations;
    pr_.pull = true;
    ms_.direction = core::Direction::kOptimizing;
  }

  void Round(Mode mode) {
    const bool traced = mode == Mode::kTraced;
    bfs_.collect_records = sssp_.collect_records = traced;
    Scope round(traced ? tr_ : off_, "round");
    Call(kBfs, mode, [&] { return Bfs(g_, source_, bfs_, ctl_); },
         [&](const BfsResult& r) {
           return CheckBfs(g_, source_, r, ref_.bfs) ? 0 : 1;
         });
    Call(kSssp, mode, [&] { return Sssp(g_, source_, sssp_, ctl_); },
         [&](const SsspResult& r) { return CheckSssp(r, ref_.sssp) ? 0 : 1; });
    Call(kBc, mode, [&] { return Bc(g_, source_, bc_, ctl_); },
         [&](const BcResult& r) { return CheckBc(r, ref_.bc) ? 0 : 1; });
    Call(kCc, mode, [&] { return Cc(g_, cc_, ctl_); },
         [&](const CcResult& r) { return CheckCc(r, ref_.cc) ? 0 : 1; });
    Call(kPr, mode, [&] { return Pagerank(g_, pr_, ctl_); },
         [&](const PagerankResult& r) { return CheckPr(r, ref_.pr) ? 0 : 1; });
    Call(kMsbfs, mode,
         [&] { return BfsBatch(g_, ref_.lane_sources, ms_, ctl_); },
         [&](const BfsBatchResult& r) { return MsbfsLaneFailures(r, ref_); },
         static_cast<long>(ref_.lane_sources.size()));
  }

  Samples ms[2][kNumPrims];
  long attempted = 0;
  long failed = 0;
  int iterations[kNumPrims] = {};
  eid_t edges_visited[kNumPrims] = {};
  int pull_iterations = 0;

 private:
  template <typename Run, typename Check>
  void Call(Prim p, Mode mode, Run&& run, Check&& check, long outputs = 1) {
    const bool traced = mode == Mode::kTraced;
    Tracer& tr = traced ? tr_ : off_;
    decltype(run()) r;
    const double ms_taken = Timed(tr, kPrimNames[p], [&] { r = run(); });
    if (mode == Mode::kWarm) return;
    attempted += outputs;
    failed += check(r);
    ms[traced][p].Add(ms_taken);
    iterations[p] = r.stats.iterations;
    edges_visited[p] = r.stats.edges_visited;
    // Per-iteration records repeat exactly from call to call, so only
    // the first traced call of a primitive adds them to the trace.
    if (traced && !r.stats.records.empty()) {
      int pulls = 0;
      for (const auto& rec : r.stats.records) {
        pulls += rec.op == "advance-pull";
        if (records_traced_[p]) continue;
        char args[256];
        std::snprintf(args, sizeof(args),
                      "\"iteration\": %d, \"input\": %zu, \"output\": %zu, "
                      "\"edges\": %lld",
                      rec.iteration, rec.input_size, rec.output_size,
                      static_cast<long long>(rec.edges));
        tr.Instant(rec.op, args);
      }
      records_traced_[p] = true;
      if (p == kBfs) pull_iterations = pulls;
    }
  }

  const graph::Csr& g_;
  vid_t source_;
  const Reference& ref_;
  Tracer& tr_;
  Tracer off_{false};
  core::Workspace ws_;
  RunControl ctl_;
  BfsOptions bfs_;
  SsspOptions sssp_;
  BcOptions bc_;
  CcOptions cc_;
  PagerankOptions pr_;
  BfsBatchOptions ms_;
  bool records_traced_[kNumPrims] = {};
};

/// Serial references for validation. In the traced pass each baseline is
/// timed kSerialReps times (the baselines.* metrics).
Reference BuildReference(const Graph& gr, Tracer& tr, Samples serial_ms[5],
                         int reps) {
  Scope scope(tr, "baselines");
  const auto& g = gr.g;
  Reference ref;
  for (int r = 0; r < reps; ++r) {
    serial_ms[0].Add(Timed(tr, "baselines.serial_bfs",
                           [&] { ref.bfs = serial::Bfs(g, gr.source); }));
    serial_ms[1].Add(Timed(tr, "baselines.serial_sssp", [&] {
      ref.sssp = serial::Dijkstra(g, gr.source);
    }));
    serial_ms[2].Add(Timed(tr, "baselines.serial_bc", [&] {
      ref.bc.assign(static_cast<std::size_t>(g.num_vertices()), 0.0);
      serial::BrandesAccumulate(g, gr.source, &ref.bc);
    }));
    serial_ms[3].Add(Timed(tr, "baselines.serial_cc", [&] {
      ref.cc = serial::ConnectedComponents(g);
    }));
    serial_ms[4].Add(Timed(tr, "baselines.serial_pr", [&] {
      ref.pr = serial::Pagerank(g, kDamping, 0.0, kPrIterations);
    }));
  }
  ref.component_arcs = ComponentArcs(g, ref.bfs.depth);
  ref.lane_sources = MsbfsSources(ref.bfs.depth, kMsbfsLanes);
  for (const vid_t s : ref.lane_sources) {
    ref.lanes.push_back(serial::Bfs(g, s).depth);
  }
  return ref;
}

int Run(const Args& a) {
  const Workload& w = *a.workload;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned lanes = w.one_lane ? 1u : std::max(1u, hw - 1);
  par::ThreadPool pool(lanes);
  Tracer tr(a.trace);
  Report rep;

  std::printf("envelope workload %s\nenvelope seed %llu\n", w.name,
              static_cast<unsigned long long>(a.seed));
  std::printf("envelope pass %s\n", a.trace ? "traced" : "untraced");
  std::printf("envelope cpu_model %s\nenvelope nproc %u\n",
              CpuModel().c_str(), hw);
  std::printf("envelope llc_kb %ld\nenvelope pool_lanes %u\n",
              LastLevelCacheKb(), pool.num_threads());
  std::printf("envelope compiler %s\nenvelope build_type %s\n", __VERSION__,
              PERFBENCH_BUILD_TYPE);
  std::printf("envelope commit %s\n", a.commit.c_str());

  Samples setup_s, generate_ms, build_ms;
  Graph gr;
  for (int i = 0; i < kSetupRepeats; ++i) {
    gr = Setup(a, pool, tr, &setup_s, &generate_ms, &build_ms);
  }
  const auto& g = gr.g;
  std::printf("envelope vertices %d\nenvelope edges %lld\n",
              g.num_vertices(), static_cast<long long>(g.num_edges()));

  Samples serial_ms[5];
  const Reference ref =
      BuildReference(gr, tr, serial_ms, a.trace ? kSerialReps : 1);
  std::printf("envelope source %d\nenvelope bfs_levels %d\n", gr.source,
              *std::max_element(ref.bfs.depth.begin(), ref.bfs.depth.end()) +
                  1);
  std::printf("envelope component_edges %lld\n",
              static_cast<long long>(ref.component_arcs / 2));

  if (a.trace) MeasureLayers(g, pool, tr, kLayerReps, rep);

  Runner runner(g, gr.source, pool, ref, tr);
  runner.Round(Mode::kWarm);
  const auto start = std::chrono::steady_clock::now();
  int rounds = 0;
  for (;; ++rounds) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (rounds >= kMinRounds && elapsed.count() >= a.seconds) break;
    // The traced pass alternates untraced and traced rounds so that the
    // tracing overhead is measured under the same conditions.
    runner.Round(a.trace && rounds % 2 ? Mode::kTraced : Mode::kTimed);
  }
  std::printf("envelope rounds %d\n", rounds);

  const double undirected_edges =
      static_cast<double>(ref.component_arcs) / 2.0;
  if (!a.trace) {
    rep.AddTiming("setup_s", setup_s, "s", 1e-3, /*median=*/true);
    rep.AddTiming("bfs_ms", runner.ms[0][kBfs], "ms");
    rep.Add("bfs_mteps",
            undirected_edges /
                (runner.ms[0][kBfs].Min() * 1e3),
            "MTEPS");
    for (const Prim p : {kSssp, kBc, kCc, kPr, kMsbfs}) {
      rep.AddTiming(std::string(kPrimNames[p]) + "_ms", runner.ms[0][p],
                    "ms");
    }
    rep.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    rep.AddTiming("graph.generate_ms", generate_ms, "ms", 1.0, true);
    rep.AddTiming("graph.build_csr_ms", build_ms, "ms", 1.0, true);
    const double csr_bytes =
        static_cast<double>(g.row_offsets().size() * sizeof(eid_t) +
                            g.col_indices().size() * sizeof(vid_t) +
                            g.weights().size() * sizeof(weight_t));
    rep.Add("graph.csr_mb", csr_bytes / (1024.0 * 1024.0), "MB");
    for (int p = 0; p < kNumPrims; ++p) {
      const std::string name = kPrimNames[p];
      const Samples& s = runner.ms[1][p];
      // BFS-like runs touch the source's component; CC and PR sweep the
      // whole graph.
      const double input_arcs = static_cast<double>(
          p == kCc || p == kPr ? g.num_edges() : ref.component_arcs);
      rep.Add(name + ".iterations", runner.iterations[p], "count");
      rep.Add(name + ".edges_visited",
              static_cast<double>(runner.edges_visited[p]), "count");
      rep.Add(name + ".work_ratio",
              static_cast<double>(runner.edges_visited[p]) / input_arcs,
              "ratio");
      rep.Add(name + ".per_iter_us",
              s.Min() * 1e3 /
                  std::max(1, runner.iterations[p]),
              "us");
      rep.Add(name + ".p90_ms", s.Quantile(0.9), "ms");
    }
    rep.Add("bfs.pull_iterations", runner.pull_iterations, "count");
    constexpr const char* kSerial[5] = {"bfs", "sssp", "bc", "cc", "pr"};
    for (int i = 0; i < 5; ++i) {
      rep.AddTiming(std::string("baselines.serial_") + kSerial[i] + "_ms",
                    serial_ms[i], "ms");
    }
    double traced = 0, untraced = 0;
    for (const auto& per_prim : runner.ms[1]) {
      traced += per_prim.Min();
    }
    for (const auto& per_prim : runner.ms[0]) {
      untraced += per_prim.Min();
    }
    rep.Add("trace.overhead_ratio", traced / untraced, "ratio");
    if (!a.trace_out.empty()) {
      if (!tr.WriteChromeJson(a.trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
        return 1;
      }
      std::printf("trace %s (%zu events)\n", a.trace_out.c_str(), tr.size());
    }
  }
  std::printf("fail_frac %.6f (%ld of %ld outputs failed validation)\n",
              runner.attempted ? static_cast<double>(runner.failed) /
                                     static_cast<double>(runner.attempted)
                               : 0.0,
              runner.failed, runner.attempted);
  rep.PrintResultLine(runner.attempted, runner.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::ParseArgs(argc, argv);
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
