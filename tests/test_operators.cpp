// Core operator tests: advance (all strategies, push and pull, V2V and
// V2E, scalar and lane-mask) against a reference expansion, filter
// semantics, near/far split, the direction controller's state machine,
// and the SIMT lane model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "core/advance.hpp"
#include "core/advance_ms.hpp"
#include "core/direction.hpp"
#include "parallel/atomics.hpp"
#include "core/filter.hpp"
#include "core/frontier.hpp"
#include "core/priority_queue.hpp"
#include "core/simt_model.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace gunrock::core {
namespace {

par::ThreadPool& Pool() { return par::ThreadPool::Global(); }

graph::Csr Undirected(graph::Coo coo) {
  graph::BuildOptions opts;
  opts.symmetrize = true;
  return graph::BuildCsr(coo, opts);
}

/// Pass-through functor: every edge passes, no computation.
struct EmitAllFunctor {
  struct P {};
  static bool CondEdge(vid_t, vid_t, eid_t, P&) { return true; }
  static void ApplyEdge(vid_t, vid_t, eid_t, P&) {}
};

/// Parity functor: emit only even destinations; count applications.
struct EvenDstFunctor {
  struct P {
    std::int64_t applies = 0;
  };
  static bool CondEdge(vid_t, vid_t d, eid_t, P&) { return d % 2 == 0; }
  static void ApplyEdge(vid_t, vid_t, eid_t, P& p) {
    par::AtomicAdd(&p.applies, std::int64_t{1});
  }
};

std::multiset<vid_t> ReferenceExpansion(const graph::Csr& g,
                                        std::span<const vid_t> frontier,
                                        bool even_only) {
  std::multiset<vid_t> out;
  for (const vid_t u : frontier) {
    for (const vid_t v : g.neighbors(u)) {
      if (!even_only || v % 2 == 0) out.insert(v);
    }
  }
  return out;
}

class AdvanceStrategyTest
    : public ::testing::TestWithParam<LoadBalance> {};

TEST_P(AdvanceStrategyTest, ExpandsExactlyTheNeighborMultiset) {
  graph::RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  const auto g = Undirected(GenerateRmat(p, Pool()));
  std::vector<vid_t> frontier;
  for (vid_t v = 0; v < g.num_vertices(); v += 3) frontier.push_back(v);

  AdvanceConfig cfg;
  cfg.lb = GetParam();
  EmitAllFunctor::P prob;
  std::vector<vid_t> out;
  const auto res = AdvancePush<EmitAllFunctor>(Pool(), g, frontier, &out,
                                               prob, cfg);

  eid_t expected_edges = 0;
  for (const vid_t u : frontier) expected_edges += g.degree(u);
  EXPECT_EQ(res.edges_visited, expected_edges);
  EXPECT_EQ(res.output_size, out.size());

  const auto expected = ReferenceExpansion(g, frontier, false);
  std::multiset<vid_t> got(out.begin(), out.end());
  EXPECT_EQ(got, expected);
}

TEST_P(AdvanceStrategyTest, CondFiltersAndApplyRunsOncePerPass) {
  const auto g = Undirected(graph::MakeKarate());
  std::vector<vid_t> frontier = {0, 33, 5};
  AdvanceConfig cfg;
  cfg.lb = GetParam();
  EvenDstFunctor::P prob;
  std::vector<vid_t> out;
  AdvancePush<EvenDstFunctor>(Pool(), g, frontier, &out, prob, cfg);

  const auto expected = ReferenceExpansion(g, frontier, true);
  std::multiset<vid_t> got(out.begin(), out.end());
  EXPECT_EQ(got, expected);
  // ApplyEdge fired exactly once per passing edge.
  EXPECT_EQ(prob.applies, static_cast<std::int64_t>(expected.size()));
}

TEST_P(AdvanceStrategyTest, VisitOnlyAdvanceProducesNoOutput) {
  const auto g = Undirected(graph::MakeStar(100));
  std::vector<vid_t> frontier = {0};
  AdvanceConfig cfg;
  cfg.lb = GetParam();
  EvenDstFunctor::P prob;
  const auto res = AdvancePush<EvenDstFunctor>(
      Pool(), g, frontier, static_cast<std::vector<vid_t>*>(nullptr), prob,
      cfg);
  EXPECT_EQ(res.edges_visited, 99);
  EXPECT_GT(prob.applies, 0);
}

TEST_P(AdvanceStrategyTest, EdgeOutputAdvanceEmitsEdgeIds) {
  const auto g = Undirected(graph::MakeKarate());
  std::vector<vid_t> frontier = {0, 2};
  AdvanceConfig cfg;
  cfg.lb = GetParam();
  EmitAllFunctor::P prob;
  std::vector<eid_t> out;
  AdvancePush<EmitAllFunctor, EmitAllFunctor::P, eid_t>(
      Pool(), g, frontier, &out, prob, cfg);
  // Every emitted edge id must lie in a frontier vertex's row.
  std::multiset<eid_t> expected;
  for (const vid_t u : frontier) {
    for (eid_t e = g.row_begin(u); e < g.row_end(u); ++e) {
      expected.insert(e);
    }
  }
  EXPECT_EQ(std::multiset<eid_t>(out.begin(), out.end()), expected);
}

TEST_P(AdvanceStrategyTest, EmptyAndZeroDegreeFrontiers) {
  graph::Coo coo;
  coo.num_vertices = 8;
  coo.PushEdge(0, 1);
  const auto g = Undirected(std::move(coo));
  AdvanceConfig cfg;
  cfg.lb = GetParam();
  EmitAllFunctor::P prob;
  std::vector<vid_t> out;
  // Empty frontier.
  const auto r0 = AdvancePush<EmitAllFunctor>(
      Pool(), g, std::vector<vid_t>{}, &out, prob, cfg);
  EXPECT_EQ(r0.edges_visited, 0);
  EXPECT_TRUE(out.empty());
  // Frontier of isolated vertices.
  const auto r1 = AdvancePush<EmitAllFunctor>(
      Pool(), g, std::vector<vid_t>{4, 5, 6}, &out, prob, cfg);
  EXPECT_EQ(r1.edges_visited, 0);
  EXPECT_TRUE(out.empty());
}

/// Lane functor: every lane propagates except the destination's own
/// lane (v % 64), so edges between same-lane vertices propagate nothing.
struct AllButOwnLaneFunctor {
  struct P {};
  static std::uint64_t CondEdge(vid_t, vid_t v, eid_t, std::uint64_t lanes,
                                P&) {
    return lanes & ~(std::uint64_t{1} << (v % 64));
  }
};

template <bool kEmitOnce>
void CheckLaneMaskPush(LoadBalance lb) {
  SCOPED_TRACE(kEmitOnce ? "kEmitOnce" : "emit per edge");
  graph::RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  const auto g = Undirected(GenerateRmat(p, Pool()));
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<vid_t> frontier;
  for (vid_t v = 0; v < g.num_vertices(); v += 3) frontier.push_back(v);
  par::LaneMaskFrontier cur, next;
  cur.Resize(n);
  next.Resize(n);
  for (const vid_t v : frontier) {
    cur.OrBits(static_cast<std::size_t>(v), std::uint64_t{1} << (v % 64));
  }

  AdvanceConfig cfg;
  cfg.lb = lb;
  AllButOwnLaneFunctor::P prob;
  std::vector<vid_t> out;
  const auto res = AdvancePushMs<AllButOwnLaneFunctor,
                                 AllButOwnLaneFunctor::P, kEmitOnce>(
      Pool(), g, frontier, cur, next, &out, prob, cfg);

  std::vector<std::uint64_t> want_mask(n, 0);
  std::map<vid_t, std::size_t> want_emits;  // propagating edges per vertex
  eid_t want_edges = 0;
  for (const vid_t u : frontier) {
    want_edges += g.degree(u);
    for (const vid_t v : g.neighbors(u)) {
      const std::uint64_t prop = AllButOwnLaneFunctor::CondEdge(
          u, v, 0, std::uint64_t{1} << (u % 64), prob);
      if (prop == 0) continue;
      want_mask[static_cast<std::size_t>(v)] |= prop;
      ++want_emits[v];
    }
  }
  if (kEmitOnce) {
    for (auto& [v, count] : want_emits) count = 1;
  }
  EXPECT_EQ(res.edges_visited, want_edges);
  EXPECT_EQ(res.output_size, out.size());
  for (std::size_t v = 0; v < n; ++v) {
    ASSERT_EQ(next.Load(v), want_mask[v]) << "vertex " << v;
  }
  std::map<vid_t, std::size_t> got_emits;
  for (const vid_t v : out) ++got_emits[v];
  EXPECT_EQ(got_emits, want_emits);
}

TEST_P(AdvanceStrategyTest, LaneMaskPushMatchesReference) {
  CheckLaneMaskPush<true>(GetParam());
  CheckLaneMaskPush<false>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Strategies, AdvanceStrategyTest,
                         ::testing::Values(LoadBalance::kThreadMapped,
                                           LoadBalance::kTwc,
                                           LoadBalance::kEqualWork),
                         [](const auto& info) {
                           std::string s = ToString(info.param);
                           std::replace(s.begin(), s.end(), '-', '_');
                           return s;
                         });

TEST(AdvancePullTest, ProbesCandidatesAgainstBitmap) {
  const auto g = Undirected(graph::MakePath(10));
  par::Bitmap frontier_bits(10);
  frontier_bits.Set(4);  // frontier = {4}
  std::vector<vid_t> candidates = {2, 3, 5, 6};  // unvisited
  EmitAllFunctor::P prob;
  std::vector<vid_t> out;
  AdvancePull<EmitAllFunctor>(Pool(), g, frontier_bits, candidates, &out,
                              prob, {});
  // Only 3 and 5 touch the frontier vertex 4.
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<vid_t>{3, 5}));
}

TEST(AdvancePullTest, EarlyBreakVisitsAtMostDegreeEdges) {
  const auto g = Undirected(graph::MakeComplete(64));
  par::Bitmap bits(64);
  for (vid_t v = 0; v < 32; ++v) bits.Set(static_cast<std::size_t>(v));
  std::vector<vid_t> candidates;
  for (vid_t v = 32; v < 64; ++v) candidates.push_back(v);
  EmitAllFunctor::P prob;
  std::vector<vid_t> out;
  const auto res = AdvancePull<EmitAllFunctor>(Pool(), g, bits, candidates,
                                               &out, prob, {});
  EXPECT_EQ(out.size(), 32u);  // every candidate has a frontier parent
  // With early break, each candidate stops at its first frontier parent —
  // far fewer probes than the full 32*63 edge scan.
  EXPECT_LT(res.edges_visited, 32 * 63 / 2);
}

struct ClaimFilterFunctor {
  struct P {
    par::Bitmap* seen;
    std::int64_t applied = 0;
  };
  static bool CondVertex(vid_t v, P& p) {
    return p.seen->TestAndSet(static_cast<std::size_t>(v));
  }
  static void ApplyVertex(vid_t, P& p) {
    par::AtomicAdd(&p.applied, std::int64_t{1});
  }
};

TEST(FilterTest, ClaimFilterDedupsExactly) {
  par::Bitmap seen(100);
  ClaimFilterFunctor::P prob{&seen, 0};
  std::vector<vid_t> input;
  for (int rep = 0; rep < 5; ++rep) {
    for (vid_t v = 0; v < 100; v += 2) input.push_back(v);
  }
  input.push_back(kInvalidVid);  // always dropped
  std::vector<vid_t> out;
  const auto res =
      FilterVertex<ClaimFilterFunctor>(Pool(), input, &out, prob);
  EXPECT_EQ(res.input_size, input.size());
  EXPECT_EQ(out.size(), 50u);
  EXPECT_EQ(prob.applied, 50);  // ApplyVertex only on kept items
  std::set<vid_t> unique(out.begin(), out.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(FilterTest, HistoryHashPrunesDuplicatesHeuristically) {
  struct PassAll {
    struct P {};
    static bool CondVertex(vid_t, P&) { return true; }
    static void ApplyVertex(vid_t, P&) {}
  };
  PassAll::P prob;
  // Many duplicates of few values: history hash must catch most.
  std::vector<vid_t> input;
  for (int rep = 0; rep < 1000; ++rep) {
    for (vid_t v = 0; v < 8; ++v) input.push_back(v);
  }
  FilterConfig cfg;
  cfg.history_hash = true;
  cfg.grain = 2048;  // dedup is per-chunk; pin the chunking
  std::vector<vid_t> out;
  FilterVertex<PassAll>(Pool(), input, &out, prob, cfg);
  // Heuristic, not exact: each chunk keeps ~8 of its 2048 items, and all
  // distinct values survive somewhere.
  EXPECT_LT(out.size(), input.size() / 10);
  std::set<vid_t> unique(out.begin(), out.end());
  EXPECT_EQ(unique.size(), 8u);
}

TEST(FilterTest, EdgeFilterSeesEndpoints) {
  struct KeepCross {
    struct P {
      const vid_t* comp;
    };
    static bool CondEdge(vid_t s, vid_t d, eid_t, P& p) {
      return p.comp[s] != p.comp[d];
    }
    static void ApplyEdge(vid_t, vid_t, eid_t, P&) {}
  };
  const auto g = Undirected(graph::MakePath(6));
  const auto srcs = g.edge_sources(Pool());
  const vid_t comp[] = {0, 0, 0, 1, 1, 1};
  KeepCross::P prob{comp};
  std::vector<eid_t> input;
  for (eid_t e = 0; e < g.num_edges(); ++e) input.push_back(e);
  std::vector<eid_t> out;
  FilterEdge<KeepCross>(Pool(), srcs, g.col_indices(), input, &out, prob);
  // Only the two arcs of edge (2,3) cross the cut.
  EXPECT_EQ(out.size(), 2u);
}

TEST(PriorityQueueTest, SplitsByPredicatePreservingAll) {
  std::vector<vid_t> items;
  for (vid_t v = 0; v < 1000; ++v) items.push_back(v);
  std::vector<vid_t> near, far;
  far.push_back(9999);  // pre-existing far content is appended to
  SplitNearFar(Pool(), std::span<const vid_t>(items), near, far,
               [](vid_t v) { return v % 3 == 0; });
  EXPECT_EQ(near.size(), 334u);
  EXPECT_EQ(far.size(), 1u + 666u);
  EXPECT_EQ(far[0], 9999);
  for (const vid_t v : near) EXPECT_EQ(v % 3, 0);
}

TEST(DirectionOptimizerTest, SwitchesAtBeamerThresholds) {
  DirectionOptimizer opt(/*num_vertices=*/2400, /*alpha=*/14.0,
                         /*beta=*/24.0);
  // Small frontier relative to unexplored edges: stay push.
  EXPECT_FALSE(opt.ShouldPull(/*m_f=*/10, /*m_u=*/100000, /*n_f=*/5));
  // Frontier edges exceed m_u / alpha: switch to pull.
  EXPECT_TRUE(opt.ShouldPull(/*m_f=*/10000, /*m_u=*/100000, /*n_f=*/500));
  // Stays pulling while the frontier is large.
  EXPECT_TRUE(opt.ShouldPull(/*m_f=*/10, /*m_u=*/100000, /*n_f=*/500));
  // Frontier shrinks below n / beta: back to push.
  EXPECT_FALSE(opt.ShouldPull(/*m_f=*/10, /*m_u=*/100000, /*n_f=*/50));
}

TEST(SimtModelTest, UniformWorkIsEfficientSkewedWorkIsNot) {
  auto& pool = Pool();
  const auto uniform = [](std::size_t) { return 8; };
  EXPECT_GT(LaneEfficiencyThreadMapped(pool, 4096, uniform), 0.99);
  // One giant among tiny items per warp: efficiency collapses.
  const auto skewed = [](std::size_t i) { return i % 32 == 0 ? 1000 : 1; };
  EXPECT_LT(LaneEfficiencyThreadMapped(pool, 4096, skewed), 0.1);
  // Equal-work is immune to skew.
  EXPECT_GT(LaneEfficiencyEqualWork(1 << 20), 0.99);
  // TWC bins the giant items separately: much better than thread-mapped.
  const double twc = LaneEfficiencyTwc(pool, 4096, skewed);
  EXPECT_GT(twc, LaneEfficiencyThreadMapped(pool, 4096, skewed));
}

TEST(SimtModelTest, BoundsAreRespected) {
  auto& pool = Pool();
  for (const auto n : {0u, 1u, 31u, 32u, 33u, 1000u}) {
    const auto cost = [](std::size_t i) { return (i * 7) % 100; };
    const double tm = LaneEfficiencyThreadMapped(pool, n, cost);
    const double twc = LaneEfficiencyTwc(pool, n, cost);
    EXPECT_GE(tm, 0.0);
    EXPECT_LE(tm, 1.0);
    EXPECT_GE(twc, 0.0);
    EXPECT_LE(twc, 1.0);
  }
  EXPECT_EQ(LaneEfficiencyEqualWork(0), 1.0);
  EXPECT_EQ(LaneEfficiencyEqualWork(32), 1.0);
  EXPECT_LT(LaneEfficiencyEqualWork(33), 1.0);
}

TEST(FrontierTest, PingPongBuffersFlipAndClear) {
  VertexFrontier f(16);
  f.Assign({1, 2, 3});
  EXPECT_EQ(f.size(), 3u);
  f.next().push_back(9);
  f.Flip();
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.current()[0], 9);
  EXPECT_TRUE(f.next().empty());  // retired buffer cleared for reuse
  f.Clear();
  EXPECT_TRUE(f.empty());
}

}  // namespace
}  // namespace gunrock::core
