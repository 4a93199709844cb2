// Connected components vs union-find: label agreement, component counts,
// and partition-equivalence on assorted topologies.
#include <gtest/gtest.h>

#include <numeric>

#include "common/env.hpp"
#include "common/oracle.hpp"
#include "common/topologies.hpp"
#include "gunrock.hpp"
#include "util/rng.hpp"

namespace gunrock {
namespace {

using test::TopologyCase;
using test::Undirected;

const std::vector<TopologyCase>& Cases() {
  static const auto* cases = [] {
    // All-isolated vertices: no edges at all.
    graph::Coo isolated;
    isolated.num_vertices = 64;
    // A path through shuffled ids: a tree has no spare edge, so a hook
    // that lost its CAS and were dropped would split the component, and
    // the scattered ids make concurrent hooks meet on shared roots.
    constexpr vid_t kShuffledPath = 4096;
    std::vector<vid_t> ids(kShuffledPath);
    std::iota(ids.begin(), ids.end(), vid_t{0});
    CounterRng rng(test::TestSeed());
    for (vid_t i = kShuffledPath - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng.NextBounded(i + 1)]);
    }
    graph::Coo shuffled_path;
    shuffled_path.num_vertices = kShuffledPath;
    for (vid_t i = 1; i < kShuffledPath; ++i) {
      shuffled_path.PushEdge(ids[i - 1], ids[i]);
    }
    return new std::vector<TopologyCase>(
        test::CorpusBuilder()
            .Karate()
            .Path(500)
            .Cycle(321)
            .Star(100)
            .Disconnected(8, 128)
            .Rmat(13, 4)  // sparse: many small components + one giant
            .Rgg(12)
            .Custom("isolated", std::move(isolated))
            .Custom("shuffled-path", std::move(shuffled_path))
            .Build());
  }();
  return *cases;
}

class CcParamTest : public ::testing::TestWithParam<std::size_t> {};

std::string CcName(
    const ::testing::TestParamInfo<std::size_t>& info) {
  return test::SafeTestName(Cases()[info.param].name);
}

// The global pool, plus oversubscribed 4- and 16-lane pools so the root
// hooks race (and so exercise the lost-CAS retry rounds) even on a
// 1-core runner.
std::vector<par::ThreadPool*> Pools() {
  static par::ThreadPool four_lanes(4);
  static par::ThreadPool sixteen_lanes(16);
  return {nullptr, &four_lanes, &sixteen_lanes};
}

TEST_P(CcParamTest, MatchesUnionFind) {
  const auto& g = Cases()[GetParam()].graph;
  const auto expected = serial::ConnectedComponents(g);
  for (par::ThreadPool* pool : Pools()) {
    CcOptions opts;
    opts.pool = pool;
    const auto got = Cc(g, opts);

    EXPECT_EQ(got.num_components, expected.num_components);
    // Both label components by their minimum vertex id, so labels must
    // match exactly, not just up to renaming.
    test::ExpectSameLabels(expected.component, got.component);
  }
}

TEST_P(CcParamTest, LabelsAreRootsAndMinimal) {
  const auto& g = Cases()[GetParam()].graph;
  for (par::ThreadPool* pool : Pools()) {
    CcOptions opts;
    opts.pool = pool;
    const auto got = Cc(g, opts);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      const vid_t label = got.component[v];
      EXPECT_LE(label, v);                          // min-id labeling
      EXPECT_EQ(got.component[label], label);       // label is a root
    }
    // Neighbors share a component.
    for (vid_t u = 0; u < g.num_vertices(); ++u) {
      for (const vid_t v : g.neighbors(u)) {
        EXPECT_EQ(got.component[u], got.component[v]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, CcParamTest,
                         ::testing::Range<std::size_t>(0, 9), CcName);

TEST(CcTest, EmptyGraph) {
  graph::Coo coo;
  coo.num_vertices = 0;
  const auto g = graph::BuildCsr(coo);
  const auto got = Cc(g);
  EXPECT_EQ(got.num_components, 0);
}

TEST(CcTest, TwoTriangles) {
  graph::Coo coo;
  coo.num_vertices = 6;
  coo.PushEdge(0, 1);
  coo.PushEdge(1, 2);
  coo.PushEdge(2, 0);
  coo.PushEdge(3, 4);
  coo.PushEdge(4, 5);
  coo.PushEdge(5, 3);
  const auto got = Cc(Undirected(std::move(coo)));
  EXPECT_EQ(got.num_components, 2);
  EXPECT_EQ(got.component[0], 0);
  EXPECT_EQ(got.component[1], 0);
  EXPECT_EQ(got.component[2], 0);
  EXPECT_EQ(got.component[3], 3);
  EXPECT_EQ(got.component[4], 3);
  EXPECT_EQ(got.component[5], 3);
}

TEST(CcTest, LongChainStressesPointerJumping) {
  // A path is the worst case for hooking (depth ~ n without path halving).
  const auto g = Undirected(graph::MakePath(10000));
  const auto got = Cc(g);
  EXPECT_EQ(got.num_components, 1);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(got.component[v], 0);
  }
  // Rounds must stay logarithmic-ish, far below n.
  EXPECT_LT(got.stats.iterations, 64);

  // Without a second lane no root CAS can lose, so one hooking round
  // visits each u <= v arc exactly once and retries none.
  eid_t arcs = 0;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    for (const vid_t v : g.neighbors(u)) arcs += u <= v ? 1 : 0;
  }
  par::ThreadPool one_lane(1);
  CcOptions opts;
  opts.pool = &one_lane;
  const auto serial = Cc(g, opts);
  EXPECT_EQ(serial.component, got.component);
  EXPECT_EQ(serial.stats.iterations, 1);
  EXPECT_EQ(serial.stats.edges_visited, arcs);
}

}  // namespace
}  // namespace gunrock
