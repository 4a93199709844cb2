// Betweenness centrality vs serial Brandes, plus structural sanity
// (degree-1 leaves have zero BC, symmetry on symmetric graphs).
#include <gtest/gtest.h>

#include "common/oracle.hpp"
#include "common/topologies.hpp"
#include "gunrock.hpp"

namespace gunrock {
namespace {

using test::TopologyCase;
using test::Undirected;

const std::vector<TopologyCase>& Cases() {
  static const auto* cases = new std::vector<TopologyCase>(
      test::CorpusBuilder()
          .Karate()
          .Path(64, /*source=*/5)
          .Star(40)
          .Grid(12, 12, /*source=*/3)
          .BinaryTree(7)
          .Rmat(10, 8, /*source=*/2)
          .Build());
  return *cases;
}

class BcParamTest : public ::testing::TestWithParam<
                        std::tuple<std::size_t, core::LoadBalance>> {};

std::string BcName(const ::testing::TestParamInfo<
                   std::tuple<std::size_t, core::LoadBalance>>& info) {
  std::string name = Cases()[std::get<0>(info.param)].name;
  name += "_";
  name += ToString(std::get<1>(info.param));
  return test::SafeTestName(std::move(name));
}

// The global pool, plus an oversubscribed 4-lane pool so concurrent
// discovery claims and sigma additions race even on a 1-core runner.
std::vector<par::ThreadPool*> Pools() {
  static par::ThreadPool four_lanes(4);
  return {nullptr, &four_lanes};
}

TEST_P(BcParamTest, SingleSourceMatchesBrandes) {
  const auto& [idx, lb] = GetParam();
  const auto& c = Cases()[idx];
  const vid_t src_list[] = {c.source};
  const auto expected = serial::Brandes(c.graph, src_list);

  for (par::ThreadPool* pool : Pools()) {
    BcOptions opts;
    opts.pool = pool;
    opts.load_balance = lb;
    const auto got = Bc(c.graph, c.source, opts);
    ASSERT_EQ(got.bc.size(), expected.size());
    for (std::size_t v = 0; v < expected.size(); ++v) {
      EXPECT_NEAR(got.bc[v], expected[v], 1e-9 + 1e-9 * expected[v])
          << "vertex " << v << ", " << opts.Pool().num_threads()
          << " lanes";
    }
  }
}

TEST_P(BcParamTest, MultiSourceMatchesBrandes) {
  const auto& [idx, lb] = GetParam();
  const auto& c = Cases()[idx];
  std::vector<vid_t> sources;
  for (vid_t s = 0; s < c.graph.num_vertices(); s += 7) {
    sources.push_back(s);
  }
  const auto expected = serial::Brandes(c.graph, sources);
  for (par::ThreadPool* pool : Pools()) {
    BcOptions opts;
    opts.pool = pool;
    opts.load_balance = lb;
    const auto got = BcMultiSource(c.graph, sources, opts);
    for (std::size_t v = 0; v < expected.size(); ++v) {
      EXPECT_NEAR(got.bc[v], expected[v], 1e-8 + 1e-8 * expected[v])
          << "vertex " << v << ", " << opts.Pool().num_threads()
          << " lanes";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, BcParamTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, 6),
                       ::testing::Values(core::LoadBalance::kThreadMapped,
                                         core::LoadBalance::kTwc,
                                         core::LoadBalance::kEqualWork,
                                         core::LoadBalance::kAuto)),
    BcName);

TEST(BcTest, PathCentralityClosedForm) {
  // On a path 0-1-...-n-1 with source s, exact all-pairs BC of vertex v
  // counts pairs routed through v; with a single source s=0, vertex v>0
  // carries (n-1-v) shortest paths from 0, each contributing 1/2.
  const vid_t n = 16;
  const auto g = Undirected(graph::MakePath(n));
  const auto got = Bc(g, 0);
  for (vid_t v = 1; v < n; ++v) {
    const double expected = static_cast<double>(n - 1 - v) / 2.0;
    EXPECT_NEAR(got.bc[v], expected, 1e-12) << "vertex " << v;
  }
}

TEST(BcTest, StarHubDominates) {
  const auto g = Undirected(graph::MakeStar(32));
  std::vector<vid_t> all(32);
  for (vid_t v = 0; v < 32; ++v) all[v] = v;
  const auto got = BcMultiSource(g, all);
  for (vid_t v = 1; v < 32; ++v) {
    EXPECT_NEAR(got.bc[v], 0.0, 1e-12);
    EXPECT_GT(got.bc[0], got.bc[v]);
  }
}

TEST(BcTest, NormalizationScales) {
  const auto g = Undirected(graph::MakeKarate());
  std::vector<vid_t> all(34);
  for (vid_t v = 0; v < 34; ++v) all[v] = v;
  BcOptions norm;
  norm.normalize = true;
  const auto plain = BcMultiSource(g, all);
  const auto scaled = BcMultiSource(g, all, norm);
  const double factor = (34.0 - 1) * (34.0 - 2) / 2.0;
  for (std::size_t v = 0; v < 34; ++v) {
    EXPECT_NEAR(scaled.bc[v], plain.bc[v] / factor, 1e-12);
  }
}

TEST(BcTest, DisconnectedSourceOnlyCoversItsComponent) {
  graph::PlantedPartitionParams p;
  p.num_clusters = 2;
  p.cluster_size = 40;
  const auto g = Undirected(
      GeneratePlantedPartition(p, par::ThreadPool::Global()));
  const auto got = Bc(g, 0);
  const auto cc = serial::ConnectedComponents(g);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (cc.component[v] != cc.component[0]) {
      EXPECT_EQ(got.bc[v], 0.0) << "vertex " << v;
      EXPECT_EQ(got.depth[v], -1);
    }
  }
}

}  // namespace
}  // namespace gunrock
