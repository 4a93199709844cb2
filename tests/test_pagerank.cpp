// PageRank vs serial power iteration; distribution properties; frontier
// (Gunrock-faithful) mode approximation bounds.
#include <gtest/gtest.h>

#include <numeric>

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
          .Cycle(97)
          .Star(64)
          .Rmat(11, 8)
          // Directed graph with dangling vertices (web-like).
          .Directed(true)
          .Rmat(10, 4)
          .Build());
  return *cases;
}

class PrParamTest : public ::testing::TestWithParam<
                        std::tuple<std::size_t, core::LoadBalance>> {};

std::string PrName(const ::testing::TestParamInfo<
                   std::tuple<std::size_t, core::LoadBalance>>& info) {
  std::string name = Cases()[std::get<0>(info.param)].name;
  name += "_";
  name += ToString(std::get<1>(info.param));
  return test::SafeTestName(std::move(name));
}

TEST_P(PrParamTest, MatchesPowerIteration) {
  const auto& [idx, lb] = GetParam();
  const auto& g = Cases()[idx].graph;
  const auto expected = serial::Pagerank(g);

  PagerankOptions opts;
  opts.load_balance = lb;
  const auto got = Pagerank(g, opts);

  test::ExpectScoresNear(expected.rank, got.rank, 1e-7);
}

TEST_P(PrParamTest, RanksSumToOne) {
  const auto& [idx, lb] = GetParam();
  const auto& g = Cases()[idx].graph;
  PagerankOptions opts;
  opts.load_balance = lb;
  const auto got = Pagerank(g, opts);
  const double sum =
      std::accumulate(got.rank.begin(), got.rank.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (const double r : got.rank) EXPECT_GT(r, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, PrParamTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, 5),
                       ::testing::Values(core::LoadBalance::kThreadMapped,
                                         core::LoadBalance::kEqualWork,
                                         core::LoadBalance::kAuto)),
    PrName);

TEST(PagerankTest, CycleIsUniform) {
  const auto g = Undirected(graph::MakeCycle(50));
  const auto got = Pagerank(g);
  for (const double r : got.rank) EXPECT_NEAR(r, 1.0 / 50, 1e-10);
}

TEST(PagerankTest, StarHubOutranksLeaves) {
  const auto g = Undirected(graph::MakeStar(64));
  const auto got = Pagerank(g);
  for (std::size_t v = 1; v < 64; ++v) {
    EXPECT_GT(got.rank[0], got.rank[v]);
    EXPECT_NEAR(got.rank[v], got.rank[1], 1e-12);  // leaves identical
  }
}

TEST(PagerankTest, FrontierModeApproximatesExact) {
  graph::RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  const auto g =
      Undirected(GenerateRmat(p, par::ThreadPool::Global()));
  PagerankOptions exact;
  exact.tolerance = 1e-10;
  const auto ref = Pagerank(g, exact);

  PagerankOptions faithful;
  faithful.frontier_mode = true;
  faithful.tolerance = 1e-8;
  const auto approx = Pagerank(g, faithful);

  // The delta-style frontier shrink trades tail accuracy for work; ranks
  // must stay within a small absolute band of the exact solution.
  test::ExpectScoresNear(ref.rank, approx.rank, 1e-4);
  EXPECT_GT(approx.iterations, 0);
}

TEST(PagerankTest, PullModeMatchesPushAndSerial) {
  graph::RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  const auto g = Undirected(GenerateRmat(p, par::ThreadPool::Global()));
  const auto expected = serial::Pagerank(g);
  PagerankOptions pull;
  pull.pull = true;
  const auto got = Pagerank(g, pull);
  test::ExpectScoresNear(expected.rank, got.rank, 1e-7);
}

/// Web-like directed graph (not built symmetric), for the gather's
/// reverse-graph contract.
graph::Csr DirectedRmat() {
  graph::RmatParams p;
  p.scale = 10;
  p.edge_factor = 4;
  return graph::BuildCsr(GenerateRmat(p, par::ThreadPool::Global()));
}

TEST(PagerankTest, PullModeOnDirectedGraphWithExplicitReverse) {
  const auto g = DirectedRmat();
  const auto rg = graph::ReverseCsr(g, par::ThreadPool::Global());
  const auto expected = serial::Pagerank(g);
  PagerankOptions pull;
  pull.pull = true;
  pull.reverse = &rg;
  const auto got = Pagerank(g, pull);
  test::ExpectScoresNear(expected.rank, got.rank, 1e-7);
}

TEST(PagerankTest, GatherOnDirectedGraphWithoutReverseThrows) {
  // Gathering over out-edges would return wrong ranks silently.
  const auto g = DirectedRmat();
  ASSERT_FALSE(g.symmetric());
  PagerankOptions pull;
  pull.pull = true;
  EXPECT_THROW(Pagerank(g, pull), Error);
  PagerankOptions spmv;
  spmv.backend = core::SpmvBackend::kSpmv;
  EXPECT_THROW(Pagerank(g, spmv), Error);
}

TEST(PagerankTest, RunRequestHandsReverseToDirectedPull) {
  const auto g = DirectedRmat();
  const auto rg = graph::ReverseCsr(g, par::ThreadPool::Global());
  const auto expected = serial::Pagerank(g);
  engine::PagerankQuery q;
  q.opts.pull = true;
  const auto got = std::get<PagerankResult>(engine::RunRequest(g, q, &rg));
  test::ExpectScoresNear(expected.rank, got.rank, 1e-7);
}

TEST(PagerankTest, DanglingMassIsConserved) {
  // Directed star pointing inward: the hub has no out-edges (dangling).
  graph::Coo coo;
  coo.num_vertices = 9;
  for (vid_t v = 1; v < 9; ++v) coo.PushEdge(v, 0);
  const auto g = graph::BuildCsr(coo);
  const auto got = Pagerank(g);
  const double sum =
      std::accumulate(got.rank.begin(), got.rank.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(got.rank[0], got.rank[1]);
}

TEST(PagerankTest, RespectsMaxIterations) {
  const auto g = Undirected(graph::MakeKarate());
  PagerankOptions opts;
  opts.max_iterations = 3;
  opts.tolerance = 0;  // never converges by tolerance
  const auto got = Pagerank(g, opts);
  EXPECT_EQ(got.iterations, 3);
}

TEST(PagerankTest, TimePerIterationNormalization) {
  const auto g = Undirected(graph::MakeKarate());
  const auto got = Pagerank(g);
  EXPECT_GT(got.iterations, 0);
  EXPECT_GE(got.MsPerIteration(), 0.0);
  EXPECT_NEAR(got.MsPerIteration() * got.iterations,
              got.stats.elapsed_ms, 1e-6);
}

}  // namespace
}  // namespace gunrock
