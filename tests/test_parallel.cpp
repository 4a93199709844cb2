// Parallel runtime and primitives: algebraic properties checked across a
// sweep of sizes and thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "parallel/atomics.hpp"
#include "parallel/bitmap.hpp"
#include "parallel/compact.hpp"
#include "parallel/for_each.hpp"
#include "parallel/histogram.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "parallel/sorted_search.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/workspace.hpp"
#include "util/rng.hpp"

namespace gunrock::par {
namespace {

class ParallelSizeTest : public ::testing::TestWithParam<std::size_t> {};

std::vector<std::uint64_t> RandomData(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = SplitMix64(seed + i);
  return data;
}

TEST(ThreadPoolTest, AllRanksRunExactlyOnce) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.num_threads(), 8u);
  std::vector<std::atomic<int>> hits(8);
  pool.Parallel([&](unsigned rank) { hits[rank].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int i = 0; i < 200; ++i) {
    pool.Parallel([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200 * 4);
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.Parallel([&](unsigned rank) {
        if (rank == 2) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // Pool still usable afterwards.
  std::atomic<int> ok{0};
  pool.Parallel([&](unsigned) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  int x = 0;
  pool.Parallel([&](unsigned rank) {
    EXPECT_EQ(rank, 0u);
    ++x;
  });
  EXPECT_EQ(x, 1);
}

TEST(ThreadPoolTest, PropagatesWhenEveryLaneThrows) {
  ThreadPool pool(4);
  // All lanes throw; exactly one exception must surface (after all lanes
  // completed), and the pool must stay usable.
  for (int round = 0; round < 10; ++round) {
    EXPECT_THROW(pool.Parallel([&](unsigned rank) {
                   throw std::runtime_error("lane " + std::to_string(rank));
                 }),
                 std::runtime_error);
  }
  std::atomic<int> ok{0};
  pool.Parallel([&](unsigned) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPoolTest, ExceptionOnlyOnSomeLanes) {
  ThreadPool pool(8);
  // Throwing lanes must not strand the quiet ones or wedge the barrier.
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.Parallel([&](unsigned rank) {
                 ran.fetch_add(1);
                 if (rank % 2 == 1) throw std::runtime_error("odd lane");
               }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, NestedParallelIsDetected) {
  ThreadPool pool(4);
  bool threw_logic_error = false;
  try {
    pool.Parallel([&](unsigned rank) {
      if (rank == 0) {
        // A lane re-entering the same pool used to deadlock; it must now
        // be reported as misuse.
        pool.Parallel([](unsigned) {});
      }
    });
  } catch (const std::logic_error&) {
    threw_logic_error = true;
  }
  EXPECT_TRUE(threw_logic_error);
  // The pool survives the misuse report.
  std::atomic<int> ok{0};
  pool.Parallel([&](unsigned) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPoolTest, NestedParallelIsDetectedOnSingleThreadPool) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.Parallel([&](unsigned) { pool.Parallel([](unsigned) {}); }),
      std::logic_error);
  int x = 0;
  pool.Parallel([&](unsigned) { ++x; });
  EXPECT_EQ(x, 1);
}

TEST(ThreadPoolTest, SharedSubmittersSerializeConcurrentLaunches) {
  // The query engine's contract: after AcquireSharedSubmitters, many
  // external threads may call Parallel concurrently; launches serialize
  // and every pass still owns all lanes.
  ThreadPool pool(2);
  pool.AcquireSharedSubmitters();
  constexpr int kSubmitters = 4;
  constexpr int kLaunches = 200;
  std::atomic<int> total{0};
  std::atomic<int> concurrent{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kLaunches; ++i) {
        pool.Parallel([&](unsigned rank) {
          if (rank == 0) {
            // Exactly one pass may be in flight at a time.
            if (concurrent.fetch_add(1) != 0) overlapped.store(true);
            concurrent.fetch_sub(1);
          }
          total.fetch_add(1);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), kSubmitters * kLaunches * 2);
  EXPECT_FALSE(overlapped.load());
}

TEST(ThreadPoolTest, SharedSubmittersStillDetectNestedParallel) {
  ThreadPool pool(2);
  pool.AcquireSharedSubmitters();
  bool threw_logic_error = false;
  try {
    pool.Parallel([&](unsigned rank) {
      if (rank == 0) pool.Parallel([](unsigned) {});
    });
  } catch (const std::logic_error&) {
    threw_logic_error = true;
  }
  EXPECT_TRUE(threw_logic_error);
  std::atomic<int> ok{0};
  pool.Parallel([&](unsigned) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 2);
}

TEST(ThreadPoolTest, SurvivesParkedWorkersBetweenLaunches) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int i = 0; i < 50; ++i) {
    if (i % 10 == 0) {
      // Long enough for every worker to blow its spin budget and park;
      // the next launch must wake them (no lost-wakeup on the slow path).
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pool.Parallel([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50 * 4);
}

TEST(WorkspaceTest, SlotBuffersPersistAndKeepCapacity) {
  Workspace ws;
  auto& v = ws.Get<std::vector<int>>(ws::kUserFirst);
  v.assign(1000, 7);
  const int* data = v.data();
  const std::size_t cap = v.capacity();
  // Same slot, same type: identical object, same storage.
  auto& v2 = ws.Get<std::vector<int>>(ws::kUserFirst);
  EXPECT_EQ(&v, &v2);
  EXPECT_EQ(v2.data(), data);
  v2.clear();
  EXPECT_EQ(v2.capacity(), cap);  // clear keeps capacity for reuse
}

TEST(WorkspaceTest, ReferencesStableAcrossOtherSlotGrowth) {
  Workspace ws;
  auto& a = ws.Get<std::vector<int>>(ws::kUserFirst);
  a.assign(64, 1);
  const int* data = a.data();
  // Touch many later slots (forces the slot table to grow/move).
  for (unsigned s = ws::kUserFirst + 1; s < ws::kUserFirst + 40; ++s) {
    ws.Get<std::vector<double>>(s).assign(16, 2.0);
  }
  EXPECT_EQ(a.data(), data);
  EXPECT_EQ(a[0], 1);
}

TEST(WorkspaceTest, TypeChangeReplacesBuffer) {
  Workspace ws;
  ws.Get<std::vector<int>>(ws::kUserFirst).assign(8, 3);
  auto& d = ws.Get<std::vector<double>>(ws::kUserFirst);
  EXPECT_TRUE(d.empty());  // fresh buffer for the new type
  auto& i = ws.Get<std::vector<int>>(ws::kUserFirst);
  EXPECT_TRUE(i.empty());  // the int buffer was dropped, not resurrected
}

TEST(WorkspaceTest, HelpersMatchWorkspaceFreeResults) {
  ThreadPool pool(6);
  Workspace ws;
  const std::size_t n = 50000;
  auto data = RandomData(n, 42);
  for (auto& d : data) d &= 0xffff;
  // Run each helper twice with the shared arena and once without; all
  // three results must agree (reused buffers must be fully overwritten).
  for (int round = 0; round < 2; ++round) {
    std::vector<std::uint64_t> with_ws(n), without(n);
    const auto t1 = TransformExclusiveScan<std::uint64_t>(
        pool, n, with_ws, std::uint64_t{0},
        [&](std::size_t i) { return data[i]; }, &ws);
    const auto t2 = TransformExclusiveScan<std::uint64_t>(
        pool, n, without, std::uint64_t{0},
        [&](std::size_t i) { return data[i]; });
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(with_ws, without);

    std::vector<std::uint64_t> kept_ws(n), kept_plain(n);
    const auto k1 = CopyIf<std::uint64_t>(
        pool, data, kept_ws, [](std::uint64_t d) { return d % 3 == 0; },
        &ws);
    const auto k2 = CopyIf<std::uint64_t>(
        pool, data, kept_plain, [](std::uint64_t d) { return d % 3 == 0; });
    ASSERT_EQ(k1, k2);
    kept_ws.resize(k1);
    kept_plain.resize(k2);
    EXPECT_EQ(kept_ws, kept_plain);
  }
}

TEST(GenerateThreeWayTest, MatchesThreeGenerateIfPasses) {
  ThreadPool pool(6);
  Workspace ws;
  const std::size_t n = 40000;
  const auto cls = [](std::size_t i) {
    const auto h = SplitMix64(i);
    return h % 7 == 0 ? 2 : (h % 3 == 0 ? 1 : 0);
  };
  const auto xform = [](std::size_t i) {
    return static_cast<std::uint32_t>(i);
  };
  std::vector<std::uint32_t> b0(n), b1(n), b2(n);
  const auto sizes = GenerateThreeWay<std::uint32_t>(
      pool, n, {std::span(b0), std::span(b1), std::span(b2)}, cls, xform,
      &ws);
  for (int k = 0; k < 3; ++k) {
    std::vector<std::uint32_t> expect(n);
    const std::size_t kn = GenerateIf(
        pool, n, std::span(expect),
        [&](std::size_t i) { return cls(i) == k; }, xform);
    ASSERT_EQ(sizes[static_cast<std::size_t>(k)], kn) << "class " << k;
    const auto& got = k == 0 ? b0 : (k == 1 ? b1 : b2);
    for (std::size_t i = 0; i < kn; ++i) {
      ASSERT_EQ(got[i], expect[i]) << "class " << k << " index " << i;
    }
  }
}

TEST(AppendIfTest, AppendsExactlyAndPreservesPrefix) {
  ThreadPool pool(6);
  Workspace ws;
  const auto data = RandomData(10000, 9);
  std::vector<std::uint64_t> out = {111, 222};
  const std::size_t kept = AppendIf<std::uint64_t>(
      pool, data, out, [](std::uint64_t d) { return d % 5 == 0; }, &ws);
  std::vector<std::uint64_t> expected = {111, 222};
  for (const auto d : data) {
    if (d % 5 == 0) expected.push_back(d);
  }
  EXPECT_EQ(out, expected);
  EXPECT_EQ(kept + 2, out.size());
}

TEST_P(ParallelSizeTest, ParallelForCoversEveryIndexOnce) {
  const std::size_t n = GetParam();
  ThreadPool pool(6);
  std::vector<std::atomic<std::uint8_t>> hits(n);
  ParallelFor(pool, 0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelSizeTest, FixedBlocksPartitionExactly) {
  const std::size_t n = GetParam();
  ThreadPool pool(6);
  for (const std::size_t nblocks : {1ul, 3ul, 7ul, 16ul}) {
    if (nblocks > std::max<std::size_t>(n, 1)) continue;
    std::vector<std::atomic<std::uint8_t>> hits(n);
    FixedBlocks(pool, n, nblocks,
                [&](std::size_t, std::size_t lo, std::size_t hi) {
                  for (std::size_t i = lo; i < hi; ++i) {
                    hits[i].fetch_add(1);
                  }
                });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " b=" << nblocks;
    }
  }
}

TEST_P(ParallelSizeTest, ExclusiveScanMatchesSerial) {
  const std::size_t n = GetParam();
  ThreadPool pool(6);
  auto data = RandomData(n, 1);
  for (auto& d : data) d &= 0xffff;  // avoid overflow
  std::vector<std::uint64_t> got(n), expected(n);
  const auto total = ExclusiveScan<std::uint64_t>(pool, data, got);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = acc;
    acc += data[i];
  }
  EXPECT_EQ(total, acc);
  EXPECT_EQ(got, expected);
}

TEST_P(ParallelSizeTest, InclusiveScanMatchesSerialAndAliases) {
  const std::size_t n = GetParam();
  ThreadPool pool(6);
  auto data = RandomData(n, 2);
  for (auto& d : data) d &= 0xffff;
  std::vector<std::uint64_t> expected(n);
  std::partial_sum(data.begin(), data.end(), expected.begin());
  // In-place (aliased) scan.
  InclusiveScan<std::uint64_t>(pool, data, data);
  EXPECT_EQ(data, expected);
}

TEST_P(ParallelSizeTest, ReduceAndCountMatchSerial) {
  const std::size_t n = GetParam();
  ThreadPool pool(6);
  auto data = RandomData(n, 3);
  std::uint64_t expected_max = 0, expected_sum = 0;
  std::size_t expected_evens = 0;
  for (const auto d : data) {
    expected_max = std::max(expected_max, d);
    expected_sum += d & 0xff;
    expected_evens += (d % 2 == 0) ? 1 : 0;
  }
  EXPECT_EQ(ReduceMax<std::uint64_t>(pool, data, 0), expected_max);
  EXPECT_EQ(TransformReduce(
                pool, n, std::uint64_t{0},
                [](std::uint64_t a, std::uint64_t b) { return a + b; },
                [&](std::size_t i) { return data[i] & 0xff; }),
            expected_sum);
  EXPECT_EQ(CountIf<std::uint64_t>(pool, data,
                                   [](std::uint64_t d) {
                                     return d % 2 == 0;
                                   }),
            expected_evens);
}

TEST_P(ParallelSizeTest, CopyIfIsStableAndExact) {
  const std::size_t n = GetParam();
  ThreadPool pool(6);
  const auto data = RandomData(n, 4);
  std::vector<std::uint64_t> got(n), expected;
  for (const auto d : data) {
    if (d % 3 == 0) expected.push_back(d);
  }
  const std::size_t kept = CopyIf<std::uint64_t>(
      pool, data, got, [](std::uint64_t d) { return d % 3 == 0; });
  got.resize(kept);
  EXPECT_EQ(got, expected);  // order preserved
}

TEST_P(ParallelSizeTest, RadixSortKeysSorts) {
  const std::size_t n = GetParam();
  ThreadPool pool(6);
  auto data = RandomData(n, 5);
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  RadixSortKeys<std::uint64_t>(pool, data);
  EXPECT_EQ(data, expected);
}

TEST_P(ParallelSizeTest, RadixSortPairsIsStablePermutation) {
  const std::size_t n = GetParam();
  ThreadPool pool(6);
  // Few distinct keys so stability is observable through values.
  std::vector<std::uint32_t> keys(n);
  std::vector<std::uint64_t> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<std::uint32_t>(SplitMix64(1000 + i) % 7);
    vals[i] = i;
  }
  auto expected_keys = keys;
  std::vector<std::uint64_t> expected_vals(n);
  {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> pairs(n);
    for (std::size_t i = 0; i < n; ++i) pairs[i] = {keys[i], i};
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](auto& a, auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < n; ++i) {
      expected_keys[i] = pairs[i].first;
      expected_vals[i] = pairs[i].second;
    }
  }
  RadixSortPairs<std::uint32_t, std::uint64_t>(pool, keys, vals);
  EXPECT_EQ(keys, expected_keys);
  EXPECT_EQ(vals, expected_vals);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelSizeTest,
                         ::testing::Values(0, 1, 2, 17, 1000, 4096, 65537,
                                           1 << 18));

TEST(SortedSearchTest, FindsOwnersAtBoundaries) {
  ThreadPool pool(4);
  const std::vector<std::int64_t> offsets = {0, 0, 3, 3, 7, 10, 10};
  // Element positions map to the last offset <= position.
  EXPECT_EQ(FindOwner<std::int64_t>(offsets, 0), 1u);   // skips empty seg 0
  EXPECT_EQ(FindOwner<std::int64_t>(offsets, 2), 1u);
  EXPECT_EQ(FindOwner<std::int64_t>(offsets, 3), 3u);   // skips empty seg 2
  EXPECT_EQ(FindOwner<std::int64_t>(offsets, 6), 3u);
  EXPECT_EQ(FindOwner<std::int64_t>(offsets, 7), 4u);
  EXPECT_EQ(FindOwner<std::int64_t>(offsets, 9), 4u);
  const std::vector<std::int64_t> queries = {0, 2, 3, 6, 7, 9};
  std::vector<std::size_t> out(queries.size());
  SortedSearch<std::int64_t>(pool, offsets, queries, out);
  EXPECT_EQ(out, (std::vector<std::size_t>{1, 1, 3, 3, 4, 4}));
}

TEST(BitmapTest, TestAndSetClaimsExactlyOnce) {
  ThreadPool pool(8);
  Bitmap bm(100000);
  std::atomic<std::size_t> claims{0};
  ParallelFor(pool, 0, 400000, [&](std::size_t i) {
    if (bm.TestAndSet(i % 100000)) claims.fetch_add(1);
  });
  EXPECT_EQ(claims.load(), 100000u);
  EXPECT_EQ(bm.Count(pool), 100000u);
  bm.Reset(pool);
  EXPECT_EQ(bm.Count(pool), 0u);
}

TEST(EpochBitmapTest, NewEpochInvalidatesEverythingInO1) {
  EpochBitmap set(64);
  EXPECT_FALSE(set.Test(0));  // fresh map is empty without any reset
  set.NewEpoch();
  set.Set(3);
  set.Set(63);
  EXPECT_TRUE(set.Test(3));
  EXPECT_TRUE(set.Test(63));
  EXPECT_FALSE(set.Test(4));
  set.NewEpoch();  // one counter bump, no O(n) clear
  EXPECT_FALSE(set.Test(3));
  EXPECT_FALSE(set.Test(63));
  set.Set(4);
  EXPECT_TRUE(set.Test(4));
  EXPECT_FALSE(set.Test(3));
}

TEST(EpochBitmapTest, MatchesBitmapUnderConcurrentSets) {
  ThreadPool pool(8);
  const std::size_t n = 50000;
  EpochBitmap set(n);
  Bitmap reference(n);
  for (int round = 0; round < 3; ++round) {
    set.NewEpoch();
    reference.Reset(pool);
    const std::size_t stride = 3 + round;
    ParallelFor(pool, 0, n, [&](std::size_t i) {
      if (i % stride == 0) {
        set.Set(i);
        reference.Set(i);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(set.Test(i), reference.Test(i)) << i;
    }
  }
}

TEST(AtomicsTest, MinMaxAddExchangeUnderContention) {
  ThreadPool pool(8);
  std::int64_t min_v = 1 << 30;
  std::int64_t max_v = -(1 << 30);
  std::int64_t sum_v = 0;
  float fsum = 0.0f;
  ParallelFor(pool, 0, 100000, [&](std::size_t i) {
    AtomicMin(&min_v, static_cast<std::int64_t>(i));
    AtomicMax(&max_v, static_cast<std::int64_t>(i));
    AtomicAdd(&sum_v, std::int64_t{1});
    AtomicAdd(&fsum, 1.0f);
  });
  EXPECT_EQ(min_v, 0);
  EXPECT_EQ(max_v, 99999);
  EXPECT_EQ(sum_v, 100000);
  EXPECT_FLOAT_EQ(fsum, 100000.0f);
}

TEST(AtomicsTest, CasClaimsUniquely) {
  ThreadPool pool(8);
  std::int32_t slot = -1;
  std::atomic<int> winners{0};
  ParallelFor(pool, 0, 10000, [&](std::size_t) {
    if (AtomicCas(&slot, std::int32_t{-1}, std::int32_t{7})) {
      winners.fetch_add(1);
    }
  });
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(slot, 7);
}

// Every claimant of a one-way slot learns its final value: the winner
// sees `unclaimed`, every loser sees the winner's value (BC's sigma
// accumulation relies on that). 64 claimants per slot, interleaved, so
// lanes race on the same slots.
TEST(AtomicsTest, ClaimReportsTheWinnersValue) {
  ThreadPool pool(8);
  const std::size_t slots = 256;
  const std::size_t claimants = 64 * slots;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::int32_t> slot(slots, -1);
    std::vector<std::int32_t> seen(claimants);
    ParallelFor(pool, 0, claimants, [&](std::size_t i) {
      seen[i] = AtomicClaim(&slot[i % slots], std::int32_t{-1},
                            static_cast<std::int32_t>(i));
    });
    for (std::size_t i = 0; i < claimants; ++i) {
      const std::int32_t won = slot[i % slots];
      ASSERT_EQ(seen[i], static_cast<std::size_t>(won) == i ? -1 : won)
          << "claimant " << i;
    }
  }
}

TEST(HistogramTest, MatchesSerialCounts) {
  ThreadPool pool(6);
  const std::size_t n = 100000;
  std::vector<std::int64_t> bins(16), expected(16, 0);
  for (std::size_t i = 0; i < n; ++i) ++expected[SplitMix64(i) % 16];
  Histogram(pool, n, bins, [](std::size_t i) { return SplitMix64(i) % 16; });
  EXPECT_EQ(bins, expected);
}

TEST(GenerateIfTest, MaterializesIndexSets) {
  ThreadPool pool(6);
  std::vector<std::uint32_t> out(1000);
  const std::size_t kept = GenerateIf(
      pool, 1000, std::span<std::uint32_t>(out),
      [](std::size_t i) { return i % 7 == 0; },
      [](std::size_t i) { return static_cast<std::uint32_t>(i * 2); });
  ASSERT_EQ(kept, 143u);
  for (std::size_t k = 0; k < kept; ++k) {
    EXPECT_EQ(out[k], k * 14);
  }
}

}  // namespace
}  // namespace gunrock::par
