// Unit tests for src/util: rng, thread pool, tables, cli, serialization.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <numeric>
#include <sstream>
#include <thread>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace ou = odenet::util;

TEST(Check, ThrowsWithMessage) {
  try {
    ODENET_CHECK(1 == 2, "custom context " << 42);
    FAIL() << "expected throw";
  } catch (const odenet::Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom context 42"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSeed) {
  ou::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  ou::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  ou::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  ou::Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
  EXPECT_THROW(rng.uniform(1.0, 0.0), odenet::Error);
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  ou::Rng rng(9);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_int(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 10, draws / 10 * 0.15);
  }
  EXPECT_THROW(rng.uniform_int(0), odenet::Error);
}

TEST(Rng, NormalMomentsMatch) {
  ou::Rng rng(10);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  ou::Rng rng(11);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
  EXPECT_THROW(rng.normal(0.0, -1.0), odenet::Error);
}

TEST(Rng, BernoulliFrequency) {
  ou::Rng rng(12);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  ou::Rng rng(13);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SplitProducesIndependentStream) {
  ou::Rng a(14);
  ou::Rng child = a.split();
  // Parent and child must not produce the same next values.
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(ThreadPool, ParallelForCoversRange) {
  ou::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ou::parallel_for(pool, 0, 1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ou::ThreadPool pool(2);
  int calls = 0;
  ou::parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ou::ThreadPool pool(3);
  EXPECT_THROW(ou::parallel_for(pool, 0, 100,
                                [&](std::size_t i) {
                                  if (i == 42) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // Pool must still be usable after an exception.
  std::atomic<int> count{0};
  ou::parallel_for(pool, 0, 10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ou::ThreadPool pool(1);
  std::vector<int> order;
  ou::parallel_for(pool, 0, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, DeterministicViaPerElementWrites) {
  // The library's kernels write disjoint slices and reduce sequentially;
  // that pattern must be bit-deterministic regardless of scheduling.
  ou::ThreadPool pool(4);
  auto run = [&pool] {
    std::vector<double> values(1000);
    ou::parallel_for(pool, 0, 1000, [&](std::size_t i) {
      values[i] = 1.0 / static_cast<double>(i + 1);
    });
    double acc = 0;
    for (double v : values) acc += v;
    return acc;
  };
  EXPECT_EQ(run(), run());
}

TEST(ThreadPool, CallersWaitOnlyForTheirOwnChunks) {
  // Caller A's two chunks (one on A's thread, one on a worker) block until
  // caller B's parallel_for on the same pool has returned. B must return
  // without A's chunks finishing: a join that waited for the whole pool
  // would hang here, so every wait is bounded and a hang fails instead.
  using namespace std::chrono_literals;
  ou::ThreadPool pool(2);
  std::promise<void> b_returned;
  const std::shared_future<void> b_done = b_returned.get_future().share();
  std::atomic<int> a_running{0};
  std::atomic<bool> a_gave_up{false};
  auto a = std::async(std::launch::async, [&] {
    ou::parallel_for(pool, 0, 2, [&](std::size_t) {
      a_running++;
      if (b_done.wait_for(20s) != std::future_status::ready) a_gave_up = true;
    });
  });
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (a_running.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  std::vector<std::size_t> out(64, 0);
  auto b = std::async(std::launch::async, [&] {
    ou::parallel_for(pool, 0, out.size(), [&](std::size_t i) { out[i] = i; });
  });
  const bool b_in_time = b.wait_for(10s) == std::future_status::ready;
  b_returned.set_value();  // release A whatever happened
  EXPECT_EQ(a_running.load(), 2) << "A's chunks never both started";
  EXPECT_TRUE(b_in_time) << "parallel_for waited on another caller's chunks";
  ASSERT_EQ(a.wait_for(30s), std::future_status::ready);
  ASSERT_EQ(b.wait_for(30s), std::future_status::ready);
  a.get();
  b.get();
  EXPECT_FALSE(a_gave_up.load());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
}

TEST(ThreadPool, ExceptionStaysInItsOwnCall) {
  // A throws once B is running on the same pool; B completes normally.
  using namespace std::chrono_literals;
  ou::ThreadPool pool(3);
  std::atomic<bool> b_running{false};
  auto a = std::async(std::launch::async, [&] {
    ou::parallel_for(pool, 0, 8, [&](std::size_t i) {
      if (i != 0) return;
      const auto deadline = std::chrono::steady_clock::now() + 20s;
      while (!b_running.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      throw std::runtime_error("a");
    });
  });
  std::atomic<int> b_calls{0};
  auto b = std::async(std::launch::async, [&] {
    ou::parallel_for(pool, 0, 64, [&](std::size_t) {
      b_running = true;
      b_calls++;
    });
  });
  ASSERT_EQ(b.wait_for(30s), std::future_status::ready);
  EXPECT_NO_THROW(b.get());
  EXPECT_EQ(b_calls.load(), 64);
  ASSERT_EQ(a.wait_for(30s), std::future_status::ready);
  EXPECT_THROW(a.get(), std::runtime_error);
}

TEST(ThreadPool, ResultsBitwiseEqualAcrossWorkerCounts) {
  // Float work per index lands in its own slot, so the result is the
  // same bits for 1, 2 and 4 workers and any grain.
  auto run = [](std::size_t workers, std::size_t grain) {
    ou::ThreadPool pool(workers);
    std::vector<float> out(1001);
    ou::parallel_for(
        pool, 0, out.size(),
        [&](std::size_t i) {
          float acc = 0.0f;
          for (std::size_t k = 1; k <= i % 97 + 1; ++k) {
            acc += std::sin(static_cast<float>(i * k)) / static_cast<float>(k);
          }
          out[i] = acc;
        },
        grain);
    return out;
  };
  for (std::size_t grain : {1, 7, 300}) {
    const std::vector<float> one = run(1, grain);
    for (std::size_t workers : {2, 4}) {
      const std::vector<float> many = run(workers, grain);
      EXPECT_EQ(0, std::memcmp(one.data(), many.data(),
                               one.size() * sizeof(float)))
          << workers << " workers, grain " << grain;
    }
  }
}

TEST(Table, AlignedFormatting) {
  ou::TableWriter t({"a", "long_header"});
  t.add_row({"1", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a"), std::string::npos);
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, CsvFormatting) {
  ou::TableWriter t({"x", "y"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  EXPECT_EQ(t.to_string(ou::TableWriter::Style::kCsv), "x,y\n1,2\n3,4\n");
}

TEST(Table, RejectsBadArity) {
  ou::TableWriter t({"x", "y"});
  EXPECT_THROW(t.add_row({"only-one"}), odenet::Error);
}

TEST(Table, Formatters) {
  EXPECT_EQ(ou::TableWriter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(ou::TableWriter::fmt_int(-42), "-42");
  EXPECT_EQ(ou::TableWriter::fmt_percent(0.4, 2), "40.00%");
}

TEST(Cli, ParsesFlagsAndOptions) {
  ou::CliParser cli("prog", "test");
  cli.add_flag("verbose", "be chatty");
  cli.add_option("epochs", "10", "epoch count");
  cli.add_option("lr", "0.1", "learning rate");
  const char* argv[] = {"prog", "--verbose", "--epochs=20", "--lr", "0.5"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_EQ(cli.get_int("epochs"), 20);
  EXPECT_DOUBLE_EQ(cli.get_double("lr"), 0.5);
}

TEST(Cli, DefaultsApply) {
  ou::CliParser cli("prog", "test");
  cli.add_option("n", "56", "depth");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 56);
}

TEST(Cli, RejectsUnknownAndMalformed) {
  ou::CliParser cli("prog", "test");
  cli.add_option("n", "1", "depth");
  const char* bad1[] = {"prog", "--unknown=3"};
  EXPECT_THROW(cli.parse(2, bad1), odenet::Error);
  ou::CliParser cli2("prog", "test");
  cli2.add_option("n", "1", "depth");
  const char* bad2[] = {"prog", "--n=abc"};
  ASSERT_TRUE(cli2.parse(2, bad2));
  EXPECT_THROW(cli2.get_int("n"), odenet::Error);
}

TEST(Cli, HelpShortCircuits) {
  ou::CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Serialize, RoundTripScalarsAndArrays) {
  std::stringstream ss;
  ou::BinaryWriter w(ss);
  w.write_u32(0xDEADBEEF);
  w.write_u64(1ULL << 40);
  w.write_f32(3.5f);
  w.write_string("hello");
  w.write_floats({1.0f, -2.0f, 0.25f});

  ou::BinaryReader r(ss);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEF);
  EXPECT_EQ(r.read_u64(), 1ULL << 40);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.5f);
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_floats(), (std::vector<float>{1.0f, -2.0f, 0.25f}));
}

TEST(Serialize, TruncationThrows) {
  std::stringstream ss;
  ou::BinaryWriter w(ss);
  w.write_u64(100);  // promises 100 floats, delivers none
  ou::BinaryReader r(ss);
  EXPECT_THROW(r.read_floats(), odenet::Error);
}

TEST(Serialize, HeaderValidation) {
  std::stringstream good;
  ou::BinaryWriter w(good);
  ou::write_weights_header(w);
  ou::BinaryReader r(good);
  EXPECT_NO_THROW(ou::read_weights_header(r));

  std::stringstream bad;
  ou::BinaryWriter wb(bad);
  wb.write_u32(0x12345678);
  wb.write_u32(ou::kSnapshotVersion);
  ou::BinaryReader rb(bad);
  EXPECT_THROW(ou::read_weights_header(rb), odenet::Error);

  // Right magic, wrong version: the retired v1 bare blob and an unknown
  // future version are both rejected.
  for (std::uint32_t version : {1u, ou::kSnapshotVersion + 1}) {
    std::stringstream old;
    ou::BinaryWriter wo(old);
    wo.write_u32(ou::kWeightsMagic);
    wo.write_u32(version);
    ou::BinaryReader ro(old);
    EXPECT_THROW(ou::read_weights_header(ro), odenet::Error) << version;
  }
}
