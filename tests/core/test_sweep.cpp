#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_journal.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/error.hpp"
#include "util/fault_injector.hpp"
#include "util/parallel.hpp"

namespace greenhpc::core {
namespace {

ScenarioConfig small_base() {
  ScenarioConfig cfg;
  cfg.cluster.nodes = 16;
  cfg.cluster.tick = minutes(5.0);
  cfg.region = carbon::Region::Germany;
  cfg.trace_span = days(2.0);
  cfg.trace_step = minutes(30.0);
  cfg.workload.job_count = 12;
  cfg.workload.span = hours(12.0);
  cfg.workload.max_job_nodes = 8;
  cfg.seed = 77;
  return cfg;
}

SweepGrid small_grid() {
  SweepGrid grid;
  grid.base = small_base();
  grid.regions = {carbon::Region::Germany, carbon::Region::France};
  grid.cluster_nodes = {16, 32};
  grid.seed_replicas = 3;
  grid.policies.push_back(
      {"fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); }});
  grid.policies.push_back(
      {"easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); }});
  return grid;
}

TEST(SweepGrid, CountsAreAxisProducts) {
  const SweepGrid grid = small_grid();
  // 2 regions x 1 kind x 2 node counts x 1 job count x 2 policies.
  EXPECT_EQ(grid.cell_count(), 8u);
  EXPECT_EQ(grid.case_count(), 24u);  // x 3 replicas

  SweepGrid defaults;
  defaults.base = small_base();
  defaults.policies = grid.policies;
  // Empty axes mean "the base value": one cell per policy.
  EXPECT_EQ(defaults.cell_count(), 2u);
  EXPECT_EQ(defaults.case_count(), 2u);
}

TEST(SweepEngine, RejectsDegenerateGrids) {
  const SweepEngine engine;
  SweepGrid no_policies;
  no_policies.base = small_base();
  EXPECT_THROW((void)engine.run(no_policies), InvalidArgument);

  SweepGrid bad_replicas = small_grid();
  bad_replicas.seed_replicas = 0;
  EXPECT_THROW((void)engine.run(bad_replicas), InvalidArgument);

  SweepGrid null_factory = small_grid();
  null_factory.policies[0].scheduler = nullptr;
  EXPECT_THROW((void)engine.run(null_factory), InvalidArgument);
}

TEST(SweepEngine, ReplicaSeedsAreDistinctAndAxisIndependent) {
  std::set<std::uint64_t> seeds;
  for (int r = 0; r < 16; ++r) seeds.insert(SweepEngine::replica_seed(2023, r));
  EXPECT_EQ(seeds.size(), 16u);
  // Replica 0 is already decorrelated from the base seed itself.
  EXPECT_NE(SweepEngine::replica_seed(2023, 0), 2023u);
  // Neighbouring base seeds do not collide on early replicas.
  EXPECT_NE(SweepEngine::replica_seed(2023, 0), SweepEngine::replica_seed(2024, 0));
}

TEST(SweepEngine, CellTableIsCellMajorWithCoordinates) {
  const SweepGrid grid = small_grid();
  const SweepResult result = SweepEngine().run(grid);
  ASSERT_EQ(result.cells.size(), 8u);
  EXPECT_EQ(result.cases, 24u);
  EXPECT_EQ(result.replicas, 3);
  // Policy is the innermost cell axis, then jobs, nodes, kinds, regions.
  EXPECT_EQ(result.cells[0].region, carbon::Region::Germany);
  EXPECT_EQ(result.cells[0].nodes, 16);
  EXPECT_EQ(result.cells[0].policy, "fcfs");
  EXPECT_EQ(result.cells[1].policy, "easy");
  EXPECT_EQ(result.cells[2].nodes, 32);
  EXPECT_EQ(result.cells[4].region, carbon::Region::France);
  for (const SweepCellStats& cell : result.cells) {
    EXPECT_EQ(cell.carbon_t.count(), 3u);  // one observation per replica
    EXPECT_GT(cell.energy_mwh.mean(), 0.0);
    EXPECT_GT(cell.completed.mean(), 0.0);
  }
}

/// Fresh run directory per test; a stale journal is removed.
std::string run_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "greenhpc_stream_" + name;
  std::remove((dir + "/" + SweepJournal::kFileName).c_str());
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void expect_same_stats(const util::RunningStats& a, const util::RunningStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.sum(), b.sum()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

/// Digest, every cell's Welford accumulators and the quarantine list are
/// bit-identical.
void expect_identical(const SweepResult& a, const SweepResult& b, const std::string& what) {
  EXPECT_EQ(a.digest, b.digest) << what;
  ASSERT_EQ(a.cells.size(), b.cells.size()) << what;
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    const SweepCellStats& x = a.cells[c];
    const SweepCellStats& y = b.cells[c];
    const std::string cell = what + " cell " + std::to_string(c);
    expect_same_stats(x.carbon_t, y.carbon_t, cell + " carbon");
    expect_same_stats(x.energy_mwh, y.energy_mwh, cell + " energy");
    expect_same_stats(x.wait_h, y.wait_h, cell + " wait");
    expect_same_stats(x.slowdown, y.slowdown, cell + " slowdown");
    expect_same_stats(x.utilization, y.utilization, cell + " utilization");
    expect_same_stats(x.green_share, y.green_share, cell + " green");
    expect_same_stats(x.completed, y.completed, cell + " completed");
  }
  ASSERT_EQ(a.failed_cases.size(), b.failed_cases.size()) << what;
  for (std::size_t i = 0; i < a.failed_cases.size(); ++i) {
    EXPECT_EQ(a.failed_cases[i].flat, b.failed_cases[i].flat) << what;
    EXPECT_EQ(a.failed_cases[i].where, b.failed_cases[i].where) << what;
    EXPECT_EQ(a.failed_cases[i].error, b.failed_cases[i].error) << what;
    EXPECT_EQ(a.failed_cases[i].attempts, b.failed_cases[i].attempts) << what;
  }
}

SweepResult run_sweep(const SweepGrid& grid, util::ThreadPool& pool, std::size_t block,
                      SweepJournal* journal = nullptr) {
  SweepEngine::Options opts;
  opts.pool = &pool;
  opts.block = block;
  opts.journal = journal;
  return SweepEngine(std::move(opts)).run(grid);
}

/// Disarms the process-wide fault injector when the test ends, pass or fail.
struct ArmedFaults {
  explicit ArmedFaults(std::vector<util::FaultSpec> specs) {
    util::FaultInjector::global().arm(std::move(specs));
  }
  ~ArmedFaults() { util::FaultInjector::global().disarm(); }
  ArmedFaults(const ArmedFaults&) = delete;
  ArmedFaults& operator=(const ArmedFaults&) = delete;
};

struct Interrupt : std::runtime_error {
  Interrupt() : std::runtime_error("interrupted") {}
};

TEST(SweepEngine, DigestInvariantAcrossThreadCountsAndBlockSizes) {
  // The determinism contract: bit-identical aggregates and digest for any
  // fan-out shape. Blocks of 1, 3 and 7 over 24 cases (7 leaves a short
  // tail block of 3), one block covering the grid exactly and one larger
  // than it; pools of 1 (lane 0 alone), 2, 3 and 8 workers, and a nested
  // call from inside a parallel region (lane 0 alone on a pool that has
  // workers).
  const SweepGrid grid = small_grid();
  util::ThreadPool serial(1);
  for (const std::size_t block : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                  std::size_t{24}, std::size_t{100}}) {
    const SweepResult reference = run_sweep(grid, serial, block);
    const std::string shape = "block " + std::to_string(block);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
      util::ThreadPool pool(threads);
      expect_identical(reference, run_sweep(grid, pool, block),
                       shape + ", pool " + std::to_string(threads));
    }
    util::ThreadPool outer(2);
    util::ThreadPool inner(8);
    std::vector<SweepResult> nested(2);
    outer.parallel_for_chunked(nested.size(), 1, [&](std::size_t i) {
      EXPECT_EQ(inner.team_size(), 1u);
      nested[i] = run_sweep(grid, inner, block);
    });
    for (const SweepResult& r : nested) expect_identical(reference, r, shape + ", nested");
  }
}

TEST(SweepEngine, ProgressReportsMonotonicallyToTotal) {
  SweepGrid grid = small_grid();
  std::vector<std::size_t> done;
  SweepEngine::Options opts;
  opts.block = 7;
  opts.progress = [&](std::size_t d, std::size_t total) {
    EXPECT_EQ(total, 24u);
    done.push_back(d);
  };
  (void)SweepEngine(std::move(opts)).run(grid);
  ASSERT_FALSE(done.empty());
  for (std::size_t i = 1; i < done.size(); ++i) EXPECT_GT(done[i], done[i - 1]);
  EXPECT_EQ(done.back(), 24u);
}

TEST(SweepEngine, ProgressCallbackIsSerializedUnderThreadPool) {
  // The documented contract: progress always runs on the run() thread,
  // once per block in increasing order, never concurrently with itself
  // (other lanes may be simulating later blocks meanwhile). Detect any
  // overlap with an atomic in-callback guard; detect any off-thread
  // invocation by comparing thread ids.
  SweepGrid grid = small_grid();
  util::ThreadPool pool(8);
  SweepEngine::Options opts;
  opts.pool = &pool;
  opts.block = 3;  // 24 cases -> 8 progress calls interleaved with fan-out
  std::atomic<int> in_callback{0};
  std::atomic<bool> overlapped{false};
  std::atomic<int> calls{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> wrong_thread{false};
  opts.progress = [&](std::size_t, std::size_t) {
    if (in_callback.fetch_add(1, std::memory_order_acq_rel) != 0) {
      overlapped.store(true, std::memory_order_relaxed);
    }
    if (std::this_thread::get_id() != caller) {
      wrong_thread.store(true, std::memory_order_relaxed);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // widen races
    in_callback.fetch_sub(1, std::memory_order_acq_rel);
    calls.fetch_add(1, std::memory_order_relaxed);
  };
  (void)SweepEngine(std::move(opts)).run(grid);
  EXPECT_FALSE(overlapped.load()) << "progress callback ran concurrently";
  EXPECT_FALSE(wrong_thread.load()) << "progress callback left the run() thread";
  EXPECT_EQ(calls.load(), 8);
}

// ---------------------------------------------------------------------------
// Streaming in-order fold: lanes simulate ahead of the fold, the run()
// thread folds, journals and reports each block as soon as it lands.

TEST(SweepStreaming, LanesStayWithinTheWindowWhileTheFoldStalls) {
  // A slow progress callback holds lane 0, so the fold frontier stalls
  // while the other lanes keep claiming; none may start a case more than
  // 2 x team blocks past the fold. Started cases are counted in the
  // scheduler factory, which every case calls once.
  SweepGrid grid = small_grid();
  util::ThreadPool serial(1);
  const SweepResult reference = run_sweep(grid, serial, 1);
  util::ThreadPool pool(3);
  const std::size_t window = 2 * pool.team_size();
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> folded{0};
  std::atomic<bool> overran{false};
  for (SweepPolicy& p : grid.policies) {
    p.scheduler = [&, inner = p.scheduler] {
      const std::size_t n = started.fetch_add(1) + 1;
      // The frontier runs at most one block ahead of the progress count.
      if (n > folded.load() + 1 + window) overran.store(true);
      return inner();
    };
  }
  SweepEngine::Options opts;
  opts.pool = &pool;
  opts.block = 1;
  opts.progress = [&](std::size_t done, std::size_t) {
    folded.store(done);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  };
  const SweepResult result = SweepEngine(std::move(opts)).run(grid);
  EXPECT_FALSE(overran.load()) << "a lane ran past the window";
  expect_identical(reference, result, "stalled fold");
}

TEST(SweepStreaming, JournalBytesMatchSingleWorkerPool) {
  const SweepGrid grid = small_grid();
  const auto journal_bytes = [&](std::size_t threads) {
    const std::string dir = run_dir("bytes_" + std::to_string(threads));
    SweepJournal journal =
        SweepJournal::create(dir, grid.config_digest(), grid.case_count(), 5);
    util::ThreadPool pool(threads);
    (void)run_sweep(grid, pool, 5, &journal);
    EXPECT_EQ(journal.resume_point(), grid.case_count());
    return read_file(journal.path());
  };
  const std::string reference = journal_bytes(1);
  ASSERT_FALSE(reference.empty());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    EXPECT_EQ(journal_bytes(threads), reference) << "pool " << threads;
  }
}

TEST(SweepStreaming, ResumeFromMidGridReachesUninterruptedDigest) {
  const SweepGrid grid = small_grid();
  util::ThreadPool pool(8);
  const SweepResult reference = run_sweep(grid, pool, 4);
  const std::string dir = run_dir("resume_mid_grid");
  {
    SweepJournal journal =
        SweepJournal::create(dir, grid.config_digest(), grid.case_count(), 4);
    SweepEngine::Options opts;
    opts.pool = &pool;
    opts.journal = &journal;
    std::size_t blocks_done = 0;
    opts.progress = [&](std::size_t, std::size_t) {
      if (++blocks_done == 3) throw Interrupt();
    };
    EXPECT_THROW((void)SweepEngine(std::move(opts)).run(grid), Interrupt);
  }
  SweepJournal resumed = SweepJournal::resume(dir, grid.config_digest(), grid.case_count());
  ASSERT_EQ(resumed.resume_point(), 12u);  // three blocks of 4 were committed
  util::ThreadPool other(3);
  const SweepResult result = run_sweep(grid, other, 4, &resumed);
  expect_identical(reference, result, "resumed");
  EXPECT_EQ(result.replayed_cases, 12u);
}

TEST(SweepStreaming, ThrowingProgressPropagatesAndPoolStaysUsable) {
  const SweepGrid grid = small_grid();
  util::ThreadPool pool(3);
  const SweepResult reference = run_sweep(grid, pool, 2);
  SweepEngine::Options opts;
  opts.pool = &pool;
  opts.block = 2;
  std::size_t calls = 0;
  opts.progress = [&](std::size_t, std::size_t) {
    if (++calls == 2) throw Interrupt();
  };
  EXPECT_THROW((void)SweepEngine(std::move(opts)).run(grid), Interrupt);
  EXPECT_EQ(calls, 2u);
  expect_identical(reference, run_sweep(grid, pool, 2), "after the failed run");
}

TEST(SweepStreaming, NonIoJournalErrorPropagatesAndPoolStaysUsable) {
  // A progress callback that writes a foreign record into the journal
  // makes the engine's next append out of order: a LogicError, not an I/O
  // failure, so it must abort the run instead of degrading.
  const SweepGrid grid = small_grid();
  util::ThreadPool pool(3);
  const SweepResult reference = run_sweep(grid, pool, 4);
  const std::string dir = run_dir("non_io_error");
  SweepJournal journal = SweepJournal::create(dir, grid.config_digest(), grid.case_count(), 4);
  SweepEngine::Options opts;
  opts.pool = &pool;
  opts.journal = &journal;
  bool injected = false;
  opts.progress = [&](std::size_t, std::size_t) {
    if (injected) return;
    injected = true;
    SweepBlock foreign;
    foreign.start = journal.resume_point();
    foreign.cases.resize(4);
    journal.append(foreign);
  };
  EXPECT_THROW((void)SweepEngine(std::move(opts)).run(grid), LogicError);
  expect_identical(reference, run_sweep(grid, pool, 4), "after the failed run");
}

TEST(SweepStreaming, JournalFaultMidStreamDegradesToExactDigest) {
  const SweepGrid grid = small_grid();
  util::ThreadPool pool(3);
  const SweepResult reference = run_sweep(grid, pool, 3);
  const std::string dir = run_dir("append_fault");
  SweepJournal journal = SweepJournal::create(dir, grid.config_digest(), grid.case_count(), 3);
  SweepResult result;
  {
    // The third append (block 2) fails like ENOSPC; the run must carry on
    // without the journal and fold every later block all the same.
    const ArmedFaults faults({{"journal.append", 2, 1, util::FaultAction::Fail, 0}});
    result = run_sweep(grid, pool, 3, &journal);
  }
  expect_identical(reference, result, "degraded");
  EXPECT_EQ(journal.resume_point(), 6u);  // only blocks 0 and 1 are durable
}

TEST(SweepStreaming, PoisonCaseIsQuarantinedForEveryTeam) {
  const SweepGrid grid = small_grid();
  const ArmedFaults faults({{"case.poison", 5, 1, util::FaultAction::Fail, 0}});
  std::vector<SweepResult> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    util::ThreadPool pool(threads);
    SweepEngine::Options opts;
    opts.pool = &pool;
    opts.block = 4;
    opts.case_retries = 1;
    opts.retry_backoff_base_s = 0.0;
    results.push_back(SweepEngine(std::move(opts)).run(grid));
  }
  ASSERT_EQ(results[0].failed_cases.size(), 1u);
  const SweepFailedCase& failed = results[0].failed_cases[0];
  EXPECT_EQ(failed.flat, 5u);
  EXPECT_EQ(failed.attempts, 2);
  EXPECT_EQ(failed.error, "injected poison case 5");
  EXPECT_EQ(failed.where, "region=DE kind=avg nodes=16 jobs=12 policy=easy replica=2");
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_identical(results[0], results[i], "pool " + std::to_string(i));
  }
}

TEST(SweepCellStats, Ci95MatchesNormalApproximation) {
  util::RunningStats s;
  EXPECT_EQ(SweepCellStats::ci95(s), 0.0);
  s.add(1.0);
  EXPECT_EQ(SweepCellStats::ci95(s), 0.0);  // undefined below two samples
  s.add(3.0);
  s.add(5.0);
  const double expect = 1.96 * s.sample_stddev() / std::sqrt(3.0);
  EXPECT_DOUBLE_EQ(SweepCellStats::ci95(s), expect);
}

TEST(ScenarioRunner, RunnersDifferingOnlyInPolicyShareAssets) {
  // The shared-asset bugfix: constructing two runners over the same
  // scenario must not regenerate the trace or the workload — both resolve
  // through the process-wide caches to pointer-identical assets.
  const ScenarioConfig cfg = small_base();
  const ScenarioRunner a(cfg);
  const ScenarioRunner b(cfg);
  EXPECT_EQ(a.trace_ptr().get(), b.trace_ptr().get());
  EXPECT_EQ(a.jobs_ptr().get(), b.jobs_ptr().get());

  // A different seed is a different scenario: assets must NOT be shared.
  ScenarioConfig other = cfg;
  other.seed += 1;
  const ScenarioRunner c(other);
  EXPECT_NE(a.trace_ptr().get(), c.trace_ptr().get());
  EXPECT_NE(a.jobs_ptr().get(), c.jobs_ptr().get());
}

}  // namespace
}  // namespace greenhpc::core
