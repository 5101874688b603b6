#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gen/didactic.hpp"
#include "gen/random_arch.hpp"
#include "lte/receiver.hpp"
#include "model/desc.hpp"
#include "model/shaping.hpp"
#include "study/study.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"
#include "util/crew.hpp"
#include "util/error.hpp"

/// The threading layer (docs/DESIGN.md §11): util::Crew semantics — more
/// and uneven indices than slots (the ThreadPoolTest names, kept from the
/// pool the crew replaced) and the drain's repeated epochs (CrewTest) —
/// the study matrix's streaming schedule (models freed once checked, a
/// failed reference neither hanging nor checked), and the determinism
/// contract of both parallelism levers: a thread-parallel study matrix
/// and parallel per-group batch drains must be bit-identical to their
/// serial counterparts, run after run.

namespace maxev {
namespace {

using study::Backend;
using study::Report;
using study::RunConfig;
using study::Scenario;
using study::StudyOptions;

// ------------------------------------ Crew: more indices than slots

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  util::Crew crew(3);
  EXPECT_EQ(crew.worker_count(), 3u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  crew.run(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ZeroAndOneIndexDegenerate) {
  util::Crew crew(2);
  int calls = 0;
  crew.run(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  crew.run(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ClampsZeroWorkersToOne) {
  // No clamp any more: Crew(0) spawns nothing and runs every index inline.
  util::Crew crew(0);
  EXPECT_EQ(crew.worker_count(), 0u);
  std::atomic<int> calls{0};
  crew.run(8, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPoolTest, LowestIndexExceptionWins) {
  util::Crew crew(4);
  // Several indices throw; completion order is scheduling noise, but the
  // rethrown exception must always be index 3's.
  for (int round = 0; round < 20; ++round) {
    try {
      crew.run(64, [&](std::size_t i) {
        if (i == 3 || i == 40 || i == 63)
          throw std::runtime_error("idx " + std::to_string(i));
      });
      FAIL() << "run swallowed the exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "idx 3");
    }
  }
}

TEST(ThreadPoolTest, ExceptionDoesNotAbandonOtherIndices) {
  for (const std::size_t workers : {0u, 2u}) {
    util::Crew crew(workers);
    std::vector<std::atomic<int>> hits(32);
    EXPECT_THROW(crew.run(32,
                          [&](std::size_t i) {
                            hits[i].fetch_add(1);
                            if (i == 0) throw std::runtime_error("x");
                          }),
                 std::runtime_error);
    // Every index still ran (the epoch completes before rethrowing), inline
    // or not.
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers;
  }
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // A body fanning out again on its own crew must not deadlock while every
  // worker is occupied by the outer epoch: the nested run executes its
  // indices inline on the calling thread.
  util::Crew crew(2);
  std::atomic<int> inner{0};
  crew.run(8, [&](std::size_t) {
    crew.run(8, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 64);
  // The inline nested run keeps the lowest-index rethrow.
  try {
    crew.run(4, [&](std::size_t) {
      crew.run(8, [&](std::size_t i) {
        if (i == 2 || i == 5)
          throw std::runtime_error("idx " + std::to_string(i));
      });
    });
    FAIL() << "run swallowed the nested exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "idx 2");
  }
}

TEST(ThreadPoolTest, ResolveMapsKnobToWorkerCount) {
  EXPECT_EQ(util::resolve_threads(1), 1u);
  EXPECT_EQ(util::resolve_threads(7), 7u);
  EXPECT_GE(util::resolve_threads(0), 1u);  // 0 = hardware concurrency
}

// ------------------------------------------------- Crew: the drain's epochs

TEST(CrewTest, EveryIndexRunsOncePerEpoch) {
  // Plain (non-atomic) counters: each index is written by one slot per
  // epoch and read here after run() returns, so the epoch barrier itself
  // must order the accesses (TSan checks that it does).
  constexpr int kEpochs = 10'000;
  for (const std::size_t workers : {1u, 2u, 3u}) {
    for (const std::size_t n : {2u, 3u, 5u}) {
      std::vector<int> hits(n, 0);
      const std::function<void(std::size_t)> body = [&](std::size_t i) {
        ++hits[i];
      };
      util::Crew crew(workers);
      int wrong = 0;
      for (int epoch = 1; epoch <= kEpochs; ++epoch) {
        crew.run(n, body);
        for (std::size_t i = 0; i < n; ++i) wrong += hits[i] != epoch;
      }
      EXPECT_EQ(wrong, 0) << "workers=" << workers << " n=" << n;
    }
  }
}

TEST(CrewTest, UnevenIndicesAreClaimedNotStrided) {
  // Two slots, eight indices. Index 0 holds the caller's slot until 1..7
  // have all run: the worker must claim them one by one. A static stride
  // split would strand 2, 4 and 6 behind index 0.
  util::Crew crew(1);
  constexpr std::size_t kN = 8;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<std::size_t> others{0};
  bool stranded = false;  // written by index 0 only, read after run()
  crew.run(kN, [&](std::size_t i) {
    if (i != 0) {
      hits[i].fetch_add(1);
      others.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others.load() < kN - 1) {
      if (std::chrono::steady_clock::now() >= deadline) {
        stranded = true;
        break;
      }
      std::this_thread::yield();
    }
    hits[0].fetch_add(1);
  });
  EXPECT_FALSE(stranded) << others.load() << " of " << kN - 1
                         << " other indices ran while index 0 waited";
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;

  // The drain's case (n <= slots: every slot runs its own index and claims
  // nothing) still runs every index once per epoch, on the same crew.
  std::vector<int> drained(2, 0);
  const std::function<void(std::size_t)> drain = [&](std::size_t i) {
    ++drained[i];
  };
  for (int epoch = 1; epoch <= 100; ++epoch) {
    crew.run(drained.size(), drain);
    for (const int d : drained) ASSERT_EQ(d, epoch);
  }
}

TEST(CrewTest, LowestIndexExceptionWinsAndEveryIndexRuns) {
  // workers = 2, n = 5: slots 1 and 2 run indices 1 and 2, and 3 and 4 go
  // to whichever slot claims them first; the throwing indices 1 and 2 sit
  // on worker threads.
  std::vector<int> hits(5, 0);
  bool fail = true;  // written between epochs only
  const std::function<void(std::size_t)> body = [&](std::size_t i) {
    ++hits[i];
    if (fail && (i == 1 || i == 2 || i == 4))
      throw std::runtime_error("idx " + std::to_string(i));
  };
  util::Crew crew(2);
  for (int round = 0; round < 20; ++round) {
    try {
      crew.run(hits.size(), body);
      FAIL() << "run swallowed the exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "idx 1");
    }
  }
  for (const int h : hits) EXPECT_EQ(h, 20);
  // The next epoch runs normally.
  fail = false;
  EXPECT_NO_THROW(crew.run(hits.size(), body));
  for (const int h : hits) EXPECT_EQ(h, 21);
}

TEST(CrewTest, SleepingWorkersAndCallerWake) {
  // Gaps between epochs outlast the spin window, so workers are asleep at
  // every run(); slow worker indices put the caller to sleep as well.
  std::vector<int> hits(3, 0);
  const std::function<void(std::size_t)> body = [&](std::size_t i) {
    if (i != 0) std::this_thread::sleep_for(std::chrono::microseconds(500));
    ++hits[i];
  };
  util::Crew crew(2);
  for (int epoch = 1; epoch <= 20; ++epoch) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    crew.run(hits.size(), body);
    for (const int h : hits) EXPECT_EQ(h, epoch);
  }
}

TEST(CrewTest, DestructionJoinsWithoutHanging) {
  for (int round = 0; round < 50; ++round) {
    // Never run: the workers are still in their first sleep.
    { util::Crew idle(3); }
    // Destroyed right after an epoch: the workers are still spinning.
    std::atomic<int> calls{0};
    {
      util::Crew crew(3);
      crew.run(4, [&](std::size_t) { calls.fetch_add(1); });
    }
    EXPECT_EQ(calls.load(), 4);
  }
}

// ------------------------------------------------- determinism: the matrix

/// Blank the wall-clock-dependent fields; everything else in a report must
/// be bit-identical across thread counts and repeated runs.
Report blank_walls(Report rep) {
  for (study::Cell& c : rep.cells) {
    c.metrics.wall_seconds = 0.0;
    c.speedup_vs_reference = c.is_reference ? 1.0 : 0.0;
  }
  return rep;
}

/// A small but representative matrix: a solo didactic scenario plus a
/// composed two-sub-batch scenario, against baseline + equivalent.
study::Study matrix_study() {
  study::Study st;
  gen::DidacticConfig cfg;
  cfg.tokens = 20;
  st.add(Scenario("didactic", gen::make_didactic(cfg)));

  gen::DidacticConfig ca;
  ca.tokens = 15;
  gen::DidacticConfig cb;
  cb.tokens = 25;
  const auto a = model::share(gen::make_didactic(ca));
  const auto b = model::share(gen::make_didactic(cb));
  std::vector<Scenario> parts;
  parts.emplace_back("a0", a);
  parts.emplace_back("b0", b);
  parts.emplace_back("a1", a);
  parts.emplace_back("b1", b);
  st.add(study::compose("mix22", parts));

  st.add(Backend::baseline());
  st.add(Backend::equivalent());
  return st;
}

TEST(ParallelStudyTest, RepeatedRunsMatchSerialByteForByte) {
  const study::Study st = matrix_study();
  StudyOptions opts;
  const Report ref = blank_walls(st.run(opts));
  const std::string ref_json = ref.to_json();

  for (const int threads : {2, 8}) {
    opts.threads = threads;
    opts.group_threads = threads;
    for (int round = 0; round < 3; ++round) {
      const Report rep = blank_walls(st.run(opts));
      EXPECT_EQ(rep.to_json(), ref_json)
          << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(ParallelStudyTest, MismatchesAndFailuresMatchSerialByteForByte) {
  // The accuracy checks run on the matrix's workers. With mismatch
  // strings, non-zero error magnitudes and failed cells in the report, its
  // bytes must still not depend on the thread count.
  study::Study st = matrix_study();
  st.add(Backend::loosely_timed(Duration::us(10)));  // instants drift
  st.add(Backend::loosely_timed(Duration::ps(0)));   // zero quantum: fails
  StudyOptions opts;
  opts.isolate_failures = true;
  const Report serial = st.run(opts);
  for (const std::string& scenario : serial.scenarios) {
    const study::Cell& lt = serial.at(scenario, "lt(10us)");
    ASSERT_TRUE(lt.errors.has_value()) << scenario;
    EXPECT_TRUE(lt.errors->instant_mismatch.has_value()) << scenario;
    EXPECT_GT(lt.errors->max_abs_seconds, 0.0) << scenario;
    EXPECT_TRUE(serial.at(scenario, "equivalent").errors->exact());
    EXPECT_TRUE(serial.at(scenario, "lt(0ps)").failed) << scenario;
  }
  const std::string ref_json = blank_walls(serial).to_json();

  for (const int threads : {1, 2, 8}) {
    opts.threads = threads;
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(blank_walls(st.run(opts)).to_json(), ref_json)
          << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(ParallelStudyTest, PerCellKernelStatsAreIndependent) {
  // Each cell's counters come from that cell's own kernel; a parallel
  // measure phase must not leak or aggregate counts across cells.
  const study::Study st = matrix_study();
  StudyOptions opts;
  const Report serial = st.run(opts);
  opts.threads = 8;
  const Report parallel = st.run(opts);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const study::Cell& s = serial.cells[i];
    const study::Cell& p = parallel.cells[i];
    EXPECT_EQ(s.scenario, p.scenario);
    EXPECT_EQ(s.backend, p.backend);
    EXPECT_EQ(s.metrics.kernel_events, p.metrics.kernel_events) << s.scenario;
    EXPECT_EQ(s.metrics.resumes, p.metrics.resumes) << s.scenario;
    EXPECT_EQ(s.metrics.relation_events, p.metrics.relation_events)
        << s.scenario;
    EXPECT_EQ(s.metrics.instances_computed, p.metrics.instances_computed)
        << s.scenario;
    EXPECT_EQ(s.metrics.arc_terms, p.metrics.arc_terms) << s.scenario;
    EXPECT_EQ(s.metrics.sim_end, p.metrics.sim_end) << s.scenario;
  }
}

TEST(ParallelStudyTest, OptionErrorsIdenticalAtAnyThreadCount) {
  gen::DidacticConfig cfg;
  cfg.tokens = 25;
  study::Study st;
  st.add(Scenario("didactic", gen::make_didactic(cfg)));
  st.add(Backend::baseline());
  for (const int threads : {1, 8}) {
    StudyOptions opts;
    opts.threads = threads;
    opts.repetitions = -1;  // invalid: must throw identically at any setting
    EXPECT_THROW((void)st.run(opts), Error) << "threads=" << threads;
    opts.repetitions = 1;
    opts.group_threads = -1;  // only 1 and 0 have a meaning below 2
    EXPECT_THROW((void)st.run(opts), Error) << "threads=" << threads;
    opts.group_threads = threads;
    EXPECT_TRUE(st.run(opts).cells[0].metrics.completed)
        << "threads=" << threads;
  }
  StudyOptions negative;
  negative.threads = -1;
  EXPECT_THROW((void)st.run(negative), Error);
}

// ------------------------------- the streaming schedule: release, failure

/// Run the study under a bounded wait, so a scheduler deadlock fails the
/// test instead of hanging the suite. A stuck run's workers cannot be
/// joined, hence the abort.
Report run_bounded(const study::Study& st, const StudyOptions& opts) {
  auto result = std::async(std::launch::async, [&] { return st.run(opts); });
  if (result.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "Study::run did not finish within 10 s";
    std::abort();
  }
  return result.get();
}

/// A three-function chain of \p tokens whose source calls \p on_offer
/// from inside every running model of it, baseline and equivalent alike.
model::DescPtr probed_chain(std::uint64_t tokens,
                            std::function<void()> on_offer) {
  model::ArchitectureDesc d;
  const auto r =
      d.add_resource("cpu", model::ResourcePolicy::kConcurrent, 1e9);
  const auto in = d.add_rendezvous("in");
  auto ch = in;
  for (int i = 0; i < 3; ++i) {
    const auto f = d.add_function("f" + std::to_string(i), r);
    const auto next = d.add_rendezvous("c" + std::to_string(i));
    d.fn_read(f, ch);
    d.fn_execute(f, model::constant_ops(1000));
    d.fn_write(f, next);
    ch = next;
  }
  const auto out = ch;
  d.add_source(
      "src", in, tokens,
      [on_offer = std::move(on_offer)](std::uint64_t k) {
        on_offer();
        return model::PeriodicTimeFn{0, 1'000'000}(k);
      },
      model::ConstantAttrsFn{});
  d.add_sink("sink", out);
  d.validate();
  return model::share(std::move(d));
}

/// Which scenarios of a study hold live models, seen from inside the
/// running ones. A model holds its scenario's description, so a
/// description used more often than before run() has a live model (with
/// the program cache off: cache keys hold descriptions too).
class LiveModelProbe {
 public:
  /// Called by scenario \p running's source.
  void sample(std::size_t running) {
    std::size_t live = 0;
    std::size_t others = 0;
    for (std::size_t s = 0; s < descs_.size(); ++s) {
      if (descs_[s].use_count() <= base_[s]) continue;
      ++live;
      if (s != running) ++others;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    ++samples_[running];
    peak_live_ = std::max(peak_live_, live);
    peak_others_ = std::max(peak_others_, others);
  }

  void watch(const std::vector<model::DescPtr>& descs) {
    descs_.assign(descs.begin(), descs.end());
    samples_.assign(descs.size(), 0);
  }

  /// Take the use counts of an idle study; clears the peaks.
  void arm() {
    base_.clear();
    for (const auto& d : descs_) base_.push_back(d.use_count());
    samples_.assign(descs_.size(), 0);
    peak_live_ = 0;
    peak_others_ = 0;
  }

  [[nodiscard]] std::size_t peak_live() const { return peak_live_; }
  [[nodiscard]] std::size_t peak_others() const { return peak_others_; }
  [[nodiscard]] const std::vector<int>& samples() const { return samples_; }

 private:
  std::vector<std::weak_ptr<const model::ArchitectureDesc>> descs_;
  std::vector<long> base_;
  std::mutex mu_;
  std::vector<int> samples_;
  std::size_t peak_live_ = 0;
  std::size_t peak_others_ = 0;
};

TEST(ParallelStudyTest, ModelsAreFreedOnceTheirChecksAreDone) {
  // 16 scenarios × {baseline, equivalent}. A check releases the checked
  // model, and a scenario's last check its reference, so only the open
  // scenarios' models are alive at once: at threads = 1 the running one
  // alone, and otherwise at most one per crew slot plus the scenario whose
  // next cell is still unclaimed.
  constexpr std::size_t kScenarios = 16;
  LiveModelProbe probe;
  std::vector<model::DescPtr> descs;
  study::Study st;
  for (std::size_t s = 0; s < kScenarios; ++s) {
    descs.push_back(probed_chain(20, [&probe, s] { probe.sample(s); }));
    st.add(Scenario("chain" + std::to_string(s), descs.back()));
  }
  st.add(Backend::baseline());
  st.add(Backend::equivalent());
  probe.watch(descs);
  descs.clear();  // the study's scenarios are the only owners left

  StudyOptions opts;
  opts.program_cache = false;
  for (const int threads : {1, 2, 8}) {
    opts.threads = threads;
    probe.arm();
    const Report rep = run_bounded(st, opts);
    for (const study::Cell& c : rep.cells) {
      if (!c.is_reference) {
        EXPECT_TRUE(c.errors && c.errors->exact());
      }
    }
    for (std::size_t s = 0; s < kScenarios; ++s)
      EXPECT_GT(probe.samples()[s], 0) << "scenario " << s;
    if (threads == 1) {
      // Every model of scenario i is gone before scenario i + 1 starts.
      EXPECT_EQ(probe.peak_others(), 0u);
    } else {
      EXPECT_LE(probe.peak_live(), static_cast<std::size_t>(threads) + 1)
          << "threads=" << threads;
    }
  }
}

TEST(ParallelStudyTest, FailedReferenceSkipsItsChecksWithoutHanging) {
  // An event budget between the long scenario's equivalent and baseline
  // event counts fails its reference alone. No worker may wait on the
  // failed cell, and its scenario's other cells go unchecked.
  const std::vector<std::pair<std::string, std::uint64_t>> chains = {
      {"short0", 20}, {"long", 400}, {"short1", 20}};
  std::vector<std::atomic<int>> offers(chains.size());
  study::Study st;
  for (std::size_t s = 0; s < chains.size(); ++s)
    st.add(Scenario(chains[s].first,
                    probed_chain(chains[s].second,
                                 [&offers, s] { offers[s].fetch_add(1); })));
  st.add(Backend::baseline());
  st.add(Backend::equivalent());

  StudyOptions opts;
  const Report unguarded = run_bounded(st, opts);
  const std::uint64_t base_events =
      unguarded.at("long", "baseline").metrics.kernel_events;
  const std::uint64_t eq_events =
      unguarded.at("long", "equivalent").metrics.kernel_events;
  ASSERT_LT(2 * eq_events, base_events);
  opts.max_events = (base_events + eq_events) / 2;

  const auto offer_counts = [&] {
    std::vector<int> counts;
    for (std::atomic<int>& n : offers) counts.push_back(n.exchange(0));
    return counts;
  };
  (void)offer_counts();

  opts.isolate_failures = true;
  const Report serial = run_bounded(st, opts);
  const std::vector<int> every_cell = offer_counts();
  ASSERT_TRUE(serial.at("long", "baseline").failed);
  EXPECT_FALSE(serial.at("long", "equivalent").failed);
  EXPECT_FALSE(serial.at("long", "equivalent").errors.has_value());
  for (const char* s : {"short0", "short1"}) {
    EXPECT_FALSE(serial.at(s, "baseline").failed) << s;
    ASSERT_TRUE(serial.at(s, "equivalent").errors.has_value()) << s;
    EXPECT_TRUE(serial.at(s, "equivalent").errors->exact()) << s;
  }
  const std::string ref_json = blank_walls(serial).to_json();
  for (const int threads : {1, 2, 8}) {
    opts.threads = threads;
    EXPECT_EQ(blank_walls(run_bounded(st, opts)).to_json(), ref_json)
        << "threads=" << threads;
    EXPECT_EQ(offer_counts(), every_cell) << "threads=" << threads;
  }

  // Outside isolation every cell still runs (the same offers as above),
  // then the failed reference's exception is rethrown.
  opts.isolate_failures = false;
  std::vector<std::string> messages;
  for (const int threads : {1, 2, 8}) {
    opts.threads = threads;
    try {
      (void)run_bounded(st, opts);
      ADD_FAILURE() << "threads=" << threads << ": no exception";
    } catch (const SimulationError& e) {
      messages.emplace_back(e.what());
    }
    EXPECT_EQ(offer_counts(), every_cell) << "threads=" << threads;
  }
  ASSERT_EQ(messages.size(), 3u);
  EXPECT_NE(messages[0].find("scenario 'long', backend 'baseline'"),
            std::string::npos)
      << messages[0];
  EXPECT_EQ(messages[1], messages[0]);
  EXPECT_EQ(messages[2], messages[0]);
}

// ------------------------------------- determinism: per-group batch drains

/// The ISSUE acceptance workload: 4+4 LTE receivers of two carrier
/// variants — two equal-structure sub-batches in one kernel.
Scenario lte_4p4() {
  lte::ReceiverConfig c1;
  c1.symbols = 2 * lte::kSymbolsPerSubframe;
  c1.seed = 7;
  lte::ReceiverConfig c2;
  c2.symbols = 3 * lte::kSymbolsPerSubframe;
  c2.seed = 8;
  c2.dsp_ops_per_second = 9e9;
  const auto rx1 = model::share(lte::make_receiver(c1));
  const auto rx2 = model::share(lte::make_receiver(c2));
  std::vector<Scenario> parts;
  for (int i = 0; i < 4; ++i) {
    parts.emplace_back("cc0rx" + std::to_string(i), rx1);
    parts.emplace_back("cc1rx" + std::to_string(i), rx2);
  }
  return study::compose("ca44", parts);
}

/// Run the composed scenario on the equivalent backend with the given
/// group-drain thread count and compare everything observable against the
/// serial reference model.
void expect_parallel_drain_matches_serial(const Scenario& scenario,
                                          int threads) {
  RunConfig serial_rc;
  auto ref = Backend::equivalent().instantiate(scenario, serial_rc);
  ASSERT_TRUE(ref->run().completed);

  RunConfig rc;
  rc.threads = threads;
  auto par = Backend::equivalent().instantiate(scenario, rc);
  ASSERT_TRUE(par->run().completed) << "threads=" << threads;

  EXPECT_EQ(trace::compare_instants(ref->instants(), par->instants()),
            std::nullopt)
      << "threads=" << threads;
  trace::UsageTraceSet ru = ref->usage();
  trace::UsageTraceSet pu = par->usage();
  ru.sort_all();
  pu.sort_all();
  EXPECT_EQ(trace::compare_usage(ru, pu), std::nullopt)
      << "threads=" << threads;

  EXPECT_EQ(ref->end_time(), par->end_time());
  EXPECT_EQ(ref->relation_events(), par->relation_events());
  EXPECT_EQ(ref->instances_computed(), par->instances_computed());
  EXPECT_EQ(ref->arc_terms_evaluated(), par->arc_terms_evaluated());
  EXPECT_EQ(ref->kernel_stats().events_scheduled,
            par->kernel_stats().events_scheduled);
  EXPECT_EQ(ref->kernel_stats().resumes, par->kernel_stats().resumes);
  EXPECT_EQ(ref->kernel_stats().inline_resumes,
            par->kernel_stats().inline_resumes);
}

TEST(ParallelDrainTest, LteFourPlusFourMatchesSerial) {
  const Scenario mixed = lte_4p4();
  ASSERT_EQ(mixed.batch_groups().size(), 2u);
  for (const int threads : {2, 4, 8})
    expect_parallel_drain_matches_serial(mixed, threads);
}

TEST(ParallelDrainTest, RepeatedRunsAreStable) {
  // The stress round: the parallel drain re-run N times must keep
  // producing the serial traces (a scheduling-order sensitivity would show
  // up as flaky inequality here, and as a race under the TSan CI job).
  const Scenario mixed = lte_4p4();
  for (int round = 0; round < 5; ++round)
    expect_parallel_drain_matches_serial(mixed, 4);
}

TEST(ParallelDrainTest, RandomArchGroupsMatchSerial) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 25;
  cfg.multi_rate_producer_probability = 0.4;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto a = model::share(gen::make_random_architecture(seed, cfg));
    const auto b =
        model::share(gen::make_random_architecture(seed + 100, cfg));
    std::vector<Scenario> parts;
    parts.emplace_back("a0", a);
    parts.emplace_back("b0", b);
    parts.emplace_back("a1", a);
    parts.emplace_back("b1", b);
    const Scenario mixed = study::compose("rmix", parts);
    expect_parallel_drain_matches_serial(mixed, 2);
  }
}

TEST(ParallelDrainTest, SingleGroupFallsBackToSerialDrain) {
  // A homogeneous composition has one sub-batch: threads > 1 must take the
  // serial drain (nothing to overlap) and still be exact.
  gen::DidacticConfig cfg;
  cfg.tokens = 30;
  const auto d = model::share(gen::make_didactic(cfg));
  std::vector<Scenario> parts;
  parts.emplace_back("i0", d);
  parts.emplace_back("i1", d);
  parts.emplace_back("i2", d);
  const Scenario homo = study::compose("homo3", parts);
  ASSERT_EQ(homo.batch_groups().size(), 1u);
  expect_parallel_drain_matches_serial(homo, 8);
}

/// source -> work -> sink, where work's load query fails at iteration
/// \p throw_at (never when it is out of range), recording the thread it
/// failed on in \p thrower.
model::DescPtr load_chain(std::uint64_t throw_at, std::int64_t ops,
                          std::atomic<std::thread::id>* thrower) {
  model::ArchitectureDesc d;
  const auto p = d.add_resource("P", model::ResourcePolicy::kConcurrent, 1e9);
  const auto in = d.add_rendezvous("IN");
  const auto out = d.add_rendezvous("OUT");
  const auto f = d.add_function("work", p);
  d.fn_read(f, in);
  d.fn_execute(f, [throw_at, ops, thrower](const model::TokenAttrs&,
                                           std::uint64_t k) -> std::int64_t {
    if (k != throw_at) return ops;
    thrower->store(std::this_thread::get_id());
    throw std::runtime_error("load failed at k = " + std::to_string(k));
  });
  d.fn_write(f, out);
  d.add_source(
      "src", in, 20,
      [](std::uint64_t k) {
        return TimePoint::at_ps(static_cast<std::int64_t>(k) * 10'000);
      },
      [](std::uint64_t) { return model::TokenAttrs{}; });
  d.add_sink("sink", out);
  d.validate();
  return model::share(std::move(d));
}

TEST(ParallelDrainTest, ExceptionCrossesTheDrainIdenticallyAtAnyThreadCount) {
  // Two sub-batches fed in lock-step, so their barriers are busy together
  // and the parallel drain runs them on separate slots; one group's load
  // closure throws mid-run.
  std::atomic<std::thread::id> thrower;
  const auto bad = load_chain(7, 1000, &thrower);
  const auto good = load_chain(std::numeric_limits<std::uint64_t>::max(),
                               2000, &thrower);
  std::vector<Scenario> parts;
  parts.emplace_back("g0", good);
  parts.emplace_back("b0", bad);
  parts.emplace_back("g1", good);
  parts.emplace_back("b1", bad);
  const Scenario mixed = study::compose("throw22", parts);
  ASSERT_EQ(mixed.batch_groups().size(), 2u);

  std::vector<std::string> messages;
  for (const int threads : {1, 2, 8}) {
    RunConfig rc;
    rc.threads = threads;
    auto model = Backend::equivalent().instantiate(mixed, rc);
    try {
      (void)model->run();
      ADD_FAILURE() << "threads=" << threads << ": run did not throw";
    } catch (const std::exception& e) {
      messages.emplace_back(e.what());
    }
    // The failing group is group 1: with a crew it drains on a worker.
    EXPECT_EQ(thrower.load() == std::this_thread::get_id(), threads == 1)
        << "threads=" << threads;
    model.reset();  // destructs cleanly after the throw
  }
  ASSERT_EQ(messages.size(), 3u);
  EXPECT_NE(messages[0].find("load failed at k = 7"), std::string::npos)
      << messages[0];
  EXPECT_EQ(messages[1], messages[0]);
  EXPECT_EQ(messages[2], messages[0]);
}

TEST(ParallelDrainTest, NegativeThreadsRejected) {
  // Only 1 (serial) and 0 (one per hardware thread) are defined below 2;
  // rejected with and without sub-batches.
  const study::Study st = matrix_study();
  RunConfig rc;
  rc.threads = -1;
  for (const Scenario& s : st.scenarios())
    EXPECT_THROW((void)Backend::equivalent().instantiate(s, rc), Error)
        << s.name();
}

// ------------------------------------------------- both levers stacked

TEST(ParallelStudyTest, MatrixAndGroupThreadsCompose) {
  // threads (cells) on top of group_threads (drains inside each composed
  // cell): every matrix cell builds and runs its own drain crew on real
  // work, and the report must still match the all-serial bytes.
  study::Study st;
  st.add(lte_4p4());
  st.add(Backend::baseline());
  st.add(Backend::equivalent());

  StudyOptions opts;
  const std::string ref_json = blank_walls(st.run(opts)).to_json();
  opts.threads = 4;
  opts.group_threads = 4;
  const std::string par_json = blank_walls(st.run(opts)).to_json();
  EXPECT_EQ(par_json, ref_json);
}

}  // namespace
}  // namespace maxev
