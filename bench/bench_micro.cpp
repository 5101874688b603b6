/// \file bench_micro.cpp
/// Microbenchmarks (google-benchmark) of the primitive costs behind the
/// paper's trade-off: the cost of one kernel event / context switch /
/// rendezvous transfer versus the cost of evaluating one TDG node. The
/// ratio of these two numbers predicts where Fig. 5's crossover lands on
/// this substrate.
///
/// `--json <path>` (or `--json=<path>`) writes the results as JSON next to
/// the console report (shorthand for google-benchmark's --benchmark_out
/// flags; scripts/bench_report.sh uses it for the bench trajectory).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "util/json.hpp"

#include "gen/didactic.hpp"
#include "model/baseline.hpp"
#include "sim/channel.hpp"
#include "sim/kernel.hpp"
#include "tdg/derive.hpp"
#include "tdg/engine.hpp"
#include "tdg/simplify.hpp"

namespace {

using namespace maxev;
using namespace maxev::literals;

/// One timed-wait kernel event (schedule + pop + coroutine resume).
void BM_KernelDelayEvent(benchmark::State& state) {
  const std::int64_t n = state.max_iterations;
  sim::Kernel kernel;
  std::int64_t done = 0;
  kernel.spawn("p", [&]() -> sim::Process {
    for (std::int64_t i = 0; i < n; ++i) {
      co_await kernel.delay(1_ns);
      ++done;
    }
  });
  for (auto _ : state) {
    // Drive exactly one event per benchmark iteration.
    kernel.run(kernel.now() + 1_ns);
  }
  benchmark::DoNotOptimize(done);
}
BENCHMARK(BM_KernelDelayEvent);

/// One rendezvous transfer (writer + reader, two processes).
void BM_RendezvousTransfer(benchmark::State& state) {
  const std::int64_t n = state.max_iterations;
  sim::Kernel kernel;
  sim::Rendezvous<model::Token> ch(kernel, "c");
  kernel.spawn("w", [&]() -> sim::Process {
    for (std::int64_t i = 0; i < n; ++i) {
      co_await kernel.delay(1_ns);
      co_await ch.write(model::Token{});
    }
  });
  kernel.spawn("r", [&]() -> sim::Process {
    for (std::int64_t i = 0; i < n; ++i) (void)co_await ch.read();
  });
  for (auto _ : state) {
    kernel.run(kernel.now() + 1_ns);
  }
  benchmark::DoNotOptimize(ch.transfers());
}
BENCHMARK(BM_RendezvousTransfer);

/// One TDG instance evaluation on a padded pass-through chain.
void BM_TdgNodeEvaluation(benchmark::State& state) {
  const auto pad = static_cast<std::size_t>(state.range(0));
  const model::ArchitectureDesc desc = gen::make_didactic({});
  tdg::DerivedTdg derived = tdg::derive_full_tdg(desc);
  tdg::Graph g = tdg::fold_pass_through(derived.graph);
  g = tdg::pad_graph(g, pad);
  g.freeze();
  tdg::Engine engine(g);
  const tdg::NodeId u = g.find("u:M1");
  model::TokenAttrs attrs;
  attrs.size = 512;
  std::uint64_t k = 0;
  for (auto _ : state) {
    engine.set_attrs(0, k, attrs);
    engine.set_external(u, k, TimePoint::at_ps(static_cast<std::int64_t>(k) * 1000));
    engine.set_retain_floor(k + 1);
    ++k;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(engine.instances_computed()));
  // kIsRate divides by the wall time in seconds and kInvert flips it, so
  // counting nodes in units of 1e9 turns s/node into ns/node.
  state.counters["ns_per_node"] = benchmark::Counter(
      static_cast<double>(engine.instances_computed()) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TdgNodeEvaluation)->Arg(0)->Arg(100)->Arg(1000);

/// Full ComputeInstant() for one didactic iteration (what replaces ~6
/// relation events).
void BM_ComputeInstantDidactic(benchmark::State& state) {
  const model::ArchitectureDesc desc = gen::make_didactic({});
  tdg::DerivedTdg derived = tdg::derive_full_tdg(desc);
  tdg::Graph g = tdg::fold_pass_through(derived.graph);
  g.freeze();
  tdg::Engine engine(g);
  const tdg::NodeId u = g.find("u:M1");
  model::TokenAttrs attrs;
  attrs.size = 512;
  std::uint64_t k = 0;
  for (auto _ : state) {
    engine.set_attrs(0, k, attrs);
    engine.set_external(u, k, TimePoint::at_ps(static_cast<std::int64_t>(k) * 1000));
    engine.set_retain_floor(k + 1);
    ++k;
  }
}
BENCHMARK(BM_ComputeInstantDidactic);

/// Baseline didactic simulation cost per token (all events included).
void BM_BaselinePerToken(benchmark::State& state) {
  gen::DidacticConfig cfg;
  cfg.tokens = 2000;
  for (auto _ : state) {
    state.PauseTiming();
    const model::ArchitectureDesc desc = gen::make_didactic(cfg);
    model::ModelRuntime rt(desc);
    state.ResumeTiming();
    (void)rt.run();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.tokens));
}
BENCHMARK(BM_BaselinePerToken)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Translate --json[=]<path> into google-benchmark's out-file flags, pass
  // everything else through untouched.
  const std::string json_path = maxev::extract_json_flag(argc, argv);
  std::vector<char*> args(argv, argv + argc);
  std::vector<std::string> storage;
  if (!json_path.empty()) {
    storage.push_back("--benchmark_out=" + json_path);
    storage.push_back("--benchmark_out_format=json");
    for (std::string& s : storage) args.push_back(s.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
