/// \file lte_composed.cpp
/// 4+4 LTE receivers — four copies each of two carrier-aggregation
/// variants, with moderate per-instance padding — put into one kernel by
/// study::compose and run on the equivalent backend with two drain workers
/// (one per sub-batch). Two tdg::BatchEngine sub-batches do the work; the
/// single-instance engine does none. Each instance's traces are checked
/// against its receiver run solo on the baseline.

#include "bench.hpp"
#include "lte/receiver.hpp"
#include "serve/program_cache.hpp"
#include "study/scenario.hpp"

namespace maxevbench {

using namespace maxev;

namespace {

constexpr std::uint64_t kSymbols = 60 * lte::kSymbolsPerSubframe;
constexpr std::size_t kVariants = 2;
constexpr std::size_t kCopies = 4;
constexpr std::size_t kPad = 100;
constexpr int kThreads = 2;

struct Inputs {
  std::vector<study::Scenario> solo;       ///< one per variant
  std::vector<study::Scenario> instances;  ///< kCopies per variant
  study::Scenario composed;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  for (const lte::CarrierVariant& v :
       lte::carrier_aggregation_variants(kVariants, kSymbols, seed)) {
    const model::DescPtr desc = model::share(lte::make_receiver(v.config));
    in.solo.emplace_back(v.name, desc);
    in.solo.back().with_pad_nodes(kPad);
    for (std::size_t c = 0; c < kCopies; ++c) {
      in.instances.emplace_back(v.name + "r" + std::to_string(c), desc);
      in.instances.back().with_pad_nodes(kPad);
    }
  }
  in.composed = study::compose("ca", in.instances);
  return in;
}

study::RunConfig drain_config(int threads) {
  study::RunConfig cfg;
  cfg.threads = threads;
  return cfg;
}

/// Each instance's traces in \p composed equal its receiver's \p solo run;
/// instance i of the composition holds solo variant i / kCopies.
void check_instances(Result& r, const Inputs& in,
                     const std::vector<std::unique_ptr<study::Model>>& solo,
                     const study::Model& composed) {
  for (std::size_t i = 0; i < in.instances.size(); ++i) {
    const std::string& name = in.instances[i].name();
    const study::Model& ref = *solo[i / kCopies];
    check_same_traces(r, ref.instants(), ref.usage(),
                      study::instance_instants(composed.instants(), name),
                      study::instance_usage(composed.usage(), name),
                      "ca/" + name);
  }
}

void measure(const Args& args, const Inputs& in, Result& r) {
  const study::Backend eq = study::Backend::equivalent();
  const study::Backend base = study::Backend::baseline();
  const study::Backend ad = study::Backend::adaptive();
  serve::ProgramCache cache;
  study::RunConfig warm = drain_config(kThreads);
  warm.compiled = &cache;
  Tracer off(false);
  Replay rp(off, r);
  // Rounds interleave every measured quantity, so a slow stretch of the
  // host weighs on all of them alike. The first round's outputs are
  // verified.
  Samples setup;
  bool first = true;
  measure_rounds(args, kThreads, [&] {
    time_each(setup, kSetupsPerRound, [&] {
      (void)eq.instantiate(in.composed, drain_config(kThreads));
    });
    const auto e = rp.run(eq, in.composed, warm, Regime::kUnsplit);
    std::vector<std::unique_ptr<study::Model>> solo;
    for (const study::Scenario& s : in.solo) {
      solo.push_back(rp.run(base, s, {}, Regime::kSteady));
      const auto a = rp.run(ad, s, warm, Regime::kSteady);
      if (first) check_same_traces(r, *solo.back(), *a, s.name() + "/adaptive");
    }
    if (std::exchange(first, false)) check_instances(r, in, solo, *e);
  });

  r.metric("setup_s", setup.fast(), "s");
  r.metric("baseline_tokens_per_s", rp.tokens_per_s(base, in.solo),
           "tokens/s");
  r.metric("equivalent_tokens_per_s", rp.tokens_per_s(eq, {in.composed}),
           "tokens/s");
  r.metric("adaptive_tokens_per_s", rp.tokens_per_s(ad, in.solo), "tokens/s");
  r.metric("answer_wall_s", rp.total_s(in.composed, eq).fast(), "s");
}

void replay(const Inputs& in, Tracer& t, Replay& rp, Result& r) {
  const study::Scenario composed = t.span("study", "study::compose", [&] {
    return study::compose("ca", in.instances);
  });
  // The same composition drained serially, then by kThreads workers.
  (void)rp.run(study::Backend::equivalent(), composed, drain_config(1),
               Regime::kUnsplit);
  const double serial_s = rp.last_run_s();
  const auto eq = rp.run(study::Backend::equivalent(), composed,
                         drain_config(kThreads), Regime::kUnsplit);
  r.metric("study.parallel_efficiency",
           serial_s / (kThreads * rp.last_run_s()), "ratio");

  std::vector<std::unique_ptr<study::Model>> base;
  for (const study::Scenario& s : in.solo) {
    base.push_back(rp.run(study::Backend::baseline(), s, {}, Regime::kSteady));
    const auto solo_eq =
        rp.run(study::Backend::equivalent(), s, {}, Regime::kSteady);
    const auto ad = rp.run(study::Backend::adaptive(), s, {}, Regime::kSteady);
    rp.compare(*base.back(), *solo_eq, s.name() + "/equivalent");
    rp.compare(*base.back(), *ad, s.name() + "/adaptive");
  }
  for (std::size_t i = 0; i < in.instances.size(); ++i) {
    const std::string& name = in.instances[i].name();
    const auto instants = t.span("study", "study::instance_instants", [&] {
      return study::instance_instants(eq->instants(), name);
    });
    const auto usage = t.span("study", "study::instance_usage", [&] {
      return study::instance_usage(eq->usage(), name);
    });
    const study::Model& solo = *base[i / kCopies];
    rp.compare(solo.instants(), solo.usage(), instants, usage, "ca/" + name);
  }
  compile_layer(t, r, in.solo, {composed}, drain_config(kThreads));
}

}  // namespace

void lte_composed(const Args& args, Result& r) {
  const Inputs in = make_inputs(args.seed);
  if (!args.trace) return measure(args, in, r);
  run_traced(args, r, [&](Tracer& t, Replay& rp) { replay(in, t, rp, r); });
}

}  // namespace maxevbench
