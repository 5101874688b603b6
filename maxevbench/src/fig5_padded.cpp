/// \file fig5_padded.cpp
/// The Fig. 5 pipeline (|X| = 10) padded to the high end of the Fig. 5
/// node sweep, as one scenario. On the equivalent backend nearly all the
/// work is single-instance tdg::Engine compute, and set-up (derive, fold,
/// pad, compile) grows with the padding. One baseline and one adaptive run
/// of the same pipeline check its instants.

#include "bench.hpp"
#include "gen/padded.hpp"
#include "serve/program_cache.hpp"

namespace maxevbench {

using namespace maxev;

namespace {

constexpr std::size_t kXSize = 10;
constexpr std::size_t kNodes = 5000;  // Fig. 5's largest node target
constexpr std::uint64_t kTokens = 300;

study::Scenario make_input(std::uint64_t seed) {
  gen::PipelineConfig cfg;
  cfg.x_size = kXSize;
  cfg.tokens = kTokens;
  cfg.seed = seed;
  study::Scenario s("fig5", gen::make_pipeline(cfg));
  s.with_pad_nodes(kNodes - (kXSize + 1));
  return s;
}

void measure(const Args& args, const study::Scenario& s, Result& r) {
  const study::Backend eq = study::Backend::equivalent();
  const study::Backend base = study::Backend::baseline();
  const study::Backend ad = study::Backend::adaptive();
  serve::ProgramCache cache;
  study::RunConfig warm;
  warm.compiled = &cache;
  Tracer off(false);
  Replay rp(off, r);
  // Rounds interleave every measured quantity, so a slow stretch of the
  // host weighs on all of them alike. The first round's outputs are
  // verified.
  Samples setup;
  bool first = true;
  measure_rounds(args, 1, [&] {
    time_each(setup, kSetupsPerRound, [&] { (void)eq.instantiate(s); });
    const auto e = rp.run(eq, s, warm, Regime::kAperiodic);
    const auto b = rp.run(base, s, {}, Regime::kAperiodic);
    const auto a = rp.run(ad, s, warm, Regime::kAperiodic);
    if (!std::exchange(first, false)) return;
    check_same_traces(r, *b, *e, "fig5/equivalent");
    check_same_traces(r, *b, *a, "fig5/adaptive");
  });

  r.metric("setup_s", setup.fast(), "s");
  r.metric("baseline_tokens_per_s", rp.tokens_per_s(base, {s}), "tokens/s");
  r.metric("equivalent_tokens_per_s", rp.tokens_per_s(eq, {s}), "tokens/s");
  r.metric("adaptive_tokens_per_s", rp.tokens_per_s(ad, {s}), "tokens/s");
  r.metric("answer_wall_s", rp.total_s(s, eq).fast(), "s");
}

void replay(const study::Scenario& s, Tracer& t, Replay& rp, Result& r) {
  const auto base =
      rp.run(study::Backend::baseline(), s, {}, Regime::kAperiodic);
  const auto eq =
      rp.run(study::Backend::equivalent(), s, {}, Regime::kAperiodic);
  const auto ad = rp.run(study::Backend::adaptive(), s, {}, Regime::kAperiodic);
  rp.compare(*base, *eq, "fig5/equivalent");
  rp.compare(*base, *ad, "fig5/adaptive");
  compile_layer(t, r, {s}, {s});
}

}  // namespace

void fig5_padded(const Args& args, Result& r) {
  const study::Scenario s = make_input(args.seed);
  if (!args.trace) return measure(args, s, r);
  run_traced(args, r, [&](Tracer& t, Replay& rp) { replay(s, t, rp, r); });
}

}  // namespace maxevbench
