/// \file bench_ablation.cpp
/// Ablations of the design choices docs/DESIGN.md §4 calls out:
///  0. the substrate's native per-event cost (the denominator of every
///     speed-up this library reports);
///  1. graph folding (paper's Fig. 3 compact form) vs the raw
///     per-statement graph — same instants, different computation cost;
///  2. the analytic (max,+) throughput bound (maximum cycle ratio of the
///     TDG) vs the measured steady-state output period;
///  3. marginal computation cost per padding node (the slope behind
///     Fig. 5's degradation);
///  4. event-cost sensitivity (speed-up vs synthetic per-event cost);
///  5. batched vs isolated multi-instance composition (docs/DESIGN.md §9):
///     N same-description LTE receivers in one kernel, evaluated through
///     one shared tdg::BatchEngine program vs the N-fold merged graph,
///     swept over per-instance graph complexity (padding);
///  6. heterogeneous sub-batch grouping (docs/DESIGN.md §10): a mixed
///     4+4 composition of two carrier-aggregation receiver variants, each
///     equal-structure quad on its own shared program, vs the
///     fully-isolated merged graph;
///  8. the serve subsystem (docs/DESIGN.md §13): program-cache cold vs
///     warm cell setup and study-matrix wall clock (byte-identical
///     reports), and the incremental-feed overhead of a streaming
///     serve::Session vs the same scenario run one-shot (bit-identical
///     traces);
///  10. the adaptive backend (docs/DESIGN.md §15): steady-state LTE
///     fast-forward speed-up at a long horizon vs the equivalent model,
///     and the detector's overhead on an aperiodic (varying-frame)
///     workload that never certifies.
///
/// With `--json <path>` (or `--json=<path>`) the key metrics are also
/// written as a JSON document — the repo's bench trajectory
/// (scripts/bench_report.sh, BENCH_<n>.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#if __has_include(<malloc.h>)
#include <malloc.h>
#endif
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/equivalent_model.hpp"
#include "core/experiment.hpp"
#include "gen/didactic.hpp"
#include "lte/receiver.hpp"
#include "serve/program_cache.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "sim/kernel.hpp"
#include "study/study.hpp"
#include "trace/instants.hpp"
#include "tdg/derive.hpp"
#include "tdg/export.hpp"
#include "tdg/simplify.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace maxev;
using namespace maxev::literals;

double time_equivalent(const model::ArchitectureDesc& desc,
                       core::EquivalentModel::Options opts,
                       std::uint64_t* instances) {
  core::EquivalentModel eq(desc, {}, opts);
  const auto t0 = std::chrono::steady_clock::now();
  (void)eq.run();
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (instances != nullptr) *instances = eq.engine().instances_computed();
  return s;
}

/// Wall-clock nanoseconds of one timed-wait kernel event.
double measure_native_event_ns() {
  constexpr std::int64_t kEvents = 2'000'000;
  sim::Kernel kernel;
  kernel.spawn("p", [&kernel]() -> sim::Process {
    for (std::int64_t i = 0; i < kEvents; ++i) co_await kernel.delay(1_ns);
  });
  const auto t0 = std::chrono::steady_clock::now();
  kernel.run();
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return s / static_cast<double>(kEvents) * 1e9;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(M_TRIM_THRESHOLD) && defined(M_MMAP_THRESHOLD)
  // Keep freed pages resident across reps. Model runs allocate and free tens
  // of MB of trace storage each; with default glibc behavior the allocator
  // hands those pages back to the kernel between reps, so every timed rep
  // re-faults zeroed pages. For the short arms (e.g. the adaptive
  // fast-forward, Ablation 10) that page-zeroing is larger than the work
  // being measured. All arms run in the same process, so this shifts no
  // comparison — it only takes the kernel out of the timings.
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
#endif
  const std::string json_path = extract_json_flag(argc, argv);
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
    return 2;
  }

  // --- 0. native kernel event cost ----------------------------------------
  const double event_ns = measure_native_event_ns();
  std::printf("Ablation 0: native kernel cost\n");
  std::printf("  one timed-wait event         : %.1f ns\n\n", event_ns);

  // --- 1. fold vs raw -----------------------------------------------------
  gen::DidacticConfig cfg;
  cfg.tokens = 20000;
  const model::ArchitectureDesc desc = gen::make_didactic(cfg);

  core::EquivalentModel::Options folded;
  folded.fold = true;
  core::EquivalentModel::Options raw;
  raw.fold = false;

  std::uint64_t inst_folded = 0, inst_raw = 0;
  const double t_folded = time_equivalent(desc, folded, &inst_folded);
  const double t_raw = time_equivalent(desc, raw, &inst_raw);

  tdg::DerivedTdg derived = tdg::derive_full_tdg(desc);
  const std::size_t raw_nodes = derived.graph.node_count();
  tdg::Graph g = tdg::fold_pass_through(derived.graph);
  const std::size_t folded_nodes = g.node_count();

  ConsoleTable t1({"graph form", "nodes", "instances computed", "run (s)"});
  t1.add_row({"raw (per statement)", format("%zu", raw_nodes),
              with_commas(static_cast<std::int64_t>(inst_raw)),
              format("%.3f", t_raw)});
  t1.add_row({"folded (Fig. 3 form)", format("%zu", folded_nodes),
              with_commas(static_cast<std::int64_t>(inst_folded)),
              format("%.3f", t_folded)});
  std::printf("Ablation 1: fold_pass_through (identical instants, checked by "
              "the test suite)\n%s\n",
              t1.render().c_str());

  // --- 2. analytic throughput bound vs measurement -------------------------
  // Self-timed didactic: the steady-state output period equals the maximum
  // cycle ratio of the TDG (mean durations over the token-size
  // distribution).
  g.freeze();
  const auto attrs_provider = [&](model::SourceId, std::uint64_t k) {
    return desc.sources()[0].attrs(k);
  };
  const auto bound = tdg::throughput_bound(g, attrs_provider, 4096);

  core::EquivalentModel eq(desc, {});
  (void)eq.run();
  const trace::InstantSeries* out = eq.instants().find("M6");
  const std::size_t n = out->size();
  const double measured_period =
      (out->values()[n - 1] - out->values()[n / 2]).seconds() /
      static_cast<double>(n - 1 - n / 2) * 1e12;
  const double bound_rel_diff =
      (measured_period - bound.max_ratio) / bound.max_ratio;

  std::printf("Ablation 2: throughput bound\n");
  std::printf("  max cycle ratio (analytic)   : %s/iteration\n",
              Duration::ps(static_cast<std::int64_t>(bound.max_ratio))
                  .to_string()
                  .c_str());
  std::printf("  measured steady-state period : %s/iteration\n",
              Duration::ps(static_cast<std::int64_t>(measured_period))
                  .to_string()
                  .c_str());
  std::printf("  relative difference          : %.2f%%\n\n",
              100.0 * bound_rel_diff);

  // --- 3. marginal cost per node -------------------------------------------
  struct PadRow {
    std::size_t pad;
    double run_s;
    double ns_per_token_per_node;
  };
  std::vector<PadRow> pad_rows;
  ConsoleTable t3({"pad nodes", "run (s)", "ns per token per node"});
  const double t_base = time_equivalent(desc, folded, nullptr);
  for (std::size_t pad : {200u, 1000u, 5000u}) {
    core::EquivalentModel::Options opts;
    opts.pad_nodes = pad;
    const double t = time_equivalent(desc, opts, nullptr);
    const double per_node =
        (t - t_base) / static_cast<double>(cfg.tokens) /
        static_cast<double>(pad) * 1e9;
    pad_rows.push_back({pad, t, per_node});
    t3.add_row({format("%zu", pad), format("%.3f", t),
                format("%.3f", per_node)});
  }
  std::printf("Ablation 3: per-node computation cost (Fig. 5's slope)\n%s\n",
              t3.render().c_str());

  // --- 4. event-cost sensitivity -------------------------------------------
  // The method's gain is (events saved) x (cost per event). Sweeping a
  // synthetic per-event cost shows the speed-up climbing from this
  // substrate's native value toward the kernel-event ratio — the regime of
  // the paper's SystemC/CoFluent measurements.
  gen::DidacticConfig scfg;
  scfg.tokens = 4000;
  const model::ArchitectureDesc sdesc = gen::make_didactic(scfg);
  struct SensRow {
    double overhead_ns;
    double speedup;
    double kernel_event_ratio;
  };
  std::vector<SensRow> sens_rows;
  ConsoleTable t4({"per-event cost", "speed-up", "kernel-event ratio"});
  for (double ns : {0.0, 250.0, 1000.0, 4000.0}) {
    core::ExperimentOptions opts;
    opts.repetitions = 1;
    opts.observe = false;
    opts.compare_traces = false;
    opts.event_overhead_ns = ns;
    const core::Comparison cmp = core::run_comparison(sdesc, opts);
    sens_rows.push_back({ns, cmp.speedup, cmp.kernel_event_ratio});
    t4.add_row({ns == 0.0 ? format("native (%.0fns)", event_ns)
                          : format("+%.0fns", ns),
                format("%.2f", cmp.speedup),
                format("%.2f", cmp.kernel_event_ratio)});
  }
  std::printf("Ablation 4: event-cost sensitivity (didactic example)\n%s\n",
              t4.render().c_str());

  // --- 5. batched vs isolated multi-instance composition -------------------
  // N identical LTE receivers share one description (study::compose keeps
  // them batch-eligible) and run in one kernel either through the batched
  // equivalent model (one compiled program + shared frame arena) or the
  // isolated merged graph (RunConfig::batch_composed off). Padding
  // sweeps the per-instance TDG complexity: at pad 0 the composed receiver
  // is kernel-bound and batching is neutral; as computation grows (the
  // Fig. 5 regime) the shared-program fronts pull ahead.
  constexpr std::size_t kBatchInstances = 8;
  constexpr std::uint64_t kBatchSymbols = 2000;
  lte::ReceiverConfig bcfg;
  bcfg.symbols = kBatchSymbols;
  bcfg.seed = 2014;
  const model::DescPtr receiver = model::share(lte::make_receiver(bcfg));
  struct BatchRow {
    std::size_t pad;
    double isolated_s;
    double batched_s;
    double speedup;
  };
  std::vector<BatchRow> batch_rows;
  ConsoleTable t5({"pad/instance", "isolated (s)", "batched (s)", "speed-up"});
  for (std::size_t pad : {0u, 100u, 400u}) {
    std::vector<study::Scenario> parts;
    for (std::size_t i = 0; i < kBatchInstances; ++i) {
      study::Scenario s("rx" + std::to_string(i), receiver);
      s.with_pad_nodes(pad);
      parts.push_back(std::move(s));
    }
    const study::Scenario composed = study::compose("ca8", parts);
    double wall[2] = {0.0, 0.0};
    for (int batched = 0; batched < 2; ++batched) {
      study::RunConfig rc;
      rc.batch_composed = batched == 1;
      double best = 1e100;
      for (int rep = 0; rep < 3; ++rep) {
        auto model = study::Backend::equivalent().instantiate(composed, rc);
        const auto t0 = std::chrono::steady_clock::now();
        (void)model->run();
        best = std::min(
            best, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
      }
      wall[batched] = best;
    }
    const double speedup = wall[0] / wall[1];
    batch_rows.push_back({pad, wall[0], wall[1], speedup});
    t5.add_row({format("%zu", pad), format("%.3f", wall[0]),
                format("%.3f", wall[1]), format("%.2fx", speedup)});
  }
  std::printf("Ablation 5: batched vs isolated composition (%zu LTE "
              "receivers, %s symbols each)\n%s\n",
              kBatchInstances,
              with_commas(static_cast<std::int64_t>(kBatchSymbols)).c_str(),
              t5.render().c_str());

  // --- 6. heterogeneous sub-batch grouping ---------------------------------
  // A mixed composition: 4+4 receivers of two carrier-aggregation variants
  // (different bandwidths, hence structurally distinct descriptions). The
  // grouped path runs each equal-structure quad through its own shared
  // tdg::Program + BatchEngine; the isolated path compiles the 8-fold
  // merged graph. Same padding sweep as Ablation 5.
  constexpr std::size_t kMixedPerVariant = 4;
  constexpr std::uint64_t kMixedSymbols = 2000;
  const std::vector<lte::CarrierVariant> variants =
      lte::carrier_aggregation_variants(2, kMixedSymbols, 2014);
  std::vector<model::DescPtr> variant_descs;
  for (const lte::CarrierVariant& v : variants)
    variant_descs.push_back(model::share(lte::make_receiver(v.config)));
  struct MixedRow {
    std::size_t pad;
    double isolated_s;
    double batched_s;
    double speedup;
  };
  std::vector<MixedRow> mixed_rows;
  ConsoleTable t6({"pad/instance", "isolated (s)", "batched (s)", "speed-up"});
  for (std::size_t pad : {0u, 100u, 400u}) {
    std::vector<study::Scenario> parts;
    for (std::size_t v = 0; v < variant_descs.size(); ++v) {
      for (std::size_t i = 0; i < kMixedPerVariant; ++i) {
        study::Scenario s(variants[v].name + "rx" + std::to_string(i),
                          variant_descs[v]);
        s.with_pad_nodes(pad);
        parts.push_back(std::move(s));
      }
    }
    const study::Scenario composed = study::compose("camix8", parts);
    double wall[2] = {0.0, 0.0};
    for (int batched = 0; batched < 2; ++batched) {
      study::RunConfig rc;
      rc.batch_composed = batched == 1;
      double best = 1e100;
      for (int rep = 0; rep < 3; ++rep) {
        auto model = study::Backend::equivalent().instantiate(composed, rc);
        const auto t0 = std::chrono::steady_clock::now();
        (void)model->run();
        best = std::min(
            best, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
      }
      wall[batched] = best;
    }
    const double speedup = wall[0] / wall[1];
    mixed_rows.push_back({pad, wall[0], wall[1], speedup});
    t6.add_row({format("%zu", pad), format("%.3f", wall[0]),
                format("%.3f", wall[1]), format("%.2fx", speedup)});
  }
  std::printf("Ablation 6: heterogeneous sub-batches (%zu+%zu receivers of "
              "two carrier variants, %s symbols each)\n%s\n",
              kMixedPerVariant, kMixedPerVariant,
              with_commas(static_cast<std::int64_t>(kMixedSymbols)).c_str(),
              t6.render().c_str());

  // --- 7. study-matrix thread sweep ----------------------------------------
  // The matrix-level parallelism lever (StudyOptions::threads,
  // docs/DESIGN.md §11): an 8-cell study — 8 platform candidates on the
  // equivalent backend, the design_space example's shape — measured at 1,
  // 2, 4 and 8 worker threads. The report is bit-identical at every
  // setting; only the wall clock moves, and only as far as the machine has
  // cores.
  constexpr std::uint64_t kSweepSymbols = 2000;
  struct ThreadRow {
    int threads;
    double wall_s;
    double speedup;
  };
  std::vector<ThreadRow> thread_rows;
  {
    study::Study sweep;
    for (const double gops : {4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 14.0}) {
      lte::ReceiverConfig rc;
      rc.symbols = kSweepSymbols;
      rc.seed = 7;
      rc.dsp_ops_per_second = gops * 1e9;
      sweep.add(study::Scenario(format("dsp%.0f", gops),
                                lte::make_receiver(rc)));
    }
    sweep.add(study::Backend::equivalent());
    ConsoleTable t7({"threads", "matrix wall (s)", "speed-up vs 1"});
    for (const int threads : {1, 2, 4, 8}) {
      study::StudyOptions so;
      so.threads = threads;
      double best = 1e100;
      for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        (void)sweep.run(so);
        best = std::min(best,
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
      }
      const double speedup =
          thread_rows.empty() ? 1.0 : thread_rows.front().wall_s / best;
      thread_rows.push_back({threads, best, speedup});
      t7.add_row({format("%d", threads), format("%.3f", best),
                  format("%.2fx", speedup)});
    }
    std::printf("Ablation 7: study-matrix thread sweep (8 cells, %s symbols "
                "each, %u hardware threads)\n%s\n",
                with_commas(static_cast<std::int64_t>(kSweepSymbols)).c_str(),
                std::thread::hardware_concurrency(), t7.render().c_str());
  }

  // --- 8. serve: program cache + streaming sessions ------------------------
  // (a) Cell setup cost, cold vs warm: the same heavily-padded didactic
  // abstraction instantiated repeatedly, each construction running the full
  // derive → fold → pad → compile chain (cold) vs hitting one shared
  // serve::ProgramCache (warm). (b) The same lever at the study level: a
  // matrix of cells sharing one description, StudyOptions::program_cache
  // off vs on — the reports must be byte-identical apart from the cache
  // columns. (c) Streaming overhead: a serve::Session fed incrementally
  // vs the identical scenario one-shot; traces are bit-identical, the
  // ratio is the price of the watermark-bounded resumes.
  constexpr std::size_t kCachePad = 4000;
  constexpr int kCacheInstantiations = 8;
  double cache_cold_s = 0.0, cache_warm_s = 0.0;
  double study_cold_s = 0.0, study_warm_s = 0.0;
  bool report_byte_identical = false;
  {
    gen::DidacticConfig ccfg;
    ccfg.tokens = 4;  // timing setup, not simulation
    const model::DescPtr cdesc = model::share(gen::make_didactic(ccfg));
    core::EquivalentModel::Options copts;
    copts.pad_nodes = kCachePad;
    std::size_t sink = 0;  // defeat over-eager optimization
    auto time_instantiations = [&](core::CompiledProvider* provider) {
      copts.compiled = provider;
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCacheInstantiations; ++i) {
        core::EquivalentModel m(cdesc, {}, copts);
        sink += m.graph().node_count();
      }
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count() /
             kCacheInstantiations;
    };
    cache_cold_s = time_instantiations(nullptr);
    serve::ProgramCache cache;
    (void)cache.get(core::CompiledKey::make(cdesc, {}, true, kCachePad));
    cache_warm_s = time_instantiations(&cache);
    if (sink == 0) std::fprintf(stderr, "unexpected: empty graphs built\n");

    // Study matrix sharing one description across cells.
    gen::DidacticConfig mcfg;
    mcfg.tokens = 200;
    const model::DescPtr mdesc = model::share(gen::make_didactic(mcfg));
    study::Study matrix;
    for (int i = 0; i < 6; ++i) {
      study::Scenario s("cell" + std::to_string(i), mdesc);
      s.with_pad_nodes(kCachePad);
      matrix.add(std::move(s));
    }
    matrix.add(study::Backend::equivalent());
    std::string reports[2];
    for (const bool cached : {false, true}) {
      study::StudyOptions so;
      so.program_cache = cached;
      double best = 1e100;
      study::Report rep;
      for (int rep_i = 0; rep_i < 3; ++rep_i) {
        const auto t0 = std::chrono::steady_clock::now();
        rep = matrix.run(so);
        best = std::min(best,
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
      }
      (cached ? study_warm_s : study_cold_s) = best;
      // Blank the wall-clock fields and the cache columns: everything
      // that remains must be byte-identical between the two modes.
      for (study::Cell& c : rep.cells) {
        c.metrics.wall_seconds = 0.0;
        c.speedup_vs_reference = c.is_reference ? 1.0 : 0.0;
        c.cache_hits = -1;
        c.cache_misses = -1;
      }
      reports[cached ? 1 : 0] = rep.to_json();
    }
    report_byte_identical = reports[0] == reports[1];

    ConsoleTable t8a({"path", "cold", "warm", "speed-up"});
    t8a.add_row({"cell setup (s)", format("%.3f", cache_cold_s),
                 format("%.3f", cache_warm_s),
                 format("%.2fx", cache_cold_s / cache_warm_s)});
    t8a.add_row({"6-cell matrix (s)", format("%.3f", study_cold_s),
                 format("%.3f", study_warm_s),
                 format("%.2fx", study_cold_s / study_warm_s)});
    std::printf("Ablation 8a: program cache, pad %zu (reports byte-identical:"
                " %s)\n%s\n",
                kCachePad, report_byte_identical ? "yes" : "NO",
                t8a.render().c_str());
  }

  constexpr std::uint64_t kServeTokens = 4000;
  constexpr std::size_t kServeRounds = 8;
  double serve_one_shot_s = 0.0, serve_incremental_s = 0.0;
  bool serve_bit_identical = false;
  {
    gen::DidacticConfig scfg8;
    scfg8.tokens = kServeTokens;
    scfg8.source_period = Duration::us(10);  // a stream must have spacing
    const model::ArchitectureDesc sdesc8 = gen::make_didactic(scfg8);

    core::EquivalentModel one_shot(sdesc8, {});
    {
      const auto t0 = std::chrono::steady_clock::now();
      (void)one_shot.run();
      serve_one_shot_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    }

    // Stream-ify the scenario: the source becomes `{"type":"stream"}` and
    // its tokens are fed in kServeRounds batches.
    const JsonValue doc = json_parse(serve::desc_to_json(sdesc8));
    auto root = doc.members();
    auto d8 = root.at("desc").members();
    std::vector<JsonValue> sources8;
    for (const JsonValue& src : d8.at("sources").items()) {
      auto s = src.members();
      s["earliest"] =
          JsonValue::object({{"type", JsonValue::string("stream")}});
      s.erase("attrs");
      s.erase("gap");
      sources8.push_back(JsonValue::object(std::move(s)));
    }
    d8["sources"] = JsonValue::array(std::move(sources8));
    root["desc"] = JsonValue::object(std::move(d8));

    const model::SourceDesc& src = sdesc8.sources().front();
    std::vector<serve::Session::FedToken> tokens(src.count);
    for (std::uint64_t k = 0; k < src.count; ++k)
      tokens[k] = {src.earliest(k).count(),
                   src.attrs ? src.attrs(k) : model::TokenAttrs{}};

    serve::Session session(json_dump(JsonValue::object(std::move(root))));
    {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < kServeRounds; ++r) {
        const std::size_t lo = tokens.size() * r / kServeRounds;
        const std::size_t hi = tokens.size() * (r + 1) / kServeRounds;
        session.feed(0, {tokens.begin() + static_cast<std::ptrdiff_t>(lo),
                         tokens.begin() + static_cast<std::ptrdiff_t>(hi)});
        (void)session.poll();
      }
      (void)session.poll();  // fully fed: runs to completion
      serve_incremental_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    }
    serve_bit_identical =
        !trace::compare_instants(one_shot.instants(),
                                 session.model().instants())
             .has_value();

    ConsoleTable t8b({"path", "run (s)", "overhead"});
    t8b.add_row({"one-shot", format("%.3f", serve_one_shot_s), "1.00x"});
    t8b.add_row({format("streamed (%zu rounds)", kServeRounds),
                 format("%.3f", serve_incremental_s),
                 format("%.2fx", serve_incremental_s / serve_one_shot_s)});
    std::printf("Ablation 8b: serve session streaming overhead (%s tokens, "
                "bit-identical: %s)\n%s\n",
                with_commas(static_cast<std::int64_t>(kServeTokens)).c_str(),
                serve_bit_identical ? "yes" : "NO", t8b.render().c_str());
  }

  // --- 10. adaptive fast-forward (docs/DESIGN.md §15) ---------------------
  // Steady state: a fixed-frame LTE receiver at a long horizon, where the
  // detector certifies the 14-symbol subframe period early and the analytic
  // continuation replaces almost the whole run. Aperiodic control: the
  // varying-frame schedule never stabilizes, so the same backend pays only
  // the detector feed on top of the full simulation.
  constexpr std::uint64_t kAdaptiveSymbols = 200'000;
  constexpr std::uint64_t kAperiodicSymbols = 20'000;
  double adaptive_eq_s = 0, adaptive_ff_s = 0;
  bool adaptive_extrapolated = false;
  std::uint64_t adaptive_period = 0, adaptive_ff_iters = 0;
  double aperiodic_eq_s = 0, aperiodic_ad_s = 0;
  {
    const auto time_once = [](const study::Backend& b,
                              const study::Scenario& s,
                              std::optional<study::AdaptiveStats>* stats) {
      auto model = b.instantiate(s);
      const auto t0 = std::chrono::steady_clock::now();
      (void)model->run();
      const double dt = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (stats != nullptr) *stats = model->adaptive_stats();
      return dt;
    };
    // The two backends of each pair are timed interleaved, rep by rep, so a
    // load or frequency shift mid-measurement biases both the same way —
    // the ratio is what the ablation reports, not the absolute times.
    const auto time_pair = [&time_once](const study::Scenario& s, int reps,
                                        double& eq_best, double& ad_best,
                                        std::optional<study::AdaptiveStats>*
                                            stats) {
      eq_best = 1e100;
      ad_best = 1e100;
      for (int rep = 0; rep < reps; ++rep) {
        eq_best = std::min(
            eq_best, time_once(study::Backend::equivalent(), s, nullptr));
        ad_best =
            std::min(ad_best, time_once(study::Backend::adaptive(), s, stats));
      }
    };

    lte::ReceiverConfig acfg;
    acfg.symbols = kAdaptiveSymbols;
    lte::FrameParams frame;
    frame.n_prb = 50;
    frame.modulation = lte::Modulation::kQam64;
    frame.code_rate = 0.75;
    acfg.fixed_frame = frame;
    const study::Scenario steady("lte_fixed",
                                 model::share(lte::make_receiver(acfg)));
    std::optional<study::AdaptiveStats> st;
    time_pair(steady, 3, adaptive_eq_s, adaptive_ff_s, &st);
    if (st.has_value()) {
      adaptive_extrapolated = st->extrapolated;
      adaptive_period = st->detected_period;
      adaptive_ff_iters = st->extrapolated_iterations;
    }

    lte::ReceiverConfig vcfg;
    vcfg.symbols = kAperiodicSymbols;
    vcfg.seed = 2014;
    const study::Scenario varying("lte_varying",
                                  model::share(lte::make_receiver(vcfg)));
    time_pair(varying, 8, aperiodic_eq_s, aperiodic_ad_s, nullptr);

    ConsoleTable t10({"workload", "equivalent (s)", "adaptive (s)", "ratio"});
    t10.add_row({"fixed frame", format("%.3f", adaptive_eq_s),
                 format("%.3f", adaptive_ff_s),
                 format("%.1fx", adaptive_eq_s / adaptive_ff_s)});
    t10.add_row({"varying frame", format("%.3f", aperiodic_eq_s),
                 format("%.3f", aperiodic_ad_s),
                 format("%.2fx", aperiodic_eq_s / aperiodic_ad_s)});
    std::printf("Ablation 10: adaptive fast-forward (fixed frame %s symbols, "
                "varying frame %s; extrapolated=%d period=%llu skipped=%llu)"
                "\n%s\n",
                with_commas(static_cast<std::int64_t>(kAdaptiveSymbols))
                    .c_str(),
                with_commas(static_cast<std::int64_t>(kAperiodicSymbols))
                    .c_str(),
                adaptive_extrapolated ? 1 : 0,
                static_cast<unsigned long long>(adaptive_period),
                static_cast<unsigned long long>(adaptive_ff_iters),
                t10.render().c_str());
  }

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.field("bench", "bench_ablation");
    w.field("tokens", static_cast<std::uint64_t>(cfg.tokens));
    w.field("native_event_ns", event_ns);
    w.key("fold").begin_object();
    w.field("raw_nodes", static_cast<std::uint64_t>(raw_nodes));
    w.field("folded_nodes", static_cast<std::uint64_t>(folded_nodes));
    w.field("raw_instances", inst_raw);
    w.field("folded_instances", inst_folded);
    w.field("raw_run_s", t_raw);
    w.field("folded_run_s", t_folded);
    w.end_object();
    w.key("throughput_bound").begin_object();
    w.field("analytic_ps_per_iteration", bound.max_ratio);
    w.field("measured_ps_per_iteration", measured_period);
    w.field("relative_difference", bound_rel_diff);
    w.end_object();
    w.key("pad_sweep").begin_array();
    for (const PadRow& r : pad_rows) {
      w.begin_object();
      w.field("pad_nodes", static_cast<std::uint64_t>(r.pad));
      w.field("run_s", r.run_s);
      w.field("ns_per_token_per_node", r.ns_per_token_per_node);
      w.end_object();
    }
    w.end_array();
    w.key("event_cost_sweep").begin_array();
    for (const SensRow& r : sens_rows) {
      w.begin_object();
      w.field("event_overhead_ns", r.overhead_ns);
      w.field("speedup", r.speedup);
      w.field("kernel_event_ratio", r.kernel_event_ratio);
      w.end_object();
    }
    w.end_array();
    w.key("batch_sweep").begin_array();
    for (const BatchRow& r : batch_rows) {
      w.begin_object();
      w.field("instances", static_cast<std::uint64_t>(kBatchInstances));
      w.field("symbols", kBatchSymbols);
      w.field("pad_nodes_per_instance", static_cast<std::uint64_t>(r.pad));
      w.field("isolated_run_s", r.isolated_s);
      w.field("batched_run_s", r.batched_s);
      w.field("batched_speedup", r.speedup);
      w.end_object();
    }
    w.end_array();
    w.key("mixed_batch_sweep").begin_array();
    for (const MixedRow& r : mixed_rows) {
      w.begin_object();
      w.field("instances",
              static_cast<std::uint64_t>(2 * kMixedPerVariant));
      w.field("groups", static_cast<std::uint64_t>(2));
      w.field("symbols", kMixedSymbols);
      w.field("pad_nodes_per_instance", static_cast<std::uint64_t>(r.pad));
      w.field("isolated_run_s", r.isolated_s);
      w.field("batched_run_s", r.batched_s);
      w.field("batched_speedup", r.speedup);
      w.end_object();
    }
    w.end_array();
    w.key("study_thread_sweep").begin_array();
    for (const ThreadRow& r : thread_rows) {
      w.begin_object();
      w.field("cells", static_cast<std::uint64_t>(8));
      w.field("symbols", kSweepSymbols);
      w.field("hardware_threads",
              static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
      w.field("threads", static_cast<std::uint64_t>(r.threads));
      w.field("matrix_wall_s", r.wall_s);
      w.field("speedup_vs_serial", r.speedup);
      w.end_object();
    }
    w.end_array();
    w.key("program_cache").begin_object();
    w.field("pad_nodes", static_cast<std::uint64_t>(kCachePad));
    w.field("instantiations", static_cast<std::uint64_t>(kCacheInstantiations));
    w.field("cold_setup_s", cache_cold_s);
    w.field("warm_setup_s", cache_warm_s);
    w.field("warm_setup_speedup", cache_cold_s / cache_warm_s);
    w.field("study_cells", static_cast<std::uint64_t>(6));
    w.field("study_cold_wall_s", study_cold_s);
    w.field("study_warm_wall_s", study_warm_s);
    w.field("study_warm_speedup", study_cold_s / study_warm_s);
    w.field("report_byte_identical", report_byte_identical);
    w.end_object();
    w.key("serve_session").begin_object();
    w.field("tokens", kServeTokens);
    w.field("rounds", static_cast<std::uint64_t>(kServeRounds));
    w.field("one_shot_s", serve_one_shot_s);
    w.field("incremental_s", serve_incremental_s);
    w.field("incremental_overhead", serve_incremental_s / serve_one_shot_s);
    w.field("bit_identical", serve_bit_identical);
    w.end_object();
    w.key("adaptive").begin_object();
    w.field("steady_symbols", kAdaptiveSymbols);
    w.field("steady_equivalent_s", adaptive_eq_s);
    w.field("steady_adaptive_s", adaptive_ff_s);
    w.field("steady_speedup", adaptive_eq_s / adaptive_ff_s);
    w.field("extrapolated", adaptive_extrapolated);
    w.field("detected_period", adaptive_period);
    w.field("extrapolated_iterations", adaptive_ff_iters);
    w.field("aperiodic_symbols", kAperiodicSymbols);
    w.field("aperiodic_equivalent_s", aperiodic_eq_s);
    w.field("aperiodic_adaptive_s", aperiodic_ad_s);
    w.field("detector_overhead", aperiodic_ad_s / aperiodic_eq_s - 1.0);
    w.end_object();
    w.end_object();
    w.write_file(json_path);
    std::printf("JSON metrics written to %s\n", json_path.c_str());
  }
  return 0;
}
