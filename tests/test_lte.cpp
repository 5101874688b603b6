#include <gtest/gtest.h>

#include "lte/params.hpp"
#include "lte/receiver.hpp"
#include "lte/scenario.hpp"
#include "lte/workload.hpp"
#include "model/baseline.hpp"
#include "study/experiment.hpp"
#include "tdg/derive.hpp"
#include "tdg/simplify.hpp"

namespace maxev::lte {
namespace {

TEST(ParamsTest, SymbolTimingConstants) {
  EXPECT_EQ(kSymbolsPerSubframe, 14);
  // 14 symbols must fit in (almost exactly) one millisecond.
  const auto total = kSymbolPeriod * kSymbolsPerSubframe;
  EXPECT_NEAR(static_cast<double>(total.count()),
              static_cast<double>(kSubframePeriod.count()), 1e4);
  EXPECT_NEAR(kSymbolPeriod.micros(), 71.4286, 1e-3);
}

TEST(ParamsTest, BitsPerSymbol) {
  FrameParams p;
  p.n_prb = 100;
  p.modulation = Modulation::kQam64;
  p.code_rate = 0.75;
  EXPECT_EQ(p.coded_bits_per_symbol(), 100 * 12 * 6);
  EXPECT_EQ(p.info_bits_per_symbol(), 5400);
}

TEST(ParamsTest, ControlSymbolDetection) {
  SymbolInfo s;
  s.symbol_index = 0;
  EXPECT_TRUE(s.is_control());
  s.symbol_index = kControlSymbols;
  EXPECT_FALSE(s.is_control());
}

TEST(WorkloadTest, AttrsEncodeSymbol) {
  FrameParams p;
  p.n_prb = 50;
  p.modulation = Modulation::kQam16;
  SymbolInfo data{p, 5};
  const auto a = symbol_attrs(data);
  EXPECT_EQ(a.size, 50 * 12 * 4);
  EXPECT_DOUBLE_EQ(a.params[0], 50.0);
  EXPECT_DOUBLE_EQ(a.params[1], 4.0);
  EXPECT_DOUBLE_EQ(a.params[2], 1.0);
  SymbolInfo ctrl{p, 1};
  const auto c = symbol_attrs(ctrl);
  EXPECT_EQ(c.size, 0);
  EXPECT_DOUBLE_EQ(c.params[2], 0.0);
}

TEST(WorkloadTest, DataSymbolsCostMoreThanControl) {
  FrameParams p;
  p.n_prb = 100;
  p.modulation = Modulation::kQam64;
  const auto data = symbol_attrs({p, 7});
  const auto ctrl = symbol_attrs({p, 0});
  EXPECT_GT(ops_dsp_total(data), ops_dsp_total(ctrl));
  EXPECT_GT(ops_channel_decoding(data), ops_channel_decoding(ctrl));
}

TEST(WorkloadTest, DspFitsSymbolPeriod) {
  // Real-time sanity: the heaviest symbol's DSP work at the modeled rate
  // must fit within one symbol period.
  FrameParams p;
  p.n_prb = 100;
  p.modulation = Modulation::kQam64;
  const auto a = symbol_attrs({p, 7});
  const double busy_us =
      static_cast<double>(ops_dsp_total(a)) / kDspOpsPerSecond * 1e6;
  EXPECT_LT(busy_us, kSymbolPeriod.micros());
  EXPECT_GT(busy_us, 0.3 * kSymbolPeriod.micros());
}

TEST(WorkloadTest, DecoderLoadScalesWithModulation) {
  FrameParams p;
  p.n_prb = 100;
  p.code_rate = 0.75;
  p.modulation = Modulation::kQpsk;
  const auto qpsk = ops_channel_decoding(symbol_attrs({p, 7}));
  p.modulation = Modulation::kQam64;
  const auto qam64 = ops_channel_decoding(symbol_attrs({p, 7}));
  EXPECT_EQ(qam64, qpsk * 3);
}

TEST(ReceiverTest, StructureMatchesPaper) {
  ReceiverConfig cfg;
  cfg.symbols = 14;
  const auto d = make_receiver(cfg);
  // Eight functions, two processing resources (paper Section V).
  EXPECT_EQ(d.functions().size(), 8u);
  EXPECT_EQ(d.resources().size(), 2u);
  EXPECT_EQ(d.schedule(0).size(), 7u);  // DSP runs seven functions
  EXPECT_EQ(d.schedule(1).size(), 1u);  // decoder is dedicated
  EXPECT_EQ(d.channels().size(), 9u);
}

TEST(ReceiverTest, TdgIsCompact) {
  ReceiverConfig cfg;
  cfg.symbols = 14;
  const auto d = make_receiver(cfg);
  tdg::Graph g = tdg::fold_pass_through(tdg::derive_full_tdg(d).graph);
  // Paper: "This graph contains 11 nodes." Our derivation yields 10 live
  // nodes (u, the 8 channel instants, the output offer) and 12 in the
  // Fig. 3 counting convention (two history references), bracketing the
  // published count; see docs/EXPERIMENTS.md.
  EXPECT_EQ(g.node_count(), 10u);
  EXPECT_EQ(g.paper_node_count(), 12u);
}

TEST(ReceiverTest, BaselineProcessesOneFrame) {
  ReceiverConfig cfg;
  cfg.symbols = 14;
  cfg.schedule = fixed_frame_schedule({100, Modulation::kQam64, 0.75});
  const auto d = make_receiver(cfg);
  model::ModelRuntime rt(d);
  const auto outcome = rt.run();
  ASSERT_TRUE(outcome.completed) << outcome.stall_report;
  // All 14 symbols decoded within ~2 subframes.
  EXPECT_LT(rt.end_time().count(), (2 * kSubframePeriod).count());
  EXPECT_EQ(rt.sink_received(0), 14u);
}

TEST(ReceiverTest, EquivalenceOnVaryingFrames) {
  ReceiverConfig cfg;
  cfg.symbols = 14 * 20;  // 20 subframes with varying parameters
  cfg.seed = 7;
  const auto d = make_receiver(cfg);
  study::ExperimentOptions opts;
  opts.repetitions = 1;
  const auto cmp = study::run_comparison(d, opts);
  EXPECT_TRUE(cmp.accurate()) << cmp.to_string();
  EXPECT_GT(cmp.event_ratio, 3.0);
}

TEST(ScenarioTest, GopsLevelsMatchFigure6Shape) {
  // One subframe at full allocation: DSP windowed GOPS must sit in the
  // published 4 (control) / ~8 (data) bands; the decoder's data-symbol
  // GOPS must dwarf the DSP's (75-150 band).
  ReceiverConfig cfg;
  cfg.symbols = 14;
  cfg.schedule = fixed_frame_schedule({100, Modulation::kQam64, 0.75});
  const auto d = make_receiver(cfg);
  model::ModelRuntime rt(d);
  ASSERT_TRUE(rt.run().completed);
  const SymbolGops gops = per_symbol_gops(rt.usage());
  ASSERT_GE(gops.dsp.size(), 14u);

  // Control region (symbols 0..2): ~4 GOPS.
  for (int s = 0; s < 3; ++s)
    EXPECT_NEAR(gops.dsp[static_cast<std::size_t>(s)].gops, 4.0, 1.5)
        << "control symbol " << s;
  // Data region: ~8 GOPS.
  for (int s = 4; s < 12; ++s)
    EXPECT_NEAR(gops.dsp[static_cast<std::size_t>(s)].gops, 8.0, 2.0)
        << "data symbol " << s;

  double peak_dec = 0.0;
  for (const auto& w : gops.decoder) peak_dec = std::max(peak_dec, w.gops);
  EXPECT_GT(peak_dec, 75.0);
  EXPECT_LE(peak_dec, 150.0 + 1e-6);
}

TEST(ScenarioTest, DspFeasibilityReport) {
  ReceiverConfig cfg;
  cfg.symbols = 14;
  cfg.schedule = fixed_frame_schedule({100, Modulation::kQam64, 0.75});
  const auto d = make_receiver(cfg);
  model::ModelRuntime rt(d);
  ASSERT_TRUE(rt.run().completed);
  const Feasibility f = dsp_feasibility(rt.usage());
  EXPECT_TRUE(f.feasible) << f.to_string();
  EXPECT_GT(f.worst_symbol_busy_us, 0.0);
  EXPECT_NE(f.to_string().find("feasible"), std::string::npos);
}

TEST(ScenarioTest, FrameScheduleDeterministic) {
  const FrameSchedule a = varying_frame_schedule(5);
  const FrameSchedule b = varying_frame_schedule(5);
  for (std::uint64_t s = 0; s < 20; ++s) {
    EXPECT_EQ(a(s).n_prb, b(s).n_prb);
    EXPECT_EQ(static_cast<int>(a(s).modulation),
              static_cast<int>(b(s).modulation));
  }
}

}  // namespace
}  // namespace maxev::lte
