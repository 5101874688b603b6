/// \file maxplus_playground.cpp
/// Working directly with the algebraic layer: write the paper's equations
/// (1)-(6) by hand with the GraphBuilder, run ComputeInstant() on them,
/// cross-check against the matrix form (equations (7)-(8)) and against the
/// analytic throughput bound.

#include <cstdio>

#include "maxplus/matrix.hpp"
#include "tdg/builder.hpp"
#include "tdg/engine.hpp"
#include "tdg/export.hpp"
#include "util/strings.hpp"

int main() {
  using namespace maxev;
  using namespace maxev::literals;

  // The didactic equations with constant durations:
  //   Ti1=5us Tj1=3us Ti2=4us Ti3=6us Tj3=2us Ti4=7us.
  tdg::GraphBuilder b;
  b.input("u");
  b.instant("xM1").instant("xM2").instant("xM3").instant("xM4").instant("xM5");
  b.output("xM6");
  b.arc("u", "xM1");                          // (1)
  b.arc("xM4", "xM1").lag(1);
  b.arc("xM1", "xM2").fixed(5_us);            // (2)
  b.arc("xM5", "xM2").lag(1);
  b.arc("xM2", "xM3").fixed(3_us);            // (3)
  b.arc("xM3", "xM4").fixed(4_us);            // (4)
  b.arc("xM2", "xM4").fixed(6_us);
  b.arc("xM4", "xM5").fixed(2_us);            // (5)
  b.arc("xM6", "xM5").lag(1);
  b.arc("xM5", "xM6").fixed(7_us);            // (6)
  tdg::Graph g = b.take();
  g.freeze();

  std::printf("hand-built graph: %zu nodes (%zu with history), max lag %u\n\n",
              g.node_count(), g.paper_node_count(), g.max_lag());

  // Drive it with a periodic input u(k) = k * 10us and print X(k). The
  // engine has one instance lane (0); a feed is computed by the next flush.
  tdg::Engine engine(g);
  auto ex = tdg::to_linear_system(
      g, [](model::SourceId, std::uint64_t) { return model::TokenAttrs{}; });

  std::printf("%-4s %-10s %-10s %-10s %-10s %-10s %-10s  matrix-form y\n",
              "k", "xM1", "xM2", "xM3", "xM4", "xM5", "xM6");
  for (std::uint64_t k = 0; k < 8; ++k) {
    const TimePoint u = TimePoint::origin() + 10_us * static_cast<std::int64_t>(k);
    engine.set_external(0, g.find("u"), k, u);
    engine.flush();
    mp::Vector uv(1);
    uv[0] = mp::Scalar::from_time(u);
    const auto step = ex.system.step(uv);
    std::printf("%-4llu ", static_cast<unsigned long long>(k));
    for (const char* n : {"xM1", "xM2", "xM3", "xM4", "xM5", "xM6"})
      std::printf("%-10s ", engine.value(0, g.find(n), k)->to_string().c_str());
    std::printf(" %s\n", TimePoint::at_ps(step.y[0].value()).to_string().c_str());
  }

  // Steady state: the maximum cycle ratio bounds the sustainable rate.
  const auto bound = tdg::throughput_bound(
      g, [](model::SourceId, std::uint64_t) { return model::TokenAttrs{}; });
  std::printf("\nmax cycle ratio: %s per iteration => the architecture "
              "cannot sustain a faster input period\n",
              Duration::ps(static_cast<std::int64_t>(bound.max_ratio))
                  .to_string()
                  .c_str());

  // And the matrix view itself.
  std::printf("\nA(k,1) (history dependences):\n");
  // Rebuild A1 for display.
  mp::Matrix a1(ex.state_nodes.size(), ex.state_nodes.size());
  for (const tdg::Arc& a : g.arcs()) {
    if (a.lag != 1) continue;
    // state index lookup by scanning (display only).
    std::size_t si = 0, di = 0;
    for (std::size_t i = 0; i < ex.state_nodes.size(); ++i) {
      if (ex.state_nodes[i] == a.src) si = i;
      if (ex.state_nodes[i] == a.dst) di = i;
    }
    a1.at(di, si) = mp::Scalar::e();
  }
  std::printf("%s", a1.to_string().c_str());
  return 0;
}
