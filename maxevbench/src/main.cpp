/// \file main.cpp
/// maxevbench: runs one workload of the maxev benchmark and prints, as the
/// last line of standard output, one JSON object with the verified
/// operation counts, the metrics, the exact counts and the build settings.
/// run.py builds this program and turns that line into the benchmark's
/// result.
///
///   maxevbench --workload NAME --seed N --seconds S --trace 0|1
///              [--trace-out FILE]

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "bench.hpp"
#include "util/json.hpp"

namespace {

using namespace maxevbench;

const std::map<std::string, std::function<void(const Args&, Result&)>>
    kWorkloads = {{"dse_sweep", dse_sweep},
                  {"fig5_padded", fig5_padded},
                  {"lte_composed", lte_composed},
                  {"serve_stream", serve_stream}};

/// Per-layer metrics that only some workloads exercise; the others report
/// 0 for them.
const std::pair<const char*, const char*> kWorkloadSpecific[] = {
    {"study.parallel_efficiency", "ratio"},
    {"study.report_s", "s"},
    {"study.cache_hit_rate", "ratio"},
    {"serve.submit_ms", "ms"},
    {"serve.feed_ms", "ms"},
    {"serve.checkpoint_ms", "ms"},
    {"serve.restore_ms", "ms"},
    {"serve.poll_p50_ms", "ms"},
    {"serve.poll_p99_ms", "ms"},
    {"serve.response_kb", "kB"},
    {"serve.cache_hit_rate", "ratio"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      a.trace = std::string(val) == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && kWorkloads.count(a.workload) != 0 && a.seconds > 0;
}

/// The settings this program and the library were compiled with.
void write_build(maxev::JsonWriter& w) {
  w.key("build")
      .begin_object()
      .field("build_type", MAXEVBENCH_BUILD_TYPE)
      .field("compiler", MAXEVBENCH_COMPILER)
      .field("simd", MAXEVBENCH_SIMD != 0)
      .field("faults", MAXEVBENCH_FAULTS != 0)
      .field("sanitize", MAXEVBENCH_SANITIZE)
#ifdef NDEBUG
      .field("ndebug", true)
#else
      .field("ndebug", false)
#endif
      .end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage(argv[0]);
#if defined(M_TRIM_THRESHOLD) && defined(M_MMAP_THRESHOLD)
  // Keep freed memory in the process. Every round allocates and frees the
  // same models and traces; by default glibc returns large blocks to the
  // kernel, so each round would fault in freshly zeroed pages, a cost that
  // on a virtual machine swings with the host's load. 32 MiB is glibc's
  // largest mmap threshold on 64-bit targets.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
  Result r;
  try {
    if (args.trace)
      for (const auto& [name, unit] : kWorkloadSpecific)
        r.metric(name, 0.0, unit);
    kWorkloads.at(args.workload)(args, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxevbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!args.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    r.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  }

  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  maxev::JsonWriter w;
  w.begin_object()
      .field("attempted", r.attempted)
      .field("failed", r.failed);
  w.key("failures").begin_array();
  for (const std::string& f : r.failures) w.value(f);
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, m] : r.metrics)
    w.key(name).begin_object().field("value", m.value).field("unit", m.unit)
        .end_object();
  w.end_object();
  w.key("counts").begin_object();
  for (const auto& [name, n] : r.counts) w.field(name, n);
  w.end_object();
  write_build(w);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
