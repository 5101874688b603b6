#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "core/compiled.hpp"
#include "serve/program_cache.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace maxevbench {

using namespace maxev;

namespace {

/// The library modules the traced run attributes time to, in report order.
/// Spans of layer "bench" are the benchmark's own code between calls.
const std::vector<std::string> kLayers = {"sim",   "model", "tdg",   "core",
                                          "trace", "study", "serve", "util"};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double per(double num, std::uint64_t den) {
  return ratio(num, static_cast<double>(den));
}

}  // namespace

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Result::count(const std::string& name, std::uint64_t value) {
  const auto [it, inserted] = counts.emplace(name, value);
  if (!inserted)
    check(it->second == value, "count " + name + " did not repeat: " +
                                   std::to_string(it->second) + " then " +
                                   std::to_string(value));
}

Tracer::Scope::Scope(Tracer& t, const char* layer, std::string name)
    : t_(t), index_(t.spans_.size()) {
  Span s;
  s.name = std::move(name);
  s.layer = layer;
  s.parent = t.open_.empty() ? -1 : static_cast<int>(t.open_.back());
  t.spans_.push_back(std::move(s));
  t.open_.push_back(index_);
  t.spans_[index_].start_ns = t.now_ns();
}

Tracer::Scope::~Scope() {
  t_.spans_[index_].end_ns = t_.now_ns();
  t_.open_.pop_back();
}

double Tracer::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_)
    if (s.name == name) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double> Tracer::layer_self_s() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_layer[spans_[i].layer] += static_cast<double>(self[i]) * 1e-9;
  return by_layer;
}

void Tracer::write_chrome_trace(const std::string& path,
                                const std::string& workload) const {
  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object()
        .field("name", s.name)
        .field("cat", s.layer)
        .field("ph", "X")
        .field("ts", static_cast<double>(s.start_ns) * 1e-3)
        .field("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        .field("pid", std::int64_t{1})
        .field("tid", std::int64_t{1})
        .key("args")
        .begin_object()
        .field("id", static_cast<std::int64_t>(i))
        .field("parent", static_cast<std::int64_t>(s.parent))
        .field("layer", s.layer)
        .field("workload", workload)
        .end_object()
        .end_object();
  }
  w.end_array().field("displayTimeUnit", "ms").end_object();
  std::ofstream f(path);
  f << w.str() << '\n';
  if (!f) throw Error("cannot write trace '" + path + "'");
}

namespace {

std::size_t g_slot = 0;

void pin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  // A failure leaves the thread where it was: the run is then unpinned,
  // not wrong.
  (void)sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

CpuRotation::CpuRotation(int width) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) all_.push_back(c);
  if (width == 1) {
    for (const int c : all_) slots_.push_back({c});
  } else {
    for (std::size_t i = 0; i < all_.size(); ++i)
      for (std::size_t j = i + 1; j < all_.size(); ++j)
        slots_.push_back({all_[i], all_[j]});
  }
  // Too few CPUs for one slot, or none known: one slot, unpinned.
  if (slots_.empty()) slots_.push_back({});
}

CpuRotation::~CpuRotation() {
  if (!all_.empty()) pin(all_);
  g_slot = 0;
}

void CpuRotation::next() {
  g_slot = next_;
  if (!slots_[next_].empty()) pin(slots_[next_]);
  next_ = (next_ + 1) % slots_.size();
}

std::size_t CpuRotation::current() { return g_slot; }

void Samples::add(double v) {
  const std::size_t slot = CpuRotation::current();
  if (by_slot_.size() <= slot) by_slot_.resize(slot + 1);
  by_slot_[slot].push_back(v);
}

double Samples::fast() const {
  std::size_t n = 0;
  for (const auto& s : by_slot_) n += s.size();
  const double enough = 0.5 * static_cast<double>(n) /
                        static_cast<double>(std::max<std::size_t>(
                            1, by_slot_.size()));
  double best = 0.0;
  bool any = false;
  for (const auto& s : by_slot_) {
    if (s.empty() || static_cast<double>(s.size()) < enough) continue;
    const double v = quantile(s, 0.1);
    if (!any || v < best) best = v;
    any = true;
  }
  return best;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t check_same_traces(Result& r,
                                const trace::InstantTraceSet& ref_instants,
                                const trace::UsageTraceSet& ref_usage,
                                const trace::InstantTraceSet& instants,
                                const trace::UsageTraceSet& usage,
                                const std::string& what) {
  const auto di = trace::compare_instants(ref_instants, instants);
  r.check(!di && ref_instants.series_count() == instants.series_count(),
          what + ": instants differ: " + di.value_or("series count"));
  // Busy intervals compare in sorted order, as Study::run compares them:
  // concurrent resources may record overlapping intervals in either order.
  trace::UsageTraceSet ref_sorted = ref_usage, sorted = usage;
  ref_sorted.sort_all();
  sorted.sort_all();
  const auto du = trace::compare_usage(ref_sorted, sorted);
  r.check(!du && ref_usage.all().size() == usage.all().size(),
          what + ": usage differs: " + du.value_or("resource count"));
  return ref_instants.total_instants();
}

void compile_layer(Tracer& t, Result& r,
                   const std::vector<study::Scenario>& keyed,
                   const std::vector<study::Scenario>& instantiated,
                   study::RunConfig cfg) {
  std::vector<core::CompiledKey> keys;
  for (const study::Scenario& s : keyed)
    keys.push_back(core::CompiledKey::make(s.desc_ptr(), s.options().group,
                                           s.options().fold,
                                           s.options().pad_nodes));
  for (const core::CompiledKey& k : keys)
    (void)t.span("core", "compile_abstraction",
                 [&] { return core::compile_abstraction(k); });
  serve::ProgramCache cache;
  for (const core::CompiledKey& k : keys)
    (void)t.span("serve", "ProgramCache::get", [&] { return cache.get(k); });
  cfg.compiled = &cache;
  for (const study::Scenario& s : instantiated)
    (void)t.span("core", "Backend::instantiate warm", [&] {
      return study::Backend::equivalent().instantiate(s, cfg);
    });
  r.metric("core.compile_s", t.total_s("compile_abstraction"), "s");
  r.metric("core.instantiate_s", t.total_s("Backend::instantiate warm"), "s");
}

std::unique_ptr<study::Model> Replay::run(const study::Backend& b,
                                          const study::Scenario& s,
                                          const study::RunConfig& cfg,
                                          Regime regime) {
  const bool baseline = b.kind() == study::Backend::Kind::kBaseline;
  const bool adaptive = b.kind() == study::Backend::Kind::kAdaptive;
  Clock::time_point t0, t1, t2;
  std::unique_ptr<study::Model> m =
      t_.span(baseline ? "model" : "core", "Backend::instantiate " + b.name(),
              [&] {
                t0 = Clock::now();
                return b.instantiate(s, cfg);
              });
  const study::Outcome out = t_.span(
      baseline ? "sim" : adaptive ? "study" : "tdg", "Model::run " + b.name(),
      [&] {
        t1 = Clock::now();
        const study::Outcome o = m->run();
        t2 = Clock::now();
        return o;
      });
  const double run_s = std::chrono::duration<double>(t2 - t1).count();
  last_run_s_ = run_s;
  const std::string what = s.name() + "/" + b.name();
  Walls& w = walls_[what];
  w.run_s.add(run_s);
  w.total_s.add(std::chrono::duration<double>(t2 - t0).count());
  r_.check(out.completed, what + ": run did not complete");
  count_model(r_, what, *m);

  const sim::KernelStats& k = m->kernel_stats();
  Totals& tot = baseline ? baseline_ : adaptive ? adaptive_ : equivalent_;
  tot.run_s += run_s;
  tot.tokens += s.desc().total_source_tokens();
  tot.events += k.events_scheduled;
  tot.relation_events += m->relation_events();
  tot.instances += m->instances_computed();
  events_ += k.events_scheduled;
  resumes_ += k.resumes;
  inline_resumes_ += k.inline_resumes;
  relation_events_ += m->relation_events();
  instances_ += m->instances_computed();
  arc_terms_ += m->arc_terms_evaluated();
  const bool steady = regime == Regime::kSteady;
  const bool split = regime != Regime::kUnsplit;
  if (b.kind() == study::Backend::Kind::kEquivalent) {
    graph_nodes_ = std::max(graph_nodes_, m->graph_shape().nodes);
    graph_arcs_ = std::max(graph_arcs_, m->graph_shape().arcs);
    if (split) (steady ? steady_eq_s_ : aperiodic_eq_s_) += run_s;
  }
  if (const auto a = m->adaptive_stats()) {
    r_.check(a->max_error_ps == 0, what + ": adaptive error bound is not 0");
    extrapolated_ += a->extrapolated_iterations;
    adaptive_iterations_ += s.desc().max_source_tokens();
    refusals_ += a->refusals;
    detected_period_ = std::max(detected_period_, a->detected_period);
    if (split) (steady ? steady_ad_s_ : aperiodic_ad_s_) += run_s;
  }
  return m;
}

const Replay::Walls& Replay::walls(const study::Scenario& s,
                                   const study::Backend& b) const {
  const auto it = walls_.find(s.name() + "/" + b.name());
  if (it == walls_.end())
    throw Error("no runs of " + s.name() + " on " + b.name());
  return it->second;
}

const Samples& Replay::total_s(const study::Scenario& s,
                               const study::Backend& b) const {
  return walls(s, b).total_s;
}

double Replay::tokens_per_s(const study::Backend& b,
                            const std::vector<study::Scenario>& ss) const {
  double tokens = 0.0, secs = 0.0;
  for (const study::Scenario& s : ss) {
    tokens += static_cast<double>(s.desc().total_source_tokens());
    secs += walls(s, b).run_s.fast();
  }
  return tokens / secs;
}

void Replay::compare(const study::Model& ref, const study::Model& m,
                     const std::string& what) {
  compare(ref.instants(), ref.usage(), m.instants(), m.usage(), what);
}

void Replay::compare(const trace::InstantTraceSet& ref_instants,
                     const trace::UsageTraceSet& ref_usage,
                     const trace::InstantTraceSet& instants,
                     const trace::UsageTraceSet& usage,
                     const std::string& what) {
  const auto t0 = Clock::now();
  instants_compared_ += t_.span("trace", "compare " + what, [&] {
    return check_same_traces(r_, ref_instants, ref_usage, instants, usage,
                             what);
  });
  compare_s_ += seconds_since(t0);
}

void Replay::emit() const {
  const auto c = [&](const std::string& name, std::uint64_t v) {
    r_.metric(name, static_cast<double>(v), "count");
  };
  c("sim.events", events_);
  c("sim.resumes", resumes_);
  c("sim.inline_resumes", inline_resumes_);
  r_.metric("sim.baseline_ns_per_event",
            per(baseline_.run_s * 1e9, baseline_.events), "ns");
  c("model.relation_events", relation_events_);
  r_.metric("model.event_ratio",
            ratio(per(baseline_.relation_events, baseline_.tokens),
                  per(equivalent_.relation_events, equivalent_.tokens)),
            "ratio");
  r_.metric("model.speedup_vs_baseline",
            ratio(per(baseline_.run_s, baseline_.tokens),
                  per(equivalent_.run_s, equivalent_.tokens)),
            "ratio");
  c("tdg.instances", instances_);
  c("tdg.arc_terms", arc_terms_);
  c("tdg.graph_nodes", graph_nodes_);
  c("tdg.graph_arcs", graph_arcs_);
  r_.metric("tdg.ns_per_instance",
            per(equivalent_.run_s * 1e9, equivalent_.instances), "ns");
  r_.metric("trace.compare_s", compare_s_, "s");
  c("trace.instants", instants_compared_);
  r_.metric("study.adaptive.extrapolated_fraction",
            per(static_cast<double>(extrapolated_), adaptive_iterations_),
            "ratio");
  c("study.adaptive.refusals", refusals_);
  c("study.adaptive.detected_period", detected_period_);
  r_.metric("study.adaptive.steady_speedup", ratio(steady_eq_s_, steady_ad_s_),
            "ratio");
  r_.metric("study.adaptive.drag", ratio(aperiodic_ad_s_, aperiodic_eq_s_),
            "ratio");
}

void count_model(Result& r, const std::string& prefix, const study::Model& m) {
  const sim::KernelStats& k = m.kernel_stats();
  r.count(prefix + ".events", k.events_scheduled);
  r.count(prefix + ".resumes", k.resumes);
  r.count(prefix + ".inline_resumes", k.inline_resumes);
  r.count(prefix + ".relation_events", m.relation_events());
  r.count(prefix + ".instances", m.instances_computed());
  r.count(prefix + ".arc_terms", m.arc_terms_evaluated());
  r.count(prefix + ".end_ps", static_cast<std::uint64_t>(m.end_time().count()));
  if (const auto a = m.adaptive_stats()) {
    r.count(prefix + ".extrapolated_iterations", a->extrapolated_iterations);
    r.count(prefix + ".refusals", a->refusals);
    r.count(prefix + ".detected_period", a->detected_period);
  }
}

void layer_metrics(Result& r, const std::vector<Tracer>& traced,
                   const std::vector<double>& traced_s,
                   const std::vector<double>& untraced_s) {
  std::map<std::string, std::vector<double>> self;
  std::vector<double> coverage;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const std::map<std::string, double> by_layer = traced[i].layer_self_s();
    double covered = 0.0;
    for (const std::string& layer : kLayers) {
      const auto it = by_layer.find(layer);
      const double s = it == by_layer.end() ? 0.0 : it->second;
      self[layer].push_back(s);
      covered += s;
    }
    coverage.push_back(covered / traced_s[i]);
  }
  const double wall = median(traced_s);
  std::string table = "layer    self_s      share  (median of " +
                      std::to_string(traced.size()) + " traced replays)\n";
  for (const std::string& layer : kLayers) {
    const double s = median(self[layer]);
    r.metric(layer + ".self_s", s, "s");
    char row[96];
    std::snprintf(row, sizeof row, "%-8s %-11.6f %.4f\n", layer.c_str(), s,
                  s / wall);
    table += row;
  }
  char tail[160];
  std::snprintf(tail, sizeof tail,
                "traced wall %.6f s, untraced %.6f s, span coverage %.4f",
                wall, median(untraced_s), median(coverage));
  table += tail;
  r.notes.push_back(table);
  r.metric("bench.span_coverage", median(coverage), "ratio");
  r.metric("bench.trace_overhead_s", wall - median(untraced_s), "s");
}

}  // namespace maxevbench
