#include "study/report.hpp"

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace maxev::study {

const Cell* Report::find(const std::string& scenario,
                         const std::string& backend) const {
  for (const Cell& c : cells)
    if (c.scenario == scenario && c.backend == backend) return &c;
  return nullptr;
}

const Cell& Report::at(const std::string& scenario,
                       const std::string& backend) const {
  const Cell* c = find(scenario, backend);
  if (c == nullptr)
    throw Error("Report::at: no cell (" + scenario + ", " + backend + ")");
  return *c;
}

std::string Report::to_string() const {
  ConsoleTable table({"Scenario", "Backend", "wall (s)", "Events", "Speed-up",
                      "Event ratio", "Accuracy"});
  for (const Cell& c : cells) {
    std::string accuracy = "-";
    if (c.failed) {
      accuracy = "FAILED";
    } else if (c.errors.has_value()) {
      if (c.errors->exact()) {
        accuracy = "exact";
      } else if (c.errors->instant_mismatch.has_value() &&
                 c.errors->max_abs_seconds > 0.0) {
        // Timing drift is the normal state of an approximate backend, but
        // an accuracy REGRESSION on a backend that claims exactness.
        accuracy =
            c.approximate_backend
                ? format("max err %.3gus", c.errors->max_abs_seconds * 1e6)
                : format("MISMATCH (max err %.3gus)",
                         c.errors->max_abs_seconds * 1e6);
      } else if (c.errors->instant_mismatch.has_value()) {
        // Mismatch with zero measured drift (missing series, length
        // mismatch): a structural accuracy failure, not drift.
        accuracy = "MISMATCH";
      } else {
        accuracy = "usage MISMATCH";  // instants identical, usage differs
      }
    } else if (c.is_reference) {
      accuracy = "reference";
    }
    table.add_row(
        {c.scenario, c.backend, format("%.4f", c.metrics.wall_seconds),
         with_commas(static_cast<std::int64_t>(c.metrics.kernel_events)),
         c.is_reference ? "1.00" : format("%.2f", c.speedup_vs_reference),
         c.is_reference ? "1.00" : format("%.2f", c.event_ratio_vs_reference),
         accuracy});
  }
  return table.render();
}

namespace {

/// Optional counters (-1 = does not apply) render as an empty CSV cell.
std::string csv_count(std::int64_t v) {
  return v >= 0 ? std::to_string(v) : "";
}

/// Optional counters (-1 = does not apply) render as JSON null.
void json_count(JsonWriter& w, const std::string& key, std::int64_t v) {
  w.key(key);
  if (v >= 0) {
    w.value(v);
  } else {
    w.null_value();
  }
}

const std::vector<std::string> kCsvHeader = {
    "scenario",       "backend",
    "reference",      "completed",
    "wall_seconds",   "kernel_events",
    "resumes",        "relation_events",
    "instances_computed", "arc_terms",
    "sim_end_ps",     "graph_nodes",
    "graph_paper_nodes", "graph_arcs",
    "speedup_vs_ref", "event_ratio_vs_ref",
    "kernel_event_ratio_vs_ref", "exact",
    "max_abs_error_s", "mean_abs_error_s",
    "cache_hits",     "cache_misses",
    "fidelity",       "extrapolated_iterations",
    "max_error_ps",   "status",
    "error"};

std::vector<std::string> csv_row(const Cell& c) {
  const bool exact = c.errors.has_value() && c.errors->exact();
  return {c.scenario,
          c.backend,
          c.is_reference ? "1" : "0",
          c.metrics.completed ? "1" : "0",
          format("%.9g", c.metrics.wall_seconds),
          std::to_string(c.metrics.kernel_events),
          std::to_string(c.metrics.resumes),
          std::to_string(c.metrics.relation_events),
          std::to_string(c.metrics.instances_computed),
          std::to_string(c.metrics.arc_terms),
          std::to_string(c.metrics.sim_end.count()),
          std::to_string(c.graph_nodes),
          std::to_string(c.graph_paper_nodes),
          std::to_string(c.graph_arcs),
          format("%.9g", c.speedup_vs_reference),
          format("%.9g", c.event_ratio_vs_reference),
          format("%.9g", c.kernel_event_ratio_vs_reference),
          c.errors.has_value() ? (exact ? "1" : "0") : "",
          c.errors.has_value() ? format("%.9g", c.errors->max_abs_seconds) : "",
          c.errors.has_value() ? format("%.9g", c.errors->mean_abs_seconds)
                               : "",
          csv_count(c.cache_hits),
          csv_count(c.cache_misses),
          c.fidelity,
          csv_count(c.extrapolated_iterations),
          csv_count(c.max_error_ps),
          c.failed ? "failed" : "ok",
          c.error};
}

}  // namespace

void Report::write_csv(const std::string& path) const {
  CsvWriter csv(path, kCsvHeader);
  for (const Cell& c : cells) csv.row(csv_row(c));
}

namespace {

JsonWriter build_json(const Report& r) {
  JsonWriter w;
  w.begin_object();
  w.key("scenarios").begin_array();
  for (const auto& s : r.scenarios) w.value(s);
  w.end_array();
  w.key("backends").begin_array();
  for (const auto& b : r.backends) w.value(b);
  w.end_array();
  w.field("reference", r.reference_backend);
  w.key("cells").begin_array();
  for (const Cell& c : r.cells) {
    w.begin_object();
    w.field("scenario", c.scenario);
    w.field("backend", c.backend);
    w.field("reference", c.is_reference);
    w.field("completed", c.metrics.completed);
    w.field("wall_seconds", c.metrics.wall_seconds);
    w.field("kernel_events", c.metrics.kernel_events);
    w.field("resumes", c.metrics.resumes);
    w.field("relation_events", c.metrics.relation_events);
    w.field("instances_computed", c.metrics.instances_computed);
    w.field("arc_terms", c.metrics.arc_terms);
    w.field("sim_end_ps", c.metrics.sim_end.count());
    w.field("graph_nodes", static_cast<std::uint64_t>(c.graph_nodes));
    w.field("graph_paper_nodes",
            static_cast<std::uint64_t>(c.graph_paper_nodes));
    w.field("graph_arcs", static_cast<std::uint64_t>(c.graph_arcs));
    w.field("speedup_vs_ref", c.speedup_vs_reference);
    w.field("event_ratio_vs_ref", c.event_ratio_vs_reference);
    w.field("kernel_event_ratio_vs_ref", c.kernel_event_ratio_vs_reference);
    json_count(w, "cache_hits", c.cache_hits);
    json_count(w, "cache_misses", c.cache_misses);
    w.key("fidelity");
    if (c.fidelity.empty()) {
      w.null_value();
    } else {
      w.value(c.fidelity);
    }
    json_count(w, "extrapolated_iterations", c.extrapolated_iterations);
    json_count(w, "max_error_ps", c.max_error_ps);
    if (c.errors.has_value()) {
      w.key("errors").begin_object();
      w.field("exact", c.errors->exact());
      if (c.errors->instant_mismatch)
        w.field("instant_mismatch", *c.errors->instant_mismatch);
      if (c.errors->usage_mismatch)
        w.field("usage_mismatch", *c.errors->usage_mismatch);
      w.field("max_abs_seconds", c.errors->max_abs_seconds);
      w.field("mean_abs_seconds", c.errors->mean_abs_seconds);
      w.field("instants_compared", c.errors->instants_compared);
      w.end_object();
    }
    w.field("status", c.failed ? "failed" : "ok");
    if (c.failed) {
      w.field("error", c.error);
      if (c.diagnostics != nullptr) {
        const sim::RunDiagnostics& d = *c.diagnostics;
        w.key("diagnostics").begin_object();
        w.field("stop", sim::to_string(d.stop));
        w.field("events_processed", d.events_processed);
        if (!d.parked_processes.empty()) {
          w.key("parked_processes").begin_array();
          for (const auto& p : d.parked_processes) w.value(p);
          w.end_array();
        }
        if (!d.unresolved_gates.empty()) {
          w.key("unresolved_gates").begin_array();
          for (const auto& g : d.unresolved_gates) w.value(g);
          w.end_array();
        }
        if (!d.instances.empty()) {
          w.key("instances").begin_array();
          for (const auto& ip : d.instances) {
            w.begin_object();
            w.field("instance", ip.instance);
            w.field("tokens_done", ip.tokens_done);
            w.field("tokens_expected", ip.tokens_expected);
            w.end_object();
          }
          w.end_array();
        }
        if (!d.detail.empty()) w.field("detail", d.detail);
        w.end_object();
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w;
}

}  // namespace

std::string Report::to_json() const { return build_json(*this).str(); }

void Report::write_json(const std::string& path) const {
  build_json(*this).write_file(path);
}

}  // namespace maxev::study
