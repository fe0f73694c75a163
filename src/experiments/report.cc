#include "experiments/report.h"

#include "util/string_util.h"

namespace sbqa::experiments {

util::TextTable SatisfactionTable(const std::vector<RunResult>& results) {
  util::TextTable table;
  table.SetHeader({"method", "cons.sat", "prov.sat", "prov.sat(all)",
                   "cons.adq", "prov.adq", "cons.alloc", "prov.alloc",
                   "min.cons", "min.prov"});
  for (const RunResult& r : results) {
    const metrics::RunSummary& s = r.summary;
    table.AddNumericRow(
        s.method,
        {s.consumer_satisfaction, s.provider_satisfaction,
         s.provider_satisfaction_all, s.consumer_adequation,
         s.provider_adequation, s.consumer_allocation_satisfaction,
         s.provider_allocation_satisfaction, s.min_consumer_satisfaction,
         s.min_provider_satisfaction});
  }
  return table;
}

util::TextTable PerformanceTable(const std::vector<RunResult>& results) {
  util::TextTable table;
  table.SetHeader({"method", "mean.rt(s)", "p50.rt", "p95.rt", "p99.rt",
                   "thr(q/s)", "served", "unalloc", "timeout"});
  for (const RunResult& r : results) {
    const metrics::RunSummary& s = r.summary;
    table.AddRow({s.method, util::FormatDouble(s.mean_response_time, 3),
                  util::FormatDouble(s.p50_response_time, 3),
                  util::FormatDouble(s.p95_response_time, 3),
                  util::FormatDouble(s.p99_response_time, 3),
                  util::FormatDouble(s.throughput, 2),
                  util::FormatDouble(s.fully_served_fraction, 3),
                  util::StrFormat("%lld", static_cast<long long>(
                                              s.queries_unallocated)),
                  util::StrFormat("%lld", static_cast<long long>(
                                              s.queries_timed_out))});
  }
  return table;
}

util::TextTable RetentionTable(const std::vector<RunResult>& results) {
  util::TextTable table;
  table.SetHeader({"method", "prov.departed", "cons.retired", "prov.kept",
                   "cons.kept", "capacity.kept", "thr(q/s)"});
  for (const RunResult& r : results) {
    const metrics::RunSummary& s = r.summary;
    table.AddRow(
        {s.method,
         util::StrFormat("%lld", static_cast<long long>(s.provider_departures)),
         util::StrFormat("%lld",
                         static_cast<long long>(s.consumer_retirements)),
         util::FormatDouble(s.provider_retention, 3),
         util::FormatDouble(s.consumer_retention, 3),
         util::FormatDouble(s.capacity_retention, 3),
         util::FormatDouble(s.throughput, 2)});
  }
  return table;
}

util::TextTable LoadBalanceTable(const std::vector<RunResult>& results) {
  util::TextTable table;
  table.SetHeader({"method", "busy.gini", "busy.jain", "inst.cv",
                   "mean.busy.frac", "mean.rt(s)"});
  for (const RunResult& r : results) {
    const metrics::RunSummary& s = r.summary;
    table.AddNumericRow(s.method,
                        {s.busy_gini, s.busy_jain, s.instances_cv,
                         s.mean_provider_busy_fraction,
                         s.mean_response_time});
  }
  return table;
}

util::TextTable OverviewTable(const std::vector<RunResult>& results) {
  util::TextTable table;
  table.SetHeader({"method", "cons.sat", "prov.sat", "mean.rt(s)", "thr(q/s)",
                   "prov.kept", "capacity.kept", "validated"});
  for (const RunResult& r : results) {
    const metrics::RunSummary& s = r.summary;
    table.AddNumericRow(
        s.method, {s.consumer_satisfaction, s.provider_satisfaction,
                   s.mean_response_time, s.throughput, s.provider_retention,
                   s.capacity_retention, s.validated_fraction});
  }
  return table;
}

std::string SeriesChart(
    const std::vector<RunResult>& results,
    const metrics::TimeSeries& (*selector)(const RunResult&),
    const std::string& title) {
  std::vector<util::ChartSeries> series;
  series.reserve(results.size());
  for (const RunResult& r : results) {
    util::ChartSeries s;
    s.name = r.summary.method;
    s.values = selector(r).values();
    series.push_back(std::move(s));
  }
  std::string out = title + "\n";
  out += util::RenderLineChart(series);
  return out;
}

const metrics::TimeSeries& ConsumerSatisfactionSeries(const RunResult& r) {
  return r.series.consumer_satisfaction;
}
const metrics::TimeSeries& ProviderSatisfactionSeries(const RunResult& r) {
  return r.series.provider_satisfaction;
}
const metrics::TimeSeries& AliveProvidersSeries(const RunResult& r) {
  return r.series.alive_providers;
}
const metrics::TimeSeries& ResponseTimeSeries(const RunResult& r) {
  return r.series.recent_response_time;
}

namespace {

/// Minimal JSON emitter for the flat summary object: enough for stable
/// machine-readable CLI output without a JSON dependency.
class JsonObject {
 public:
  JsonObject(std::string* out, int indent) : out_(out), indent_(indent) {
    out_->push_back('{');
  }

  void Field(const char* key, double value) {
    Key(key);
    // %.17g round-trips doubles exactly; trim the plain-integer case.
    out_->append(util::StrFormat("%.17g", value));
  }
  void Field(const char* key, int64_t value) {
    Key(key);
    out_->append(util::StrFormat("%lld", static_cast<long long>(value)));
  }
  void Field(const char* key, uint64_t value) {
    Key(key);
    out_->append(util::StrFormat("%llu",
                                 static_cast<unsigned long long>(value)));
  }
  void Field(const char* key, const std::string& value) {
    Key(key);
    out_->push_back('"');
    for (char c : value) {
      if (c == '"' || c == '\\') out_->push_back('\\');
      out_->push_back(c);
    }
    out_->push_back('"');
  }

  void Close() {
    out_->append("\n}");
  }

 private:
  void Key(const char* key) {
    if (!first_) out_->push_back(',');
    first_ = false;
    out_->push_back('\n');
    out_->append(static_cast<size_t>(indent_), ' ');
    out_->append(util::StrFormat("\"%s\": ", key));
  }

  std::string* out_;
  int indent_;
  bool first_ = true;
};

void AppendRunSummaryJson(const RunResult& result, int indent,
                          std::string* out) {
  const metrics::RunSummary& s = result.summary;
  JsonObject obj(out, indent);
  obj.Field("method", s.method);
  obj.Field("duration", s.duration);
  obj.Field("consumer_satisfaction", s.consumer_satisfaction);
  obj.Field("provider_satisfaction", s.provider_satisfaction);
  obj.Field("provider_satisfaction_all", s.provider_satisfaction_all);
  obj.Field("consumer_adequation", s.consumer_adequation);
  obj.Field("provider_adequation", s.provider_adequation);
  obj.Field("consumer_allocation_satisfaction",
            s.consumer_allocation_satisfaction);
  obj.Field("provider_allocation_satisfaction",
            s.provider_allocation_satisfaction);
  obj.Field("min_consumer_satisfaction", s.min_consumer_satisfaction);
  obj.Field("min_provider_satisfaction", s.min_provider_satisfaction);
  obj.Field("mean_response_time", s.mean_response_time);
  obj.Field("p50_response_time", s.p50_response_time);
  obj.Field("p95_response_time", s.p95_response_time);
  obj.Field("p99_response_time", s.p99_response_time);
  obj.Field("throughput", s.throughput);
  obj.Field("queries_submitted", s.queries_submitted);
  obj.Field("queries_finalized", s.queries_finalized);
  obj.Field("queries_fully_served", s.queries_fully_served);
  obj.Field("queries_unallocated", s.queries_unallocated);
  obj.Field("queries_timed_out", s.queries_timed_out);
  obj.Field("queries_delegated", s.queries_delegated);
  obj.Field("queries_borrowed", s.queries_borrowed);
  obj.Field("mean_borrow_hops", s.mean_borrow_hops);
  obj.Field("queries_satisfied", s.queries_satisfied);
  obj.Field("queries_recovered", s.queries_recovered);
  obj.Field("queries_failed", s.queries_failed);
  obj.Field("retry_attempts", s.retry_attempts);
  obj.Field("instances_abandoned", s.instances_abandoned);
  obj.Field("providers_suspected", s.providers_suspected);
  obj.Field("providers_probed", s.providers_probed);
  obj.Field("fault_sends_dropped", s.fault_sends_dropped);
  obj.Field("fault_sends_delayed", s.fault_sends_delayed);
  obj.Field("fault_sends_crashed", s.fault_sends_crashed);
  obj.Field("fully_served_fraction", s.fully_served_fraction);
  obj.Field("provider_departures", s.provider_departures);
  obj.Field("provider_offline_events", s.provider_offline_events);
  obj.Field("provider_joins", s.provider_joins);
  obj.Field("consumer_retirements", s.consumer_retirements);
  obj.Field("provider_retention", s.provider_retention);
  obj.Field("provider_survival", s.provider_survival);
  obj.Field("consumer_retention", s.consumer_retention);
  obj.Field("capacity_retention", s.capacity_retention);
  obj.Field("busy_gini", s.busy_gini);
  obj.Field("busy_jain", s.busy_jain);
  obj.Field("instances_cv", s.instances_cv);
  obj.Field("mean_provider_busy_fraction", s.mean_provider_busy_fraction);
  obj.Field("validated_fraction", s.validated_fraction);
  obj.Field("messages_sent", s.messages_sent);
  obj.Field("membership_epochs", result.membership_epochs);
  obj.Field("membership_ops", result.membership_ops);
  obj.Field("membership_apply_seconds", result.membership_apply_seconds);
  obj.Field("decisions_timed", result.decision_phases.decisions);
  obj.Field("decision_sample_ns", result.decision_phases.sample_ns);
  obj.Field("decision_gather_ns", result.decision_phases.gather_ns);
  obj.Field("decision_intentions_ns", result.decision_phases.intentions_ns);
  obj.Field("decision_score_ns", result.decision_phases.score_ns);
  obj.Field("decision_rank_ns", result.decision_phases.rank_ns);
  obj.Close();
}

}  // namespace

std::string RunSummaryJson(const RunResult& result, int indent) {
  std::string out;
  AppendRunSummaryJson(result, indent, &out);
  out.push_back('\n');
  return out;
}

}  // namespace sbqa::experiments
