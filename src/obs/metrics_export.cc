#include "src/obs/metrics_export.h"

#include <utility>
#include <vector>

#include "src/common/hash.h"

namespace slice::obs {
namespace {

void WriteHistogram(JsonWriter& w, const LatencyStats& stats) {
  w.BeginObject();
  w.Key("count").UInt(stats.count()).Key("sum").UInt(stats.sum());
  w.Key("min").UInt(stats.min()).Key("max").UInt(stats.max());
  w.Key("p50").UInt(stats.Percentile(50)).Key("p95").UInt(stats.Percentile(95));
  w.Key("p99").UInt(stats.Percentile(99));
  w.EndObject();
}

// {"<key>":{"<metric>":[[at,value],...]}}: the scrape rings of one host or
// one tenant per outer key.
void WriteSeries(JsonWriter& w,
                 const std::map<uint32_t, std::map<std::string, TimeSeries, std::less<>>>& by_key,
                 std::string (*key_name)(uint32_t)) {
  w.BeginObject();
  for (const auto& [key, by_metric] : by_key) {
    w.Key(key_name(key)).BeginObject();
    for (const auto& [name, series] : by_metric) {
      w.Key(name).BeginArray();
      for (size_t i = 0; i < series.size(); ++i) {
        w.BeginArray().UInt(series.at(i).at).Int(series.at(i).value).EndArray();
      }
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndObject();
}

std::string TenantName(uint32_t tenant) { return std::to_string(tenant); }

// {"<opclass>":<value>,...} over every tenant op class.
template <typename WriteValue>
void WritePerClass(JsonWriter& w, WriteValue write_value) {
  w.BeginObject();
  for (size_t i = 0; i < kTenantOpClassCount; ++i) {
    w.Key(TenantOpClassName(static_cast<TenantOpClass>(i)));
    write_value(i);
  }
  w.EndObject();
}

// One exposition sample: slice_<name><suffix>{host="<host>"<labels>} <value>
void AppendSample(std::string& out, std::string_view name, std::string_view suffix,
                  std::string_view host, std::string_view labels, std::string_view value) {
  out += "slice_";
  out += name;
  out += suffix;
  out += "{host=\"";
  out += host;
  out += '"';
  out += labels;
  out += "} ";
  out += value;
  out += '\n';
}

void AppendType(std::string& out, std::string_view name, std::string_view type) {
  out += "# TYPE slice_";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

std::string FormatHostAddr(uint32_t addr) {
  std::string out;
  out += std::to_string((addr >> 24) & 0xff);
  out += '.';
  out += std::to_string((addr >> 16) & 0xff);
  out += '.';
  out += std::to_string((addr >> 8) & 0xff);
  out += '.';
  out += std::to_string(addr & 0xff);
  return out;
}

std::string ExportPrometheus(const Metrics& metrics) {
  std::string out;
  out.reserve(4096);
  // Group samples by family (metric name) across hosts, Prometheus-style.
  // Passes keyed by the ordered registry maps keep it deterministic.
  // Counter and gauge samples are kept rendered, so one loop prints both.
  using Families =
      std::map<std::string, std::vector<std::pair<uint32_t, std::string>>, std::less<>>;
  Families counter_families;
  Families gauge_families;
  std::map<std::string, std::vector<std::pair<uint32_t, const LatencyStats*>>, std::less<>>
      histogram_families;
  for (const auto& [host, reg] : metrics.registries()) {
    for (const auto& [name, counter] : reg.counters()) {
      counter_families[name].emplace_back(host, std::to_string(counter->Value()));
    }
    for (const auto& [name, gauge] : reg.gauges()) {
      gauge_families[name].emplace_back(host, std::to_string(gauge->Value()));
    }
    for (const auto& [name, histogram] : reg.histograms()) {
      histogram_families[name].emplace_back(host, &histogram->stats());
    }
  }
  for (const auto& [type, families] :
       {std::pair{"counter", &counter_families}, std::pair{"gauge", &gauge_families}}) {
    for (const auto& [name, samples] : *families) {
      AppendType(out, name, type);
      for (const auto& [host, value] : samples) {
        AppendSample(out, name, "", FormatHostAddr(host), "", value);
      }
    }
  }
  for (const auto& [name, samples] : histogram_families) {
    AppendType(out, name, "summary");
    for (const auto& [host, stats] : samples) {
      const std::string label = FormatHostAddr(host);
      static constexpr std::pair<const char*, double> kQuantiles[] = {
          {",quantile=\"0.5\"", 50.0},
          {",quantile=\"0.95\"", 95.0},
          {",quantile=\"0.99\"", 99.0}};
      for (const auto& [q_label, q] : kQuantiles) {
        AppendSample(out, name, "", label, q_label, std::to_string(stats->Percentile(q)));
      }
      AppendSample(out, name, "_sum", label, "", std::to_string(stats->sum()));
      AppendSample(out, name, "_count", label, "", std::to_string(stats->count()));
    }
  }
  return out;
}

void WriteMetricsJson(JsonWriter& w, const Metrics& metrics, const Scraper* scraper,
                      const SloEngine* slo) {
  w.BeginObject().Key("hosts").BeginObject();
  for (const auto& [host, reg] : metrics.registries()) {
    w.Key(FormatHostAddr(host)).BeginObject();
    w.Key("counters").BeginObject();
    for (const auto& [name, counter] : reg.counters()) {
      w.Key(name).UInt(counter->Value());
    }
    w.EndObject().Key("gauges").BeginObject();
    for (const auto& [name, gauge] : reg.gauges()) {
      w.Key(name).Int(gauge->Value());
    }
    w.EndObject().Key("histograms").BeginObject();
    for (const auto& [name, histogram] : reg.histograms()) {
      w.Key(name);
      WriteHistogram(w, histogram->stats());
    }
    w.EndObject().EndObject();
  }
  w.EndObject();
  if (scraper != nullptr) {
    w.Key("scrapes").UInt(scraper->scrapes()).Key("alerts").BeginArray();
    for (const Alert& alert : scraper->alerts()) {
      w.BeginObject().Key("at").UInt(alert.at).Key("rule").String(alert.rule);
      w.Key("host").String(FormatHostAddr(alert.host)).Key("value").Int(alert.value);
      w.Key("raise").UInt(alert.raise ? 1 : 0).EndObject();
    }
    w.EndArray().Key("series");
    WriteSeries(w, scraper->series(), &FormatHostAddr);
  }
  // Tenant plane: strictly opt-in sections, so untenanted runs stay
  // byte-identical with pre-tenant exports (pinned goldens).
  if (metrics.num_tenants() > 0) {
    w.Key("tenants").BeginObject();
    for (const TenantInstruments& ti : metrics.tenants()) {
      w.Key(std::to_string(ti.tenant)).BeginObject().Key("ops");
      WritePerClass(w, [&](size_t i) { w.UInt(ti.ops[i].Value()); });
      w.Key("bytes");
      WritePerClass(w, [&](size_t i) { w.UInt(ti.bytes[i].Value()); });
      w.Key("latency");
      WritePerClass(w, [&](size_t i) { WriteHistogram(w, ti.latency[i].stats()); });
      w.Key("errors").UInt(ti.errors.Value()).Key("bad_ops").UInt(ti.bad_ops.Value());
      w.Key("slow_threshold").UInt(ti.slow_threshold).Key("exemplars").BeginArray();
      for (size_t i = 0; i < ti.exemplars.size(); ++i) {
        const TenantExemplar& ex = ti.exemplars.at(i);
        w.BeginObject().Key("at").UInt(ex.at).Key("latency").UInt(ex.latency);
        w.Key("trace_id").UInt(ex.trace_id);
        w.Key("class").String(TenantOpClassName(static_cast<TenantOpClass>(ex.opclass)));
        w.EndObject();
      }
      w.EndArray().EndObject();
    }
    w.EndObject();
    if (scraper != nullptr) {
      w.Key("tenant_series");
      WriteSeries(w, scraper->tenant_series(), &TenantName);
    }
    if (slo != nullptr && slo->params().enabled) {
      const SloParams& sp = slo->params();
      w.Key("slo").BeginObject().Key("budget_ppm").UInt(sp.error_budget_ppm);
      w.Key("latency_threshold").UInt(sp.latency_threshold);
      w.Key("burn_threshold_milli").Int(sp.burn_threshold_milli);
      w.Key("fast_windows").UInt(sp.fast_windows).Key("slow_windows").UInt(sp.slow_windows);
      w.Key("alerts").BeginArray();
      for (const SloAlert& alert : slo->alerts()) {
        w.BeginObject().Key("at").UInt(alert.at).Key("tenant").UInt(alert.tenant);
        w.Key("raise").UInt(alert.raise ? 1 : 0).Key("fast").Int(alert.fast_milli);
        w.Key("slow").Int(alert.slow_milli).Key("trace_id").UInt(alert.trace_id);
        w.EndObject();
      }
      w.EndArray().EndObject();
    }
  }
  w.EndObject();
}

std::string ExportMetricsJson(const Metrics& metrics, const Scraper* scraper,
                              const SloEngine* slo) {
  JsonWriter w;
  WriteMetricsJson(w, metrics, scraper, slo);
  return w.Take();
}

uint64_t MetricsContentHash(std::string_view canonical_json) { return Fnv1a64(canonical_json); }

}  // namespace slice::obs
