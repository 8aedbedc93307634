#include "perfbench/src/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& metricTable() {
    constexpr Section E = Section::EndToEnd;
    constexpr Section L = Section::PerLayer;
    static const std::vector<MetricDef> table{
        {"wall_s", "s", E},
        {"ns_per_pkt", "ns", E},
        {"setup_s", "s", E},
        {"peak_rss_mb", "MiB", E},

        {"sim.run_s", "s", L},
        {"sim.rest_s", "s", L},
        {"sim.events_per_pkt", "ratio", L},
        {"sim.events_per_drain", "ratio", L},
        {"sim.cascades_per_event", "ratio", L},
        {"sim.timer_churn_per_event", "ratio", L},
        {"sim.max_live_pending", "count", L},
        {"sim.events", "count", L},

        {"aqm.switch.enqueue_ns", "ns", L},
        {"aqm.switch.dequeue_ns", "ns", L},
        {"aqm.switch.calls", "count", L},
        {"aqm.switch.self_s", "s", L},
        {"aqm.host.enqueue_ns", "ns", L},
        {"aqm.host.self_s", "s", L},
        {"aqm.self_share", "ratio", L},
        {"aqm.red_fast_path_ratio", "ratio", L},

        {"core.prepare_ms", "ms", L},
        {"net.build_ms", "ms", L},
        {"mapred.runtime_build_ms", "ms", L},
        {"workloads.driver_build_ms", "ms", L},
        {"workloads.start_ms", "ms", L},
        {"core.collect_ms", "ms", L},
        {"core.teardown_ms", "ms", L},

        {"obs.metrics_pct", "%", L},
        {"obs.trace_pct", "%", L},
        {"obs.attribution_pct", "%", L},
        {"obs.profile_pct", "%", L},
        {"obs.full_pct", "%", L},
        {"obs.setup_ms", "ms", L},
        {"obs.trace_records", "count", L},
        {"obs.trace_dropped_ratio", "ratio", L},
        {"obs.metric_samples", "count", L},

        {"net.pkts_delivered", "count", L},
        {"net.ce_marks", "count", L},
        {"net.ack_early_drop_ratio", "ratio", L},
        {"net.syn_drop_ratio", "ratio", L},
        {"tcp.retransmit_ratio", "ratio", L},
        {"tcp.rto_events", "count", L},
        {"tcp.syn_retries", "count", L},
        {"workloads.req_completed_ratio", "ratio", L},

        {"trace.wall_s", "s", L},
        {"trace.unaccounted_pct", "%", L},
        {"trace.overhead_pct", "%", L},
        {"trace.digest_match", "bool", L},
    };
    return table;
}

namespace {

bool isAlnum(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

}  // namespace

bool validMetricName(const std::string& name) {
    if (name.empty() || name.size() > 64 || !isAlnum(name.front())) return false;
    for (const char c : name) {
        if (!isAlnum(c) && c != '_' && c != '.' && c != '-') return false;
    }
    return true;
}

bool validUnit(const std::string& unit) {
    if (unit.empty() || unit.size() > 16) return false;
    for (const char c : unit) {
        if (!isAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' && c != '-') return false;
    }
    return true;
}

void MetricSet::set(const std::string& name, double value) {
    for (const MetricDef& m : metricTable()) {
        if (m.section == section_ && name == m.name) {
            values_[name] = value;
            return;
        }
    }
    throw std::invalid_argument("metric '" + name + "' is not declared in this section");
}

std::string MetricSet::toJson() const {
    std::string out = "{";
    for (const MetricDef& m : metricTable()) {
        if (m.section != section_) continue;
        const auto it = values_.find(m.name);
        if (it == values_.end()) throw std::logic_error(std::string("metric never set: ") + m.name);
        if (!std::isfinite(it->second)) {
            throw std::logic_error(std::string("metric is not finite: ") + m.name);
        }
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", it->second);
        if (out.size() > 1) out += ", ";
        out.append("\"").append(m.name).append("\": {\"value\": ").append(value);
        out.append(", \"unit\": \"").append(m.unit).append("\"}");
    }
    return out + "}";
}

}  // namespace perfbench
