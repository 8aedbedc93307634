// Every metric the benchmark reports, declared once with its unit. The
// result line is rendered from this table, and BENCHMARK.json at the
// repository root must list the same names and units (run.py checks).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Section { EndToEnd, PerLayer };

struct MetricDef {
    const char* name;
    const char* unit;
    Section section;
};

const std::vector<MetricDef>& metricTable();

/// Names: [A-Za-z0-9_.-]+, at most 64 characters, starting with a letter or
/// digit. Units: [A-Za-z0-9_/%.-]+, at most 16 characters.
bool validMetricName(const std::string& name);
bool validUnit(const std::string& unit);

/// Values for one section of the table.
class MetricSet {
public:
    explicit MetricSet(Section section) : section_(section) {}

    /// Throws std::invalid_argument for a name not in this section.
    void set(const std::string& name, double value);

    /// The `"metrics"` object of the result line; throws std::logic_error
    /// when a metric of the section was never set.
    std::string toJson() const;

private:
    Section section_;
    std::map<std::string, double> values_;
};

}  // namespace perfbench
