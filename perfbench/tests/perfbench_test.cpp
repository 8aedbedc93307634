// The benchmark's own tests: the timing decorator is transparent, metric
// names and units are well formed, the setup probe carries no traffic, and
// a seed never used while tuning runs clean on every workload.
#include <gtest/gtest.h>

#include <regex>
#include <set>

#include "perfbench/src/metrics.hpp"
#include "perfbench/src/traced.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/core/runner.hpp"

using namespace ecnsim;
using namespace perfbench;

namespace {

/// A seed not used while the benchmark was tuned.
constexpr std::uint64_t kHeldOutSeed = 7919;

}  // namespace

TEST(TimedQueue, IsTransparent) {
    // One experiment per distinct queue path: classic RED (shuffle) and the
    // DCTCP-mimic RED with ACK+SYN protection (mixed, second leg).
    for (const ExperimentConfig& cfg : {makeWorkload("shuffle", 1).configs.front(),
                                        makeWorkload("mixed", 1).configs.back()}) {
        const TracedExperiment timed = runTraced(cfg, /*decorate=*/true);
        const TracedExperiment plain = runTraced(cfg, /*decorate=*/false);
        EXPECT_FALSE(timed.timedOut) << cfg.name;
        EXPECT_EQ(timed.digest, plain.digest) << cfg.name;
        EXPECT_EQ(timed.digest, runExperiment(cfg).telemetryDigest) << cfg.name;

        const QueueStats::PerClass& t = timed.switchTotals;
        const QueueStats::PerClass& p = plain.switchTotals;
        EXPECT_EQ(t.enqueued, p.enqueued) << cfg.name;
        EXPECT_EQ(t.marked, p.marked) << cfg.name;
        EXPECT_EQ(t.droppedEarly, p.droppedEarly) << cfg.name;
        EXPECT_EQ(t.droppedOverflow, p.droppedOverflow) << cfg.name;
        EXPECT_GT(t.marked, 0u) << cfg.name;

        // The decorator saw exactly the decisions the network accounted.
        const auto& o = timed.switchQueues.outcomes;
        EXPECT_EQ(o[static_cast<std::size_t>(EnqueueOutcome::Enqueued)], t.enqueued - t.marked);
        EXPECT_EQ(o[static_cast<std::size_t>(EnqueueOutcome::Marked)], t.marked);
        EXPECT_EQ(o[static_cast<std::size_t>(EnqueueOutcome::DroppedEarly)], t.droppedEarly);
        EXPECT_EQ(o[static_cast<std::size_t>(EnqueueOutcome::DroppedOverflow)], t.droppedOverflow);
        EXPECT_GT(timed.hostQueues.enqueueCalls, 0u) << cfg.name;
        EXPECT_EQ(plain.switchQueues.enqueueCalls, 0u) << cfg.name;
    }
}

TEST(Metrics, NamesMatchPatternAndCarryUnits) {
    const std::regex name("[A-Za-z0-9_.-]+");
    std::set<std::string> seen;
    int endToEnd = 0;
    for (const MetricDef& m : metricTable()) {
        EXPECT_TRUE(std::regex_match(m.name, name)) << m.name;
        EXPECT_TRUE(validMetricName(m.name)) << m.name;
        EXPECT_TRUE(validUnit(m.unit)) << m.name << " unit '" << m.unit << "'";
        EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
        if (m.section == Section::EndToEnd) ++endToEnd;
    }
    EXPECT_TRUE(seen.count("setup_s"));
    EXPECT_GE(endToEnd, 1);
    EXPECT_FALSE(validMetricName(".leading-dot"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validUnit(""));

    MetricSet set(Section::EndToEnd);
    EXPECT_THROW(set.set("sim.run_s", 1.0), std::invalid_argument);  // wrong section
    set.set("wall_s", 1.0);
    EXPECT_THROW(set.toJson(), std::logic_error);  // the others are missing
}

TEST(SetupProbe, DeliversNoPackets) {
    for (const std::string& name : workloadNames()) {
        for (ExperimentConfig cfg : makeWorkload(name, 1).configs) {
            cfg.horizon = Time::nanoseconds(1);
            const ExperimentResult r = runExperiment(cfg);
            EXPECT_EQ(r.packetsDelivered, 0u) << cfg.name;
            EXPECT_TRUE(r.timedOut) << cfg.name;
        }
    }
}

TEST(Workloads, ReferenceBatchMatchesRecordedDigest) {
    for (const std::string& name : workloadNames()) {
        const std::optional<std::uint64_t> reference = referenceDigest(name);
        if (!reference) continue;
        std::vector<std::uint64_t> digests;
        for (const ExperimentConfig& cfg : makeWorkload(name, 1).configs) {
            digests.push_back(runExperiment(cfg).telemetryDigest);
        }
        EXPECT_EQ(foldDigests(digests), *reference) << name;
    }
}

TEST(Workloads, HeldOutSeedRunsClean) {
    for (const std::string& name : workloadNames()) {
        for (ExperimentConfig cfg : makeWorkload(name, kHeldOutSeed).configs) {
            cfg.invariants = InvariantMode::Record;
            const ExperimentResult r = runExperiment(cfg);
            EXPECT_FALSE(r.timedOut) << cfg.name;
            EXPECT_FALSE(r.jobFailed) << cfg.name << ": " << r.jobError;
            EXPECT_EQ(r.invariantViolations, 0u) << cfg.name;
            EXPECT_EQ(r.attrConservationFailures, 0u) << cfg.name;
            EXPECT_GT(r.packetsDelivered, 0u) << cfg.name;
        }
    }
}

TEST(Workloads, UnknownNameIsRejected) {
    EXPECT_THROW(makeWorkload("kv", 1), std::invalid_argument);
}
