// perfbench — the repository benchmark. README.md next to this directory
// describes the workloads, the metrics and how to read a ledger.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// One process, one thread, a closed loop with a single caller: each
// experiment starts when the previous one returns. With --trace 0 it runs
// the workload's batch through runExperiment in rounds for S seconds and
// reports the end-to-end metrics; with --trace 1 it runs every obs mode and
// the traced build instead and reports the per-layer ledger. Either way a
// record-mode verification pass runs first, and the last stdout line is the
// JSON result. Exit status is 0 only when every experiment ran clean.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "perfbench/src/host.hpp"
#include "perfbench/src/metrics.hpp"
#include "perfbench/src/traced.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/core/runner.hpp"

using namespace ecnsim;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

/// Setup probe batches run after each timed round; setup_s is their median.
constexpr int kSetupProbesPerRound = 10;
/// Timed rounds always measured, however short --seconds is.
constexpr int kMinRounds = 3;

const char* const kObsModes[] = {"metrics", "trace", "attribution", "profile", "full"};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

bool parseArgs(int argc, char** argv, Args& a) {
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0' || value.front() == '-') return false;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(a.seconds > 0.0)) return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return false;
            a.trace = value == "1";
        } else {
            return false;
        }
    }
    return haveWorkload && argc % 2 == 1;
}

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Run `configs` serially; `wallSec[i]` gets the host seconds of experiment i.
std::vector<ExperimentResult> runBatch(const std::vector<ExperimentConfig>& configs,
                                       std::vector<double>& wallSec) {
    std::vector<ExperimentResult> out;
    out.reserve(configs.size());
    wallSec.clear();
    for (const ExperimentConfig& cfg : configs) {
        const Clock::time_point t0 = Clock::now();
        out.push_back(runExperiment(cfg));
        wallSec.push_back(since(t0));
    }
    return out;
}

/// Best-of-N per experiment. Other tenants of the host slow this process in
/// episodes of seconds by up to 2x (README.md, "Noise"), so the fastest of
/// an experiment's repeats is the steadiest estimate of its cost; a batch
/// costs the sum of its experiments' fastest repeats.
class BestOf {
public:
    explicit BestOf(std::size_t n) : best_(n, std::numeric_limits<double>::infinity()) {}

    void add(std::size_t i, double wallSec) { best_[i] = std::min(best_[i], wallSec); }
    double batch() const {
        double sum = 0.0;
        for (const double b : best_) sum += b;
        return sum;
    }

private:
    std::vector<double> best_;
};

double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
}

std::vector<ExperimentConfig> withObsMode(std::vector<ExperimentConfig> configs,
                                          const std::string& mode) {
    for (ExperimentConfig& cfg : configs) {
        cfg.obs = ObsConfig{};
        cfg.obs.applyMode(mode);
    }
    return configs;
}

/// Every experiment attempted, and every way one can fail.
class Verdict {
public:
    /// Count one experiment. `expected` is the digest a repeat of the same
    /// seed must reproduce (0 on the first run of a seed).
    void experiment(const ExperimentResult& r, std::uint64_t expected) {
        ++attempted_;
        std::string why;
        if (r.timedOut) why += " timed-out";
        if (r.jobFailed) why += " job-failed(" + r.jobError + ")";
        if (r.invariantViolations > 0) {
            why += " invariant-violations=" + std::to_string(r.invariantViolations);
        }
        if (r.attrConservationFailures > 0) {
            why += " attribution-conservation-failures=" +
                   std::to_string(r.attrConservationFailures);
        }
        if (expected != 0 && r.telemetryDigest != expected) {
            char buf[80];
            std::snprintf(buf, sizeof buf, " digest 0x%016" PRIx64 " != 0x%016" PRIx64,
                          r.telemetryDigest, expected);
            why += buf;
        }
        if (!why.empty()) {
            ++failed_;
            std::printf("FAIL %s:%s\n", r.name.c_str(), why.c_str());
        }
    }

    /// A check that is not one experiment (reference digest, traced build).
    void flag(const std::string& why) {
        correct_ = false;
        std::printf("FAIL %s\n", why.c_str());
    }

    bool clean() const { return correct_ && failed_ == 0; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
};

/// The record-mode verification pass: checks invariants and attribution
/// conservation, prints the per-seed and folded digests and returns the
/// results (their digests are what every later repeat must reproduce).
std::vector<ExperimentResult> verify(const Workload& w, std::uint64_t seed, Verdict& verdict) {
    std::vector<ExperimentConfig> configs = w.configs;
    for (ExperimentConfig& cfg : configs) cfg.invariants = InvariantMode::Record;
    std::vector<double> walls;
    std::vector<ExperimentResult> results = runBatch(configs, walls);
    std::vector<std::uint64_t> digests;
    for (const ExperimentResult& r : results) {
        verdict.experiment(r, 0);
        digests.push_back(r.telemetryDigest);
        std::printf("digest %s 0x%016" PRIx64 "\n", r.name.c_str(), r.telemetryDigest);
    }
    const std::uint64_t folded = foldDigests(digests);
    std::printf("digest %s folded 0x%016" PRIx64 "\n", w.name.c_str(), folded);
    const std::optional<std::uint64_t> reference = referenceDigest(w.name);
    if (seed == 1 && reference && *reference != folded) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "%s reference batch digest 0x%016" PRIx64
                      " != recorded 0x%016" PRIx64, w.name.c_str(), folded, *reference);
        verdict.flag(buf);
    }
    return results;
}

void checkRepeat(const std::vector<ExperimentResult>& results,
                 const std::vector<ExperimentResult>& reference, Verdict& verdict) {
    for (std::size_t i = 0; i < results.size(); ++i) {
        verdict.experiment(results[i], reference[i].telemetryDigest);
    }
}

/// The batch cut off at 1 ns: the full build and teardown of every
/// experiment, with no traffic.
std::vector<ExperimentConfig> setupProbeConfigs(std::vector<ExperimentConfig> configs) {
    for (ExperimentConfig& cfg : configs) cfg.horizon = Time::nanoseconds(1);
    return configs;
}

/// Host seconds of one setup-probe batch.
double setupProbe(const std::vector<ExperimentConfig>& probe, Verdict& verdict) {
    std::vector<double> walls;
    for (const ExperimentResult& r : runBatch(probe, walls)) {
        if (r.packetsDelivered != 0) verdict.flag(r.name + " setup probe delivered packets");
    }
    return sum(walls);
}

void endToEnd(const Args& args, const Workload& w, const std::vector<ExperimentResult>& ref,
              Verdict& verdict, MetricSet& m) {
    const std::vector<ExperimentConfig> probe = setupProbeConfigs(w.configs);
    BestOf best(w.configs.size());
    std::vector<double> batchWalls, setupWalls, walls;
    const Clock::time_point t0 = Clock::now();
    while (batchWalls.size() < kMinRounds || since(t0) < args.seconds) {
        checkRepeat(runBatch(w.configs, walls), ref, verdict);
        for (std::size_t i = 0; i < walls.size(); ++i) best.add(i, walls[i]);
        batchWalls.push_back(sum(walls));
        for (int k = 0; k < kSetupProbesPerRound; ++k) {
            setupWalls.push_back(setupProbe(probe, verdict));
        }
    }
    std::uint64_t packets = 0;
    for (const ExperimentResult& r : ref) packets += r.packetsDelivered;

    const double wall = best.batch();
    const double setup = median(setupWalls);
    std::printf("timed %s: %zu rounds of %zu experiments; batch wall median %.4f s, "
                "range %.4f..%.4f s; best-of-%zu per experiment %.4f s\n",
                w.name.c_str(), batchWalls.size(), w.configs.size(), median(batchWalls),
                *std::min_element(batchWalls.begin(), batchWalls.end()),
                *std::max_element(batchWalls.begin(), batchWalls.end()), batchWalls.size(), wall);
    std::printf("setup %s: %zu probe batches, median %.6f s\n", w.name.c_str(), setupWalls.size(),
                setup);
    m.set("wall_s", wall);
    m.set("ns_per_pkt", wall * 1e9 / static_cast<double>(packets));
    m.set("setup_s", setup);
    m.set("peak_rss_mb", peakRssMb());
}

/// Counts that repeat exactly: scheduler shape and model outputs.
void countMetrics(const std::vector<ExperimentResult>& ref, MetricSet& m) {
    std::uint64_t events = 0, pkts = 0, drains = 0, cascades = 0, churn = 0, maxLive = 0;
    std::uint64_t marks = 0, ackDrop = 0, ackOff = 0, synDrop = 0, synOff = 0;
    std::uint64_t retx = 0, dataOff = 0, rtos = 0, synRetries = 0, issued = 0, completed = 0;
    for (const ExperimentResult& r : ref) {
        events += r.eventsExecuted;
        pkts += r.packetsDelivered;
        drains += r.batchDrains;
        cascades += r.cascades;
        churn += r.cancelledEvents;
        maxLive = std::max(maxLive, r.heapMaxDepth);
        marks += r.ceMarks;
        ackDrop += r.ackDroppedEarly;
        ackOff += r.ackOffered;
        synDrop += r.synDropped;
        synOff += r.synOffered;
        retx += r.retransmits;
        dataOff += r.dataOffered;
        rtos += r.rtoEvents;
        synRetries += r.synRetries;
        issued += r.reqIssued;
        completed += r.reqCompleted;
    }
    m.set("sim.events", static_cast<double>(events));
    m.set("sim.events_per_pkt", ratio(events, pkts));
    m.set("sim.events_per_drain", ratio(events, drains));
    m.set("sim.cascades_per_event", ratio(cascades, events));
    m.set("sim.timer_churn_per_event", ratio(churn, events));
    m.set("sim.max_live_pending", static_cast<double>(maxLive));
    m.set("net.pkts_delivered", static_cast<double>(pkts));
    m.set("net.ce_marks", static_cast<double>(marks));
    m.set("net.ack_early_drop_ratio", ratio(ackDrop, ackOff));
    m.set("net.syn_drop_ratio", ratio(synDrop, synOff));
    m.set("tcp.retransmit_ratio", ratio(retx, dataOff));
    m.set("tcp.rto_events", static_cast<double>(rtos));
    m.set("tcp.syn_retries", static_cast<double>(synRetries));
    // A MapReduce batch issues no requests: none is missing.
    m.set("workloads.req_completed_ratio", issued == 0 ? 1.0 : ratio(completed, issued));
}

/// Sum of the fastest traced run of each experiment: phases, queue tallies
/// and wall, all taken from the same run so that they add up.
struct Ledger {
    double wallSec = 0.0;
    TracedPhases phases;
    QueueTally switchQueues, hostQueues;
    std::uint64_t redFastPathHits = 0;

    void add(const TracedExperiment& e) {
        wallSec += e.wallSec;
        phases += e.phases;
        switchQueues += e.switchQueues;
        hostQueues += e.hostQueues;
        redFastPathHits += e.redFastPathHits;
    }
    double aqmSelfSec() const { return switchQueues.selfSec() + hostQueues.selfSec(); }
};

double timed(const ExperimentConfig& cfg, ExperimentResult& out) {
    const Clock::time_point t0 = Clock::now();
    out = runExperiment(cfg);
    return since(t0);
}

/// The traced run. Returns false when the traced build's digests differ
/// from runExperiment's, in which case no per-layer number is reported.
bool perLayer(const Args& args, const Workload& w, const std::vector<ExperimentResult>& ref,
              Verdict& verdict, MetricSet& m) {
    const std::size_t n = w.configs.size();
    const std::vector<ExperimentConfig> off = withObsMode(w.configs, "off");
    std::vector<std::vector<ExperimentConfig>> modes;
    for (const char* mode : kObsModes) modes.push_back(withObsMode(w.configs, mode));

    BestOf offBest(n);
    std::vector<BestOf> modeBest(modes.size(), BestOf(n));
    std::vector<TracedExperiment> traced(n);
    for (TracedExperiment& t : traced) t.wallSec = std::numeric_limits<double>::infinity();
    std::vector<ExperimentResult> full(n);
    bool digestMatch = true;
    int rounds = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        // Interleaved per experiment, so that a slow episode of the host
        // lands on obs off, every obs mode and the traced build alike.
        for (std::size_t i = 0; i < n; ++i) {
            ExperimentResult r;
            offBest.add(i, timed(off[i], r));
            verdict.experiment(r, ref[i].telemetryDigest);
            for (std::size_t k = 0; k < modes.size(); ++k) {
                modeBest[k].add(i, timed(modes[k][i], r));
                verdict.experiment(r, ref[i].telemetryDigest);
            }
            full[i] = std::move(r);  // the last mode is "full"

            TracedExperiment t = runTraced(off[i]);
            if (t.digest != ref[i].telemetryDigest || t.timedOut || t.jobFailed) {
                digestMatch = false;
                std::printf("traced %s: digest 0x%016" PRIx64 " vs runExperiment 0x%016" PRIx64
                            "%s\n", off[i].name.c_str(), t.digest, ref[i].telemetryDigest,
                            t.timedOut ? " (timed out)" : "");
            }
            if (t.wallSec < traced[i].wallSec) traced[i] = t;
        }
        ++rounds;
    } while (since(t0) < args.seconds);

    if (!digestMatch) {
        verdict.flag(w.name + " traced build diverged from runExperiment: ledger withheld");
        return false;
    }

    // obs.setup_ms: build + teardown with every sink on, minus without.
    const std::vector<ExperimentConfig> probeOff = setupProbeConfigs(off);
    const std::vector<ExperimentConfig> probeFull = setupProbeConfigs(modes.back());
    std::vector<double> setupOff, setupFull;
    for (int k = 0; k < 10 * kSetupProbesPerRound; ++k) {
        setupOff.push_back(setupProbe(probeOff, verdict));
        setupFull.push_back(setupProbe(probeFull, verdict));
    }

    Ledger lg;
    for (const TracedExperiment& t : traced) lg.add(t);
    const TracedPhases& p = lg.phases;
    const double nd = static_cast<double>(n);
    const double offWall = offBest.batch();

    m.set("sim.run_s", p.run);
    m.set("sim.rest_s", p.run - lg.aqmSelfSec());
    m.set("aqm.switch.enqueue_ns", lg.switchQueues.enqueueNs());
    m.set("aqm.switch.dequeue_ns", lg.switchQueues.dequeueNs());
    m.set("aqm.switch.calls",
          static_cast<double>(lg.switchQueues.enqueueCalls + lg.switchQueues.dequeueCalls));
    m.set("aqm.switch.self_s", lg.switchQueues.selfSec());
    m.set("aqm.host.enqueue_ns", lg.hostQueues.enqueueNs());
    m.set("aqm.host.self_s", lg.hostQueues.selfSec());
    m.set("aqm.self_share", lg.aqmSelfSec() / p.run);
    m.set("aqm.red_fast_path_ratio", ratio(lg.redFastPathHits, lg.switchQueues.enqueueCalls));

    m.set("core.prepare_ms", p.prepare * 1e3 / nd);
    m.set("net.build_ms", p.netBuild * 1e3 / nd);
    m.set("mapred.runtime_build_ms", p.runtimeBuild * 1e3 / nd);
    m.set("workloads.driver_build_ms", p.driverBuild * 1e3 / nd);
    m.set("workloads.start_ms", p.driverStart * 1e3 / nd);
    m.set("core.collect_ms", p.collect * 1e3 / nd);
    m.set("core.teardown_ms", p.teardown * 1e3 / nd);

    for (std::size_t k = 0; k < modes.size(); ++k) {
        m.set(std::string("obs.") + kObsModes[k] + "_pct",
              100.0 * (modeBest[k].batch() / offWall - 1.0));
    }
    m.set("obs.setup_ms", (median(setupFull) - median(setupOff)) * 1e3 / nd);
    std::uint64_t records = 0, dropped = 0, samples = 0;
    for (const ExperimentResult& r : full) {
        records += r.traceRecords;
        dropped += r.traceDroppedEvents;
        samples += r.metricSamples;
    }
    m.set("obs.trace_records", static_cast<double>(records));
    m.set("obs.trace_dropped_ratio", ratio(dropped, records));
    m.set("obs.metric_samples", static_cast<double>(samples));

    m.set("trace.wall_s", lg.wallSec);
    m.set("trace.unaccounted_pct", 100.0 * (lg.wallSec - p.sum()) / lg.wallSec);
    m.set("trace.overhead_pct", 100.0 * (lg.wallSec / offWall - 1.0));
    m.set("trace.digest_match", 1.0);
    countMetrics(ref, m);

    const double self = lg.aqmSelfSec();
    std::printf("ledger %s: best of %d traced rounds per experiment, %zu experiments, %.4f s:\n",
                w.name.c_str(), rounds, n, lg.wallSec);
    const auto row = [&lg](const char* layer, const char* call, double s) {
        std::printf("  %-10s %-46s %9.4f s %6.2f%%\n", layer, call, s, 100.0 * s / lg.wallSec);
    };
    row("core", "validate + Simulator/Network + queue factories", p.prepare);
    row("net", "buildStar", p.netBuild);
    row("mapred", "ClusterRuntime", p.runtimeBuild);
    row("workloads", "makeWorkloadDriver", p.driverBuild);
    row("workloads", "WorkloadDriver::start", p.driverStart);
    row("aqm", "Queue enqueue/dequeue (sampled, in runUntil)", self);
    row("sim", "Simulator::runUntil minus aqm", p.run - self);
    row("core", "collect: report, telemetry, TCP stats", p.collect);
    row("core", "teardown", p.teardown);
    row("-", "remainder (the laps themselves)", lg.wallSec - p.sum());
    std::printf("  tracing overhead vs runExperiment with obs off: %+.2f%% (%.4f s vs %.4f s)\n",
                100.0 * (lg.wallSec / offWall - 1.0), lg.wallSec, offWall);
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
                     "workloads: shuffle, mixed, incast_observed\n");
        return 2;
    }
    const HostFingerprint fp = hostFingerprint();
    std::printf("host %s\n", fp.toJson().c_str());
    const std::string refusal = buildRefusal(fp);
    if (!refusal.empty()) {
        std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n", refusal.c_str());
        return 3;
    }
    try {
        const Workload w = makeWorkload(args.workload, args.seed);
        Verdict verdict;
        const std::vector<ExperimentResult> ref = verify(w, args.seed, verdict);
        MetricSet m(args.trace ? Section::PerLayer : Section::EndToEnd);
        bool reported = true;
        if (args.trace) {
            reported = perLayer(args, w, ref, verdict, m);
        } else {
            endToEnd(args, w, ref, verdict, m);
        }
        std::printf("failed_ratio %.6f (%" PRIu64 " of %" PRIu64 " experiments)\n",
                    ratio(verdict.failed(), verdict.attempted()), verdict.failed(),
                    verdict.attempted());
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                    ", \"metrics\": %s}\n",
                    verdict.clean() ? "true" : "false", verdict.attempted(), verdict.failed(),
                    reported ? m.toJson().c_str() : "{}");
        return verdict.clean() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
