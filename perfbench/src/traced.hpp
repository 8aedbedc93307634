// The traced build: the same experiment runExperiment runs, assembled here
// from the public builders so that each call into a layer can be timed from
// outside. Obs sinks are not attached (their wiring is private to the
// runner), which leaves the telemetry digest unchanged: observability never
// perturbs a run. The digest of every traced experiment must equal the
// digest runExperiment gives for the same config, or the ledger is void.
#pragma once

#include <cstdint>

#include "perfbench/src/timed_queue.hpp"
#include "src/core/experiment.hpp"

namespace perfbench {

/// Host seconds per phase of one experiment. Together the phases cover the
/// experiment; TracedExperiment::wallSec minus their sum is what the laps
/// themselves cost.
struct TracedPhases {
    double prepare = 0.0;       ///< validate + Simulator, Network, queue factories
    double netBuild = 0.0;      ///< buildStar / buildLeafSpine
    double runtimeBuild = 0.0;  ///< ClusterRuntime
    double driverBuild = 0.0;   ///< makeWorkloadDriver
    double driverStart = 0.0;   ///< WorkloadDriver::start
    double run = 0.0;           ///< Simulator::runUntil
    double collect = 0.0;       ///< verifyInvariants, report(), telemetry, TCP stats
    double teardown = 0.0;      ///< destruction of driver, runtime, network, simulator

    double sum() const {
        return prepare + netBuild + runtimeBuild + driverBuild + driverStart + run + collect +
               teardown;
    }
    TracedPhases& operator+=(const TracedPhases& o) {
        prepare += o.prepare;
        netBuild += o.netBuild;
        runtimeBuild += o.runtimeBuild;
        driverBuild += o.driverBuild;
        driverStart += o.driverStart;
        run += o.run;
        collect += o.collect;
        teardown += o.teardown;
        return *this;
    }
};

struct TracedExperiment {
    double wallSec = 0.0;
    TracedPhases phases;
    QueueTally switchQueues;  ///< every queue makeQueueFactory built
    QueueTally hostQueues;    ///< every host NIC DropTail queue

    std::uint64_t digest = 0;
    std::uint64_t redFastPathHits = 0;
    bool timedOut = false;
    bool jobFailed = false;
    /// Switch-queue decisions summed over packet classes, as the network's
    /// own accounting reports them.
    ecnsim::QueueStats::PerClass switchTotals;
};

/// Run `cfg` through the traced build. With `decorate` false the queues are
/// not wrapped (the tallies stay zero); tests use that to show the
/// decorator is transparent.
TracedExperiment runTraced(const ecnsim::ExperimentConfig& cfg, bool decorate = true);

}  // namespace perfbench
