#include "perfbench/src/traced.hpp"

#include <chrono>
#include <memory>

#include "src/aqm/factory.hpp"
#include "src/mapred/runtime.hpp"
#include "src/net/network.hpp"
#include "src/net/topology.hpp"
#include "src/sim/simulator.hpp"
#include "src/workloads/factory.hpp"

namespace perfbench {

using namespace ecnsim;
using Clock = std::chrono::steady_clock;

namespace {

/// Adds the time since the previous lap to one phase.
class Lap {
public:
    void to(double& phase) {
        const Clock::time_point now = Clock::now();
        phase += std::chrono::duration<double>(now - last_).count();
        last_ = now;
    }

private:
    Clock::time_point last_ = Clock::now();
};

/// The objects of one experiment, declared in construction order so that
/// destruction runs in the same order as runExperiment's scope exit.
struct Rig {
    std::unique_ptr<InvariantChecker> checker;
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<Network> net;
    std::unique_ptr<ClusterRuntime> runtime;
    std::unique_ptr<WorkloadDriver> driver;
};

}  // namespace

TracedExperiment runTraced(const ExperimentConfig& cfg, bool decorate) {
    TracedExperiment out;
    TracedPhases& ph = out.phases;
    const Clock::time_point t0 = Clock::now();
    Lap lap;

    auto rig = std::make_unique<Rig>();
    cfg.validate();
    rig->checker = std::make_unique<InvariantChecker>(cfg.invariants);
    rig->sim = std::make_unique<Simulator>(cfg.seed, cfg.scheduler);
    Simulator& sim = *rig->sim;
    sim.setInvariants(rig->checker.get());
    rig->net = std::make_unique<Network>(sim);
    Network& net = *rig->net;

    QueueConfig switchQ = cfg.switchQueue;
    switchQ.linkRate = cfg.linkRate;
    switchQ.capacityPackets = bufferCapacityPackets(cfg.buffers);
    QueueConfig hostQ;
    hostQ.kind = QueueKind::DropTail;
    hostQ.capacityPackets = cfg.hostQueuePackets;
    TopologyConfig topo;
    topo.linkRate = cfg.linkRate;
    topo.linkDelay = cfg.linkDelay;
    topo.switchQueue = makeQueueFactory(switchQ, sim.rng());
    topo.hostQueue = makeQueueFactory(hostQ, sim.rng());
    if (decorate) {
        topo.switchQueue = timedFactory(std::move(topo.switchQueue), out.switchQueues);
        topo.hostQueue = timedFactory(std::move(topo.hostQueue), out.hostQueues);
    }
    lap.to(ph.prepare);

    const std::vector<HostNode*> hosts = cfg.topology == TopologyKind::Star
                                             ? buildStar(net, cfg.numNodes, topo)
                                             : buildLeafSpine(net, cfg.leafSpine, topo);
    lap.to(ph.netBuild);

    ClusterSpec cluster = cfg.cluster;
    cluster.numNodes = static_cast<int>(hosts.size());
    TcpConfig tcp = TcpConfig::forTransport(cfg.transport);
    tcp.ectOnControlPackets = cfg.ecnPlusPlus;
    tcp.sackEnabled = cfg.sack;
    rig->runtime = std::make_unique<ClusterRuntime>(net, hosts, cluster, tcp);
    lap.to(ph.runtimeBuild);

    rig->driver = makeWorkloadDriver(cfg.workload, cfg.job, *rig->runtime);
    WorkloadDriver& driver = *rig->driver;
    lap.to(ph.driverBuild);

    driver.setOnComplete([&sim] { sim.stop(); });
    driver.start();
    lap.to(ph.driverStart);

    sim.runUntil(cfg.horizon);
    lap.to(ph.run);

    // The reads runExperiment makes after the run. Values the ledger does
    // not use go to `discard`, so the calls cannot be optimised away.
    net.verifyInvariants();
    out.timedOut = !driver.terminal();
    out.jobFailed = driver.failed();
    const WorkloadReport rep = driver.report(cfg.horizon);
    const NetworkTelemetry& tel = net.telemetry();
    volatile double discard = rep.throughputPerNodeMbps + tel.latencyAll().mean() +
                              tel.latencyQuantileUs(0.99) +
                              tel.latencyOf(PacketClass::Data).mean() +
                              tel.latencyOf(PacketClass::PureAck).mean();
    for (std::size_t c = 0; c < kNumPacketClasses; ++c) {
        const QueueStats::PerClass s = net.switchDropSummary(static_cast<PacketClass>(c));
        out.switchTotals.enqueued += s.enqueued;
        out.switchTotals.marked += s.marked;
        out.switchTotals.droppedEarly += s.droppedEarly;
        out.switchTotals.droppedOverflow += s.droppedOverflow;
    }
    discard = static_cast<double>(net.switchMarksTotal() +
                                  rig->runtime->aggregateTcpStats().retransmits +
                                  sim.schedulerCounters().cascades);
    (void)discard;
    out.digest = tel.digest();
    out.redFastPathHits = net.switchFastPathHitsTotal();
    lap.to(ph.collect);

    rig.reset();
    lap.to(ph.teardown);
    out.wallSec = std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
}

}  // namespace perfbench
