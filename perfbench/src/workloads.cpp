#include "perfbench/src/workloads.hpp"

#include <stdexcept>

#include "src/core/series.hpp"
#include "src/net/telemetry.hpp"

namespace perfbench {

using namespace ecnsim;

namespace {

/// 12-node star, 16 MiB per node, RED+ECN shallow buffers at a 500 us
/// target: the paper's bottleneck switch, shared by all three workloads.
ExperimentConfig redEcnBase(TransportKind transport, RedVariant variant) {
    SweepScale scale;
    scale.numNodes = 12;
    scale.inputBytesPerNode = 16 * 1024 * 1024;
    scale.repeats = 1;
    ExperimentConfig cfg = makeBaseConfig(scale);
    cfg.transport = transport;
    cfg.switchQueue.kind = QueueKind::Red;
    cfg.switchQueue.redVariant = variant;
    cfg.switchQueue.ecnEnabled = true;
    cfg.switchQueue.targetDelay = Time::microseconds(500);
    cfg.buffers = BufferProfile::Shallow;
    cfg.invariants = InvariantMode::Off;
    cfg.obs = ObsConfig{};
    return cfg;
}

void appendSeeded(std::vector<ExperimentConfig>& out, const ExperimentConfig& leg,
                  std::uint64_t seed) {
    const std::uint64_t first = seed * kSeedsPerBatch - (kSeedsPerBatch - 1);
    for (int i = 0; i < kSeedsPerBatch; ++i) {
        ExperimentConfig cfg = leg;
        cfg.seed = first + static_cast<std::uint64_t>(i);
        cfg.name = leg.name + "/seed" + std::to_string(cfg.seed);
        out.push_back(std::move(cfg));
    }
}

}  // namespace

const std::vector<std::string>& workloadNames() {
    static const std::vector<std::string> names{"shuffle", "mixed", "incast_observed"};
    return names;
}

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
    Workload w{name, {}};
    if (name == "shuffle") {
        ExperimentConfig cfg = redEcnBase(TransportKind::EcnTcp, RedVariant::Classic);
        cfg.name = "shuffle";
        appendSeeded(w.configs, cfg, seed);
    } else if (name == "mixed") {
        ExperimentConfig base = redEcnBase(TransportKind::Dctcp, RedVariant::DctcpMimic);
        base.workload.kind = WorkloadKind::MixedTenancy;
        base.workload.mixed.rpcClients = 4;
        base.workload.mixed.opsPerSecPerClient = 400.0;
        for (const ProtectionMode prot : {ProtectionMode::Default, ProtectionMode::ProtectAckSyn}) {
            ExperimentConfig leg = base;
            leg.switchQueue.protection = prot;
            leg.name = prot == ProtectionMode::Default ? "mixed/default" : "mixed/acksyn";
            appendSeeded(w.configs, leg, seed);
        }
    } else if (name == "incast_observed") {
        ExperimentConfig cfg = redEcnBase(TransportKind::EcnTcp, RedVariant::Classic);
        cfg.name = "incast_observed";
        cfg.workload.kind = WorkloadKind::Incast;
        cfg.workload.incast.fanIn = cfg.numNodes - 1;
        cfg.workload.incast.waves = 300;
        cfg.workload.incast.replyBytes = 64 * 1024;
        cfg.obs.applyMode("full");
        appendSeeded(w.configs, cfg, seed);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

std::optional<std::uint64_t> referenceDigest(const std::string& name) {
    // shuffle and mixed equal bench_runner's full-size shuffle_red_ecn and
    // mixed scenarios; incast_observed runs 300 waves where bench_runner
    // runs 30, so its value was recorded from this benchmark.
    if (name == "shuffle") return 0x4c37aa38b6b67a19ull;
    if (name == "mixed") return 0x88add1ec67ad2a54ull;
    if (name == "incast_observed") return 0x4acabbb5b52d9f25ull;
    return std::nullopt;
}

std::uint64_t foldDigests(const std::vector<std::uint64_t>& digests) {
    std::uint64_t d = NetworkTelemetry::kDigestSeed;
    for (const std::uint64_t x : digests) d = NetworkTelemetry::foldDigest(d, x);
    return d;
}

}  // namespace perfbench
