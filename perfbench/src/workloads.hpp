// The benchmark's workloads: each is a fixed experiment shape, run as a
// serial batch of seeded experiments. README.md records why each was chosen.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/experiment.hpp"

namespace perfbench {

/// Experiments per seed leg of a batch: bench seed n runs simulator seeds
/// 4n-3 .. 4n, so bench seed 1 is the repository's reference batch 1-4.
constexpr int kSeedsPerBatch = 4;

struct Workload {
    std::string name;
    /// One batch, in run order. `mixed` holds two legs (protection Default,
    /// then ProtectAckSyn) of kSeedsPerBatch experiments each.
    std::vector<ecnsim::ExperimentConfig> configs;
};

/// Names accepted by makeWorkload, in documentation order.
const std::vector<std::string>& workloadNames();

/// The batch for `name` at bench seed `seed`. Invariant checking is off and
/// obs is set explicitly, so the environment (ECNSIM_OBS, ECNSIM_INVARIANTS)
/// cannot change what is measured. Throws std::invalid_argument on an
/// unknown name.
Workload makeWorkload(const std::string& name, std::uint64_t seed);

/// Folded telemetry digest of the reference batch (bench seed 1) as
/// produced by the repository when the benchmark was defined. A change that
/// alters simulated behaviour alters it; nullopt when none is recorded.
std::optional<std::uint64_t> referenceDigest(const std::string& name);

/// FNV fold of the per-experiment digests in batch order (the same fold
/// ExperimentResult::average and bench_runner use).
std::uint64_t foldDigests(const std::vector<std::uint64_t>& digests);

}  // namespace perfbench
