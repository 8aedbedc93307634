// A timing decorator around any ecnsim::Queue: forwards every call to the
// wrapped discipline, counts every call and outcome, and times one call in
// kSampleEvery with the host clock (timing every call would double the
// cost of a queue operation and distort the ledger it feeds). It changes no
// decision, so the simulation's digest is unchanged (perfbench_test checks
// this). Only for unobserved runs: Queue's observer slot is not virtual, so
// an observer attached to the decorator would not reach the wrapped queue.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "src/net/queue.hpp"

namespace perfbench {

/// Calls into one class of queues, with sampled host nanoseconds.
struct QueueTally {
    static constexpr std::uint64_t kSampleEvery = 16;

    std::uint64_t enqueueCalls = 0;
    std::uint64_t dequeueCalls = 0;
    std::uint64_t enqueueSamples = 0;  ///< timed enqueue calls
    std::uint64_t dequeueSamples = 0;  ///< timed dequeue calls
    std::uint64_t enqueueSampleNs = 0;
    std::uint64_t dequeueSampleNs = 0;
    /// Enqueue decisions by EnqueueOutcome, as the wrapped queue returned them.
    std::array<std::uint64_t, 4> outcomes{};

    /// Mean host ns per call, net of the cost of reading the clock.
    double enqueueNs() const { return netMean(enqueueSampleNs, enqueueSamples); }
    double dequeueNs() const { return netMean(dequeueSampleNs, dequeueSamples); }
    /// Estimated host seconds inside the queues: mean sampled cost x calls.
    double selfSec() const {
        return (enqueueNs() * static_cast<double>(enqueueCalls) +
                dequeueNs() * static_cast<double>(dequeueCalls)) * 1e-9;
    }
    QueueTally& operator+=(const QueueTally& o);

private:
    static double netMean(std::uint64_t ns, std::uint64_t n);
};


class TimedQueue final : public ecnsim::Queue {
public:
    /// `tally` must outlive the queue.
    TimedQueue(std::unique_ptr<ecnsim::Queue> inner, QueueTally& tally)
        : inner_(std::move(inner)), tally_(tally) {}

    ecnsim::EnqueueOutcome enqueue(ecnsim::PacketPtr pkt, ecnsim::Time now) override;
    ecnsim::PacketPtr dequeue(ecnsim::Time now) override;

    std::size_t lengthPackets() const override { return inner_->lengthPackets(); }
    std::int64_t lengthBytes() const override { return inner_->lengthBytes(); }
    std::size_t capacityPackets() const override { return inner_->capacityPackets(); }
    bool empty() const override { return inner_->empty(); }
    std::vector<const ecnsim::Packet*> contents() const override { return inner_->contents(); }
    const ecnsim::QueueStats& stats() const override { return inner_->stats(); }
    std::string name() const override { return inner_->name(); }
    std::uint64_t fastPathHits() const override { return inner_->fastPathHits(); }
    bool checkConsistent(std::string& why) const override { return inner_->checkConsistent(why); }

private:
    std::unique_ptr<ecnsim::Queue> inner_;
    QueueTally& tally_;
};

/// Wrap every queue a factory builds.
ecnsim::QueueFactory timedFactory(ecnsim::QueueFactory inner, QueueTally& tally);

}  // namespace perfbench
