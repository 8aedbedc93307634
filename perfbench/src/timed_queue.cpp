#include "perfbench/src/timed_queue.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

namespace perfbench {

namespace {

std::uint64_t nowNs() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

/// What one timed interval adds by reading the clock: the median of many
/// back-to-back reads, measured once per process.
double clockOverheadNs() {
    static const double overhead = [] {
        std::vector<std::uint64_t> d(10001);
        for (std::uint64_t& x : d) {
            const std::uint64_t t0 = nowNs();
            x = nowNs() - t0;
        }
        std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
        return static_cast<double>(d[d.size() / 2]);
    }();
    return overhead;
}

}  // namespace

double QueueTally::netMean(std::uint64_t ns, std::uint64_t n) {
    if (n == 0) return 0.0;
    return std::max(0.0, static_cast<double>(ns) / static_cast<double>(n) - clockOverheadNs());
}

QueueTally& QueueTally::operator+=(const QueueTally& o) {
    enqueueCalls += o.enqueueCalls;
    dequeueCalls += o.dequeueCalls;
    enqueueSamples += o.enqueueSamples;
    dequeueSamples += o.dequeueSamples;
    enqueueSampleNs += o.enqueueSampleNs;
    dequeueSampleNs += o.dequeueSampleNs;
    for (std::size_t i = 0; i < outcomes.size(); ++i) outcomes[i] += o.outcomes[i];
    return *this;
}

ecnsim::EnqueueOutcome TimedQueue::enqueue(ecnsim::PacketPtr pkt, ecnsim::Time now) {
    ecnsim::EnqueueOutcome o;
    if (++tally_.enqueueCalls % QueueTally::kSampleEvery == 0) {
        const std::uint64_t t0 = nowNs();
        o = inner_->enqueue(std::move(pkt), now);
        tally_.enqueueSampleNs += nowNs() - t0;
        ++tally_.enqueueSamples;
    } else {
        o = inner_->enqueue(std::move(pkt), now);
    }
    ++tally_.outcomes[static_cast<std::size_t>(o)];
    return o;
}

ecnsim::PacketPtr TimedQueue::dequeue(ecnsim::Time now) {
    if (++tally_.dequeueCalls % QueueTally::kSampleEvery != 0) return inner_->dequeue(now);
    const std::uint64_t t0 = nowNs();
    ecnsim::PacketPtr p = inner_->dequeue(now);
    tally_.dequeueSampleNs += nowNs() - t0;
    ++tally_.dequeueSamples;
    return p;
}

ecnsim::QueueFactory timedFactory(ecnsim::QueueFactory inner, QueueTally& tally) {
    return [inner = std::move(inner), &tally] {
        return std::make_unique<TimedQueue>(inner(), tally);
    };
}

}  // namespace perfbench
