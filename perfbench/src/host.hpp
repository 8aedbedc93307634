// Host fingerprint and build guard: every result names the machine and the
// build it came from, and numbers from a debug or sanitizer build are
// refused outright.
#pragma once

#include <string>

namespace perfbench {

struct HostFingerprint {
    std::string cpuModel;
    unsigned nproc = 0;
    std::string compiler;   ///< e.g. "gcc 12.2.0"
    std::string buildType;  ///< CMAKE_BUILD_TYPE the benchmark was built with
    std::string cxxFlags;   ///< compile flags of that build type
    std::string sanitizers; ///< "none", or the sanitizers compiled in
    bool assertsEnabled = false;

    std::string toJson() const;
};

HostFingerprint hostFingerprint();

/// Empty when the build may report numbers; otherwise why it may not.
std::string buildRefusal(const HostFingerprint& fp);

/// Peak resident set size of this process image so far, in MiB.
double peakRssMb();

}  // namespace perfbench
