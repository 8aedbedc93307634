#include "perfbench/src/host.hpp"

#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string jsonEscape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

std::string cpuModel() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string compiledSanitizers() {
    std::string s;
#if defined(__SANITIZE_ADDRESS__)
    s += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
    s += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(__SANITIZE_ADDRESS__)
    s += "address ";
#endif
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
    s += "thread ";
#endif
#if __has_feature(memory_sanitizer)
    s += "memory ";
#endif
#endif
    // UBSan defines no macro; the flags the build passed tell instead.
    if (std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") != std::string::npos) s += "flags ";
    if (s.empty()) return "none";
    s.pop_back();
    return s;
}

}  // namespace

HostFingerprint hostFingerprint() {
    HostFingerprint fp;
    fp.cpuModel = cpuModel();
    fp.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
    fp.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    fp.compiler = "gcc " __VERSION__;
#else
    fp.compiler = "unknown";
#endif
    fp.buildType = PERFBENCH_BUILD_TYPE;
    fp.cxxFlags = PERFBENCH_CXX_FLAGS;
    fp.sanitizers = compiledSanitizers();
#if defined(NDEBUG)
    fp.assertsEnabled = false;
#else
    fp.assertsEnabled = true;
#endif
    return fp;
}

std::string HostFingerprint::toJson() const {
    std::ostringstream os;
    os << "{\"cpu_model\": \"" << jsonEscape(cpuModel) << "\", \"nproc\": " << nproc
       << ", \"compiler\": \"" << jsonEscape(compiler) << "\", \"build_type\": \""
       << jsonEscape(buildType) << "\", \"cxx_flags\": \"" << jsonEscape(cxxFlags)
       << "\", \"sanitizers\": \"" << jsonEscape(sanitizers)
       << "\", \"asserts\": " << (assertsEnabled ? "true" : "false") << "}";
    return os.str();
}

std::string buildRefusal(const HostFingerprint& fp) {
    if (fp.buildType != "Release" && fp.buildType != "RelWithDebInfo") {
        return "build type '" + fp.buildType + "' is not optimised (need Release or RelWithDebInfo)";
    }
    if (fp.sanitizers != "none") return "sanitizer build (" + fp.sanitizers + ")";
    if (fp.assertsEnabled) return "asserts are compiled in (NDEBUG undefined)";
    return {};
}

double peakRssMb() {
    // VmHWM belongs to this process image. getrusage's ru_maxrss survives
    // execve, so under a launcher it would report the launcher's peak when
    // that is larger; it is only the fallback.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
