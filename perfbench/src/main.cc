/**
 * @file
 * Benchmark driver: runs one workload for about --seconds, checks its
 * outputs and prints one JSON line of raw per-episode samples. The
 * wrapper perfbench/run.py builds this binary, reduces the samples to
 * medians and prints the contract line.
 *
 *   perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--work-dir <dir>] [--trace-out <f>]
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>

#include "bench.h"
#include "kernels/arch.h"

namespace perfbench {

void
Result::add(const std::string &name, const std::string &unit, double v)
{
    Metric &m = metrics_[name];
    m.unit = unit;
    m.values.push_back(v);
}

void
Result::check(const std::string &name, bool ok, const std::string &detail)
{
    checks_.push_back(Check{name, ok, detail});
}

void
Result::count(uint64_t attempted, uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

void
Result::note(const std::string &key, const std::string &value)
{
    notes_[key] = value;
}

bool
Result::correct() const
{
    if (checks_.empty())
        return false;
    for (const Check &c : checks_)
        if (!c.ok)
            return false;
    return true;
}

namespace {

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

std::string
compiler_id()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

std::string
Result::json(const Options &opt) const
{
    std::ostringstream os;
    os << "{\"workload\": " << quoted(opt.workload)
       << ", \"seed\": " << opt.seed << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"seconds\": " << number(opt.seconds)
       << ", \"nproc\": " << nproc() << ", \"kernel_arch\": "
       << quoted(autofl::kernels::kernel_arch_name(
              autofl::kernels::current_kernel_arch()))
       << ", \"compiler\": " << quoted(compiler_id())
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"checks\": [";
    for (size_t i = 0; i < checks_.size(); ++i) {
        os << (i ? ", " : "") << "{\"name\": " << quoted(checks_[i].name)
           << ", \"ok\": " << (checks_[i].ok ? "true" : "false")
           << ", \"detail\": " << quoted(checks_[i].detail) << "}";
    }
    os << "], \"notes\": {";
    for (auto it = notes_.begin(); it != notes_.end(); ++it)
        os << (it == notes_.begin() ? "" : ", ") << quoted(it->first) << ": "
           << quoted(it->second);
    os << "}, \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics_) {
        os << (first ? "" : ", ") << quoted(name) << ": {\"unit\": "
           << quoted(m.unit) << ", \"values\": [";
        for (size_t i = 0; i < m.values.size(); ++i)
            os << (i ? ", " : "") << number(m.values[i]);
        os << "]}";
        first = false;
    }
    os << "}}";
    return os.str();
}

int
nproc()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t
episode_seed(uint64_t seed, uint64_t i)
{
    // splitmix64 over (seed, i): distinct, well-mixed, reproducible.
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (i + 1) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) % 1000003 + 1;
}

double
peak_rss_mib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void
report_breakdown(const trace::Breakdown &b,
                 const std::vector<std::string> &modules, Result &out)
{
    out.add("trace.coverage", "frac", b.coverage());
    double self_sum = 0.0;
    for (const std::string &m : modules) {
        auto it = b.self_ns.find(m);
        const double ns = it == b.self_ns.end() ? 0.0 : it->second;
        self_sum += ns;
        out.add(m + ".self_frac", "frac", ns / b.phase_ns);
    }
    out.add("trace.residual_frac", "frac",
            std::max(0.0, b.phase_ns - self_sum) / b.phase_ns);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    namespace fs = std::filesystem;
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed")
            opt.seed = std::stoull(v);
        else if (k == "--seconds")
            opt.seconds = std::stod(v);
        else if (k == "--trace")
            opt.trace = v == "1";
        else if (k == "--work-dir")
            opt.work_dir = v;
        else if (k == "--trace-out")
            opt.trace_out = v;
        else {
            std::cerr << "unknown option " << k << "\n";
            return 2;
        }
    }
    void (*run)(const Options &, Result &) = nullptr;
    if (opt.workload == "train_mobilenet_pipe")
        run = run_train_mobilenet_pipe;
    else if (opt.workload == "train_cnn_loopback")
        run = run_train_cnn_loopback;
    else if (opt.workload == "paper_cnn_sync")
        run = run_paper_cnn_sync;
    else if (opt.workload == "serve_lstm_openloop")
        run = run_serve_lstm_openloop;
    if (run == nullptr) {
        std::cerr << "unknown workload '" << opt.workload << "'\n";
        return 2;
    }
    if (opt.work_dir.empty())
        opt.work_dir = ".bench_work";
    opt.work_dir += "/" + opt.workload + "-" + std::to_string(getpid());
    std::error_code ec;
    fs::remove_all(opt.work_dir, ec);
    fs::create_directories(opt.work_dir, ec);

    Result res;
    try {
        run(opt, res);
    } catch (const std::exception &e) {
        res.check("no_exception", false, e.what());
    }
    fs::remove_all(opt.work_dir, ec);
    std::cout << res.json(opt) << std::endl;
    return 0;
}
