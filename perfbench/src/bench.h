/**
 * @file
 * Shared plumbing of the benchmark driver: run options, the per-run
 * result (raw metric samples, output checks, operation counts) and the
 * workload entry points.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;   ///< Scratch space (checkpoints, registry).
    std::string trace_out;  ///< Chrome trace file ("" = none).
};

/** Raw samples of one metric. */
struct Metric
{
    std::string unit;
    std::vector<double> values;
};

/** Everything one run reports. */
class Result
{
  public:
    /** Append one sample of metric @p name. */
    void add(const std::string &name, const std::string &unit, double v);

    /** Record an output check; a failed check makes the run incorrect. */
    void check(const std::string &name, bool ok, const std::string &detail);

    /** Count operations (rounds, queries) and those that failed. */
    void count(uint64_t attempted, uint64_t failed);

    /** Attach a descriptive note to the run record (not a metric). */
    void note(const std::string &key, const std::string &value);

    bool correct() const;

    /** One-line JSON of the whole result (context fields included). */
    std::string json(const Options &opt) const;

  private:
    std::map<std::string, Metric> metrics_;
    struct Check
    {
        std::string name;
        bool ok = false;
        std::string detail;
    };
    std::vector<Check> checks_;
    std::map<std::string, std::string> notes_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Hardware threads available to the run (every pool is sized to it). */
int nproc();

/**
 * Seed of episode @p i of a run seeded @p seed: a fixed sequence per
 * run seed, so the same seed always yields the same inputs.
 */
uint64_t episode_seed(uint64_t seed, uint64_t i);

/** Peak resident set size of this process so far, in MiB. */
double peak_rss_mib();

/** Seconds between two trace::now_ns() stamps. */
inline double
seconds_between(uint64_t a_ns, uint64_t b_ns)
{
    return static_cast<double>(b_ns - a_ns) / 1e9;
}

/**
 * Add the attribution of one traced measured phase: trace.coverage,
 * <module>.self_frac for each of @p modules, and trace.residual_frac
 * (the phase time no listed module's spans account for).
 */
void report_breakdown(const trace::Breakdown &b,
                      const std::vector<std::string> &modules, Result &out);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

// Workload entry points.
void run_train_mobilenet_pipe(const Options &opt, Result &res);
void run_train_cnn_loopback(const Options &opt, Result &res);
void run_paper_cnn_sync(const Options &opt, Result &res);
void run_serve_lstm_openloop(const Options &opt, Result &res);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
