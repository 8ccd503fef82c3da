/**
 * @file
 * Open-loop query generator: one seeded thread issues queries at
 * Poisson arrival times of a fixed absolute rate, whatever the system
 * does with them. Each query is timed from the moment it was due, not
 * from when the generator got round to sending it, so a stall is
 * charged to every query it delays; how late the generator ran is
 * reported on its own. Every reply other than Ok (Shed,
 * DeadlineExceeded, NoModel, ...) is a miss counted against attempted.
 */
#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "serve/request_queue.h"

namespace perfbench {

/** A reply kept for the output checks. */
struct KeptReply
{
    int row = 0;  ///< Row index the query was built from.
    autofl::InferenceReply reply;
};

/** Outcome of one open-loop stream. */
struct LoadResult
{
    double wall_s = 0.0;         ///< First due time to last completion.
    uint64_t attempted = 0;
    uint64_t ok = 0;             ///< Every other status is a miss.
    std::vector<double> lat_ms;  ///< Arrival order; misses are kMissed.
    std::vector<double> late_ms; ///< How late each send was.
    std::vector<double> lag_epochs;  ///< Freshness (when sampled).
    std::vector<KeptReply> kept;

    uint64_t missed() const { return attempted - ok; }
};

/** How to build, send and sample queries. */
struct LoadSpec
{
    double rate_qps = 100.0;
    double max_seconds = 1.0;  ///< Stop issuing after this long...
    const std::atomic<bool> *stop = nullptr;  ///< ...or once set.
    uint64_t seed = 1;
    int rows = 1;              ///< Row indices drawn from [0, rows).
    int keep_every = 0;        ///< Keep every Nth reply (0 = none).
    /** Send query @p i built from row @p row. */
    std::function<std::future<autofl::InferenceReply>(int row)> submit;
    /** Newest model epoch now (sampled per query when set). */
    std::function<uint64_t()> latest_epoch;
};

/** Run one stream on the calling thread; blocks until all replied. */
LoadResult run_open_loop(const LoadSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H
