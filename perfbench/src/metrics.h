/**
 * @file
 * Pure metric helpers of the benchmark, kept free of library includes
 * so the benchmark's own tests can check them in isolation.
 */
#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/** Latency value standing for a query that failed or was refused. */
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/** Nearest-rank percentile @p pct (0-100] of @p v (NaN when empty). */
inline double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
    const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

/**
 * The highest percentile of {50, 90, 95, 99, 99.9} that has at least
 * ten samples beyond it among @p n; 0 when even the median lacks them.
 */
inline double
supported_percentile(size_t n)
{
    static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 50.0};
    for (double p : kLadder)
        if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
            return p;
    return 0.0;
}

/**
 * The percentile a per-layer "_p99" metric reports for @p v: p99 when
 * the samples support it, else the highest they support, but at least
 * the median.
 */
inline double
tail_percentile(const std::vector<double> &v)
{
    return std::max(50.0, supported_percentile(v.size()));
}

/**
 * Percentile @p pct of each run of @p window consecutive samples of
 * @p v, a trailing partial window left out. A median over the windows
 * keeps one stall, which spoils the windows it falls in, from deciding
 * a tail percentile the way it would over the pooled samples.
 */
inline std::vector<double>
window_percentiles(const std::vector<double> &v, size_t window, double pct)
{
    std::vector<double> out;
    for (size_t i = 0; window > 0 && i + window <= v.size(); i += window)
        out.push_back(percentile(
            std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(i),
                                v.begin() +
                                    static_cast<std::ptrdiff_t>(i + window)),
            pct));
    return out;
}

/** One fixed offered rate of an open-loop ladder, as measured. */
struct Rung
{
    double rate_qps = 0.0;     ///< Offered (ladder) rate.
    double p99_ms = 0.0;       ///< Misses count as kMissed.
    bool backlog_grew = false; ///< Latency still rising at the end.
};

/**
 * Index of the highest rung such that it and every lower rate meet
 * @p limit_ms at p99 with no growing backlog; -1 when the lowest rate
 * already fails. Rungs may come in any order.
 */
inline int
max_rung_meeting_slo(const std::vector<Rung> &rungs, double limit_ms)
{
    std::vector<size_t> order(rungs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return rungs[a].rate_qps < rungs[b].rate_qps;
    });
    int best = -1;
    for (size_t i : order) {
        const Rung &r = rungs[i];
        if (!(r.p99_ms <= limit_ms) || r.backlog_grew)
            break;
        best = static_cast<int>(i);
    }
    return best;
}

/**
 * Whether the open-loop backlog grew over a rung: the median latency
 * of the last quarter of arrivals exceeds that of the first quarter by
 * more than @p limit_ms. @p lat_ms is in arrival order.
 */
inline bool
backlog_grew(const std::vector<double> &lat_ms, double limit_ms)
{
    const size_t q = lat_ms.size() / 4;
    if (q == 0)
        return false;
    std::vector<double> head(lat_ms.begin(), lat_ms.begin() + q);
    std::vector<double> tail(lat_ms.end() - q, lat_ms.end());
    return percentile(tail, 50) > percentile(head, 50) + limit_ms;
}

/**
 * Simulated time to reach @p target accuracy, taken post hoc from the
 * per-round records: the summed round times up to and including the
 * first round whose accuracy reaches the target; -1 when none does.
 */
inline double
time_to_target(const std::vector<double> &accuracy,
               const std::vector<double> &round_s, double target)
{
    double t = 0.0;
    for (size_t i = 0; i < accuracy.size() && i < round_s.size(); ++i) {
        t += round_s[i];
        if (accuracy[i] >= target)
            return t;
    }
    return -1.0;
}

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
