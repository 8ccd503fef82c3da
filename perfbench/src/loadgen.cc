#include "loadgen.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "metrics.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * Sleep until shortly before @p due, then yield until it passes. The
 * spin margin is wide because waking a sleeping thread on a busy host
 * can take milliseconds, which would show up as generator lateness.
 */
void
wait_until(Clock::time_point due)
{
    constexpr auto kSpin = std::chrono::milliseconds(2);
    const auto now = Clock::now();
    if (due - now > kSpin)
        std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due)
        std::this_thread::yield();
}

} // namespace

LoadResult
run_open_loop(const LoadSpec &spec)
{
    LoadResult out;
    autofl::Rng rng(spec.seed);

    struct Pending
    {
        Clock::time_point due;
        int row = 0;
        uint64_t epoch_at_send = 0;
        std::future<autofl::InferenceReply> fut;
    };
    std::vector<Pending> pending;
    pending.reserve(static_cast<size_t>(spec.rate_qps * spec.max_seconds) +
                    16);

    const auto start = Clock::now();
    const auto limit = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       spec.max_seconds));
    auto due = start;
    uint64_t i = 0;
    for (;;) {
        // Exponential inter-arrival gap: Poisson arrivals at rate_qps.
        const double gap_s = -std::log(1.0 - rng.uniform()) / spec.rate_qps;
        due += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(gap_s));
        if (due > limit ||
            (spec.stop && spec.stop->load(std::memory_order_acquire)))
            break;
        {
            trace::Span s("wait.due", i);
            wait_until(due);
        }
        Pending p;
        p.due = due;
        p.row = static_cast<int>(rng.randint(0, spec.rows - 1));
        if (spec.latest_epoch)
            p.epoch_at_send = spec.latest_epoch();
        out.late_ms.push_back(ms_between(due, Clock::now()));
        {
            trace::Span s("serve.submit", i);
            p.fut = spec.submit(p.row);
        }
        pending.push_back(std::move(p));
        ++i;
    }
    trace::Span collect("wait.replies");
    Clock::time_point last_done = start;
    out.lat_ms.reserve(pending.size());
    for (size_t q = 0; q < pending.size(); ++q) {
        Pending &p = pending[q];
        autofl::InferenceReply r = p.fut.get();
        ++out.attempted;
        if (r.ok())
            ++out.ok;
        if (r.completed_at > last_done)
            last_done = r.completed_at;
        out.lat_ms.push_back(r.ok() ? ms_between(p.due, r.completed_at)
                                    : kMissed);
        if (spec.latest_epoch && r.ok())
            out.lag_epochs.push_back(
                p.epoch_at_send > r.epoch ?
                    static_cast<double>(p.epoch_at_send - r.epoch) : 0.0);
        if (spec.keep_every > 0 && q % static_cast<size_t>(spec.keep_every) == 0)
            out.kept.push_back(KeptReply{p.row, std::move(r)});
    }
    if (!pending.empty())
        out.wall_s = std::chrono::duration<double>(last_done -
                                                   pending.front().due)
                         .count();
    return out;
}

} // namespace perfbench
