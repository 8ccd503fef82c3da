/**
 * @file
 * Outside-in span recorder of the benchmark. Spans are taken in the
 * benchmark's own code around each call it makes into a layer of the
 * system (core, sim, fl, ps, net, serve, store, nn, kernels, data);
 * nothing inside the library is instrumented.
 *
 * - Span is an RAII scope on std::chrono::steady_clock with a name, a
 *   start, an end, its own id and the id of the enclosing span on the
 *   same thread (0 at top level). Spans of one round or one query
 *   share a request id.
 * - Each thread appends to its own in-memory buffer; buffers are
 *   gathered and written out once the measured work has ended.
 * - When tracing is off a Span costs one relaxed atomic load.
 *
 * The module of a span is its name up to the first '.', so
 * "core.select" is charged to core.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

/** One closed span. */
struct Record
{
    const char *name = "";  ///< Static string: "<module>.<what>".
    uint64_t start_ns = 0;  ///< steady_clock, nanoseconds.
    uint64_t end_ns = 0;
    uint64_t id = 0;        ///< Unique per process, never 0.
    uint64_t parent = 0;    ///< Enclosing span on this thread; 0 = top.
    uint64_t req = 0;       ///< Request id (round or query index).
    uint32_t tid = 0;       ///< Small per-thread index.
    /**
     * Stamped elsewhere (see record()): overlaps the thread's own
     * spans, so it is left out of the thread's breakdown.
     */
    bool async = false;
};

/** Nanoseconds on steady_clock. */
uint64_t now_ns();

/** Turn recording on or off (process-wide). */
void set_enabled(bool on);
bool enabled();

/** Index of the calling thread (as stored in Record::tid). */
uint32_t thread_index();

/** RAII span on the calling thread. */
class Span
{
  public:
    explicit Span(const char *name, uint64_t req = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    uint64_t req_;
    uint64_t start_ = 0;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    bool on_ = false;
};

/**
 * Record a span whose start and end were stamped elsewhere, e.g. a
 * round from its submission to its result callback on another thread.
 * Marked async: it is kept out of breakdown(). No-op while disabled.
 */
void record(const char *name, uint64_t start_ns, uint64_t end_ns,
            uint64_t req = 0);

/**
 * Move every thread's buffered spans out (buffers are left empty).
 * Call when the threads that record have stopped recording.
 */
std::vector<Record> drain();

/** Self-time breakdown of one thread's spans over a measured phase. */
struct Breakdown
{
    double phase_ns = 0.0;    ///< Wall time of the phase.
    double covered_ns = 0.0;  ///< Covered by top-level spans.
    /** Self time (duration minus child coverage) per module. */
    std::map<std::string, double> self_ns;

    double coverage() const { return phase_ns > 0 ? covered_ns / phase_ns : 0; }
};

/**
 * Breakdown of thread @p tid's spans that lie in [begin, end]: the
 * union of top-level spans, and each span's self time charged to its
 * module. Overlapping children are merged before subtraction.
 */
Breakdown breakdown(const std::vector<Record> &recs, uint32_t tid,
                    uint64_t begin_ns, uint64_t end_ns);

/** Module of a span name: the text before the first '.'. */
std::string module_of(const char *name);

/**
 * Durations (ms) of every span named @p name, in record order,
 * optionally summed per request id first (so a round's two
 * "harness.prepare" spans count as one sample).
 */
std::vector<double> durations_ms(const std::vector<Record> &recs,
                                 const std::string &name,
                                 bool per_request = false);

/**
 * Write spans as a Chrome trace-event JSON array (loadable in
 * chrome://tracing or Perfetto). Returns false on IO failure.
 */
bool write_chrome_json(const std::string &path,
                       const std::vector<Record> &recs);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_H
