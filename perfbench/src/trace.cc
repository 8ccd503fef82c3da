#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

/**
 * One thread's span buffer; the mutex is only contended by drain(). A
 * deque grows in chunks, so recording never stalls on a reallocation.
 */
struct Buffer
{
    std::mutex mu;
    std::deque<Record> recs;
    uint32_t tid = 0;
};

struct Registry
{
    std::mutex mu;
    std::vector<std::shared_ptr<Buffer>> buffers;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

/** The calling thread's buffer, registered on first use. */
Buffer &
local_buffer()
{
    thread_local std::shared_ptr<Buffer> buf = [] {
        auto b = std::make_shared<Buffer>();
        Registry &r = registry();
        std::lock_guard<std::mutex> lk(r.mu);
        b->tid = static_cast<uint32_t>(r.buffers.size());
        r.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

/** Innermost open span on this thread (parent of the next one). */
thread_local uint64_t t_current = 0;

void
push(Buffer &b, const Record &r)
{
    std::lock_guard<std::mutex> lk(b.mu);
    b.recs.push_back(r);
}

} // namespace

uint64_t
now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
set_enabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

uint32_t
thread_index()
{
    return local_buffer().tid;
}

Span::Span(const char *name, uint64_t req) : name_(name), req_(req)
{
    on_ = enabled();
    if (!on_)
        return;
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = t_current;
    t_current = id_;
    start_ = now_ns();
}

Span::~Span()
{
    if (!on_)
        return;
    const uint64_t end = now_ns();
    t_current = parent_;
    Buffer &b = local_buffer();
    push(b, Record{name_, start_, end, id_, parent_, req_, b.tid, false});
}

void
record(const char *name, uint64_t start_ns, uint64_t end_ns, uint64_t req)
{
    if (!enabled())
        return;
    Buffer &b = local_buffer();
    push(b, Record{name, start_ns, end_ns,
                   g_next_id.fetch_add(1, std::memory_order_relaxed), 0,
                   req, b.tid, true});
}

std::vector<Record>
drain()
{
    std::vector<Record> out;
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    for (auto &b : r.buffers) {
        std::lock_guard<std::mutex> blk(b->mu);
        out.insert(out.end(), b->recs.begin(), b->recs.end());
        b->recs.clear();
    }
    return out;
}

std::string
module_of(const char *name)
{
    const std::string s(name);
    const size_t dot = s.find('.');
    return dot == std::string::npos ? s : s.substr(0, dot);
}

namespace {

/** Total length of the union of [start, end) intervals. */
double
union_ns(std::vector<std::pair<uint64_t, uint64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    uint64_t cur_s = 0, cur_e = 0;
    bool open = false;
    for (const auto &[s, e] : iv) {
        if (!open || s > cur_e) {
            if (open)
                total += static_cast<double>(cur_e - cur_s);
            cur_s = s;
            cur_e = e;
            open = true;
        } else {
            cur_e = std::max(cur_e, e);
        }
    }
    if (open)
        total += static_cast<double>(cur_e - cur_s);
    return total;
}

} // namespace

Breakdown
breakdown(const std::vector<Record> &recs, uint32_t tid, uint64_t begin_ns,
          uint64_t end_ns)
{
    Breakdown b;
    b.phase_ns = end_ns > begin_ns ? static_cast<double>(end_ns - begin_ns)
                                   : 0.0;
    std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
        children;
    std::vector<const Record *> in_phase;
    std::vector<std::pair<uint64_t, uint64_t>> top;
    for (const Record &r : recs) {
        if (r.tid != tid || r.async || r.start_ns < begin_ns ||
            r.end_ns > end_ns)
            continue;
        in_phase.push_back(&r);
        if (r.parent == 0)
            top.emplace_back(r.start_ns, r.end_ns);
        else
            children[r.parent].emplace_back(r.start_ns, r.end_ns);
    }
    b.covered_ns = union_ns(top);
    for (const Record *r : in_phase) {
        double self = static_cast<double>(r->end_ns - r->start_ns);
        auto it = children.find(r->id);
        if (it != children.end())
            self -= union_ns(it->second);
        b.self_ns[module_of(r->name)] += std::max(0.0, self);
    }
    return b;
}

std::vector<double>
durations_ms(const std::vector<Record> &recs, const std::string &name,
             bool per_request)
{
    std::vector<double> out;
    std::map<uint64_t, double> by_req;
    for (const Record &r : recs) {
        if (name != r.name)
            continue;
        const double ms = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
        if (per_request)
            by_req[r.req] += ms;
        else
            out.push_back(ms);
    }
    for (const auto &[req, ms] : by_req)
        out.push_back(ms);
    return out;
}

bool
write_chrome_json(const std::string &path, const std::vector<Record> &recs)
{
    std::ofstream f(path);
    if (!f)
        return false;
    uint64_t t0 = ~0ULL;
    for (const Record &r : recs)
        t0 = std::min(t0, r.start_ns);
    f << "[";
    bool first = true;
    for (const Record &r : recs) {
        f << (first ? "\n" : ",\n") << "{\"name\":\"" << r.name
          << "\",\"cat\":\"" << module_of(r.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
          << ",\"ts\":" << static_cast<double>(r.start_ns - t0) / 1e3
          << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
          << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
          << ",\"req\":" << r.req << "}}";
        first = false;
    }
    f << "\n]\n";
    return static_cast<bool>(f);
}

} // namespace perfbench::trace
