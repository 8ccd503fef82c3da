/**
 * @file
 * serve_lstm_openloop: a ServingGateway cold-started from a model
 * registry, driven by one open-loop generator thread at a ladder of
 * fixed absolute rates. The served artifact is trained into the
 * registry before anything is timed; no training runs while serving.
 */
#include <algorithm>
#include <numeric>

#include "bench.h"
#include "data/synthetic.h"
#include "fl/system.h"
#include "loadgen.h"
#include "metrics.h"
#include "probes.h"
#include "serve/serving_gateway.h"
#include "trace.h"

namespace perfbench {

using namespace autofl;

namespace {

constexpr const char *kModel = "lstm";

/** One rung of the load ladder. */
struct LadderRung
{
    double rate_qps;  ///< Fixed offered rate (queries/s).
    double queries;   ///< Queries per repetition of the rung.
};

/**
 * The ladder: fixed absolute rates, listed nominal first and peak
 * last, never derived from the program's capacity. Each repetition of
 * a rung below the peak sends 2400 queries, enough for p99 with 24
 * samples beyond it, and is short (0.1 s at the nominal rate), so a
 * run holds dozens of repetitions and a host stall spoils a few of
 * them instead of deciding the median. At lower nominal rates the
 * sub-millisecond p99 moved with the host's other load (spread 0.2
 * over ten seeds at 6000 q/s, against 0.07 here). The peak rate sits
 * far above what one generator thread and an nproc-worker gateway
 * sustain on a 4-core host (150k q/s measured), so its goodput is the
 * program's capacity, and its repetition is long enough (12000
 * queries) for the backlog to grow well past the latency limit.
 */
constexpr LadderRung kLadder[] = {{24000.0, 2400.0},
                                  {48000.0, 2400.0},
                                  {96000.0, 2400.0},
                                  {400000.0, 12000.0}};

/** p99 limit of max_qps_slo. */
constexpr double kLatencyLimitMs = 10.0;

/** Cold starts per run; setup_s is their median. */
constexpr int kColdStarts = 61;

/** Train the served LSTM into @p registry_dir (untimed preparation). */
TrainTestSplit
prepare_registry(const std::string &registry_dir, uint64_t seed)
{
    FlSystemConfig cfg;
    cfg.workload = Workload::LstmShakespeare;
    cfg.params = {16, 1, 8};
    cfg.hyper.lr = 0.8;
    cfg.hyper.momentum = 0.9;
    cfg.data.train_samples = 1600;
    cfg.data.test_samples = 320;
    cfg.data.noise = 0.0;
    cfg.data.seed = seed * 31 + 7;
    cfg.partition.num_devices = 40;
    cfg.partition.seed = seed * 17 + 3;
    cfg.seed = seed;
    cfg.threads = nproc();
    cfg.serve.workers = nproc();
    cfg.serve.registry_dir = registry_dir;
    cfg.serve.model_name = kModel;
    {
        FlSystem fl(cfg);
        std::vector<int> ids(8);
        for (int r = 0; r < 4; ++r) {
            std::iota(ids.begin(), ids.end(), r * 8);
            fl.run_round(ids, static_cast<uint64_t>(r));
        }
        fl.drain();
        fl.checkpoint_writer()->flush();
    }
    return make_dataset(cfg.workload, cfg.data);
}

ServeConfig
gateway_config(const std::string &registry_dir)
{
    ServeConfig base;
    base.workers = nproc();
    base.batch_size = 16;
    base.queue_depth = 16384;  // Holds a whole peak repetition: no shed.
    base.registry_dir = registry_dir;
    return base;
}

/**
 * Everything one ladder rung measured over the repetitions. Latency
 * percentiles are taken per repetition (each has enough samples for
 * p99 at every rate) and reported as their median, so one repetition
 * hit by a scheduling stall does not decide the run.
 */
struct RungSamples
{
    std::vector<double> p50_ms, p99_ms;  ///< One per repetition.
    std::vector<double> late_ms;
    std::vector<double> goodput;  ///< Ok replies per second, per repetition.
    size_t min_samples = ~size_t{0};
    size_t grew_reps = 0;  ///< Repetitions whose backlog grew.

    /** The backlog grew in at least half the repetitions. */
    bool
    backlog_grew() const
    {
        return 2 * grew_reps >= p99_ms.size();
    }
};

} // namespace

void
run_serve_lstm_openloop(const Options &opt, Result &out)
{
    const std::string registry_dir = opt.work_dir + "/registry";
    const TrainTestSplit data =
        prepare_registry(registry_dir, episode_seed(opt.seed, 0));
    const Dataset &test = data.test;
    std::vector<Tensor> rows;
    for (int i = 0; i < static_cast<int>(test.size()); ++i)
        rows.push_back(test.batch_x({i}));

    // Cold start: gateway construction to the first Ok reply.
    const ServeConfig base = gateway_config(registry_dir);
    std::unique_ptr<ServingGateway> gw;
    std::vector<double> setup_s;
    for (int c = 0; c < kColdStarts; ++c) {
        trace::set_enabled(opt.trace);
        gw.reset();
        const uint64_t t0 = trace::now_ns();
        gw = std::make_unique<ServingGateway>(base);
        std::vector<std::pair<std::string, store::RegistryStatus>> failed;
        store::RegistryStatus st;
        {
            trace::Span s("store.registry_load");
            st = gw->load_registry(&failed);
        }
        {
            trace::Span s("serve.start");
            gw->start();
        }
        InferenceReply first;
        {
            trace::Span s("serve.first_query");
            first = gw->query(kModel, rows.front(), false);
        }
        setup_s.push_back(seconds_between(t0, trace::now_ns()));
        trace::set_enabled(false);
        if (st != store::RegistryStatus::Ok || !failed.empty() ||
            !first.ok()) {
            out.check("cold_start", false,
                      std::string("registry load ") +
                          store::registry_status_name(st) + ", first reply " +
                          reply_status_name(first.status));
            return;
        }
    }
    if (!opt.trace)
        out.add("setup_s", "s", median(setup_s));

    // The ladder, repeated until the run's time is up (at least once);
    // an untimed pass first lets pools and allocations warm up.
    // A traced run alternates traced and untraced repetitions.
    constexpr size_t kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
    std::vector<RungSamples> rungs[2];
    rungs[0].resize(kRungs);
    rungs[1].resize(kRungs);
    std::vector<KeptReply> kept;
    std::vector<trace::Record> recs;
    const uint32_t tid = trace::thread_index();
    const uint64_t start = trace::now_ns();
    uint64_t attempted = 0, ok = 0;
    for (int rep = -1;; ++rep) {
        if (rep >= (opt.trace ? 2 : 1) &&
            seconds_between(start, trace::now_ns()) >= opt.seconds)
            break;
        const bool warm = rep < 0;
        const bool traced = opt.trace && rep % 2 == 1;
        // From the peak down: a rung that follows the peak's backlog
        // reads a higher, noisier p99 (median 0.83 ms, spread 0.12
        // over five seeds, against 0.73 ms and 0.04 when the nominal
        // rung follows the 48000 q/s one).
        for (size_t r = kRungs; r-- > 0;) {
            LoadSpec ls;
            ls.rate_qps = kLadder[r].rate_qps;
            ls.max_seconds = kLadder[r].queries / kLadder[r].rate_qps;
            ls.seed = episode_seed(opt.seed, 100 + (rep + 1) * kRungs + r);
            ls.rows = static_cast<int>(rows.size());
            ls.keep_every = 97;
            ls.submit = [&](int row) {
                return gw->submit(kModel, rows[static_cast<size_t>(row)], true);
            };
            trace::set_enabled(traced);
            const uint64_t t0 = trace::now_ns();
            LoadResult lr = run_open_loop(ls);
            const uint64_t t1 = trace::now_ns();
            trace::set_enabled(false);
            if (traced) {
                std::vector<trace::Record> rr = trace::drain();
                report_breakdown(trace::breakdown(rr, tid, t0, t1),
                                 {"serve", "wait"}, out);
                recs.insert(recs.end(), rr.begin(), rr.end());
            }
            attempted += lr.attempted;
            ok += lr.ok;
            for (KeptReply &k : lr.kept)
                kept.push_back(std::move(k));
            if (warm)
                continue;
            RungSamples &s = rungs[traced][r];
            s.p50_ms.push_back(percentile(lr.lat_ms, 50));
            s.p99_ms.push_back(percentile(lr.lat_ms, 99));
            s.min_samples = std::min(s.min_samples, lr.lat_ms.size());
            s.late_ms.insert(s.late_ms.end(), lr.late_ms.begin(),
                             lr.late_ms.end());
            s.goodput.push_back(static_cast<double>(lr.ok) / lr.wall_s);
            s.grew_reps += backlog_grew(lr.lat_ms, kLatencyLimitMs) ? 1 : 0;
        }
    }

    // Output checks: every query answered, and served logits equal to
    // a direct engine call on the snapshot that answered them.
    out.count(attempted, attempted - ok);
    out.check("no_failed_queries", attempted > 0 && ok == attempted,
              std::to_string(attempted - ok) + " of " +
                  std::to_string(attempted) + " queries missed");
    ModelService *svc = gw->service(kModel);
    const SnapshotHandle snap = svc->acquire();
    int mismatched = 0;
    std::string why;
    for (const KeptReply &k : kept) {
        if (!k.reply.ok() || k.reply.epoch != snap.epoch() ||
            !logits_match(k.reply.logits,
                          svc->engine().forward(
                              snap, rows[static_cast<size_t>(k.row)]),
                          &why))
            ++mismatched;
        else if (k.reply.classes.size() != 1)
            ++mismatched;
    }
    out.check("served_logits_match_engine", !kept.empty() && mismatched == 0,
              std::to_string(mismatched) + " of " +
                  std::to_string(kept.size()) + " kept replies differ " + why);
    const ServeStats st = gw->stats(kModel);

    if (!opt.trace) {
        std::vector<Rung> ladder;
        for (size_t r = 0; r < kRungs; ++r) {
            const RungSamples &s = rungs[0][r];
            ladder.push_back(Rung{kLadder[r].rate_qps, median(s.p99_ms),
                                  s.backlog_grew()});
        }
        const RungSamples &nominal = rungs[0].front();
        const RungSamples &peak = rungs[0].back();
        out.check("p99_supported",
                  supported_percentile(nominal.min_samples) >= 99.0,
                  std::to_string(nominal.min_samples) +
                      " samples in the smallest nominal repetition");
        for (double v : nominal.p50_ms)
            out.add("query_p50_ms", "ms", v);
        for (double v : nominal.p99_ms)
            out.add("query_p99_ms", "ms", v);
        for (double v : peak.p99_ms)
            out.add("query_p99_ms_peak", "ms", v);
        // Goodput at the peak, far above capacity, is the capacity.
        for (double v : peak.goodput)
            out.add("throughput_per_s", "1/s", v);
        // The goodput achieved at the highest rung meeting the limit:
        // it moves in ladder steps as rungs pass or fail, and within a
        // step with the repetitions' goodput.
        const int best = max_rung_meeting_slo(ladder, kLatencyLimitMs);
        const RungSamples *b = best < 0 ? nullptr : &rungs[0][best];
        if (b == nullptr)
            out.add("max_qps_slo", "1/s", 0.0);
        else
            for (double v : b->goodput)
                out.add("max_qps_slo", "1/s", v);
        out.add("peak_rss_mb", "MiB", peak_rss_mib());
        return;
    }

    // Traced run: per-layer metrics and direct probes.
    const RungSamples &plain = rungs[0].front(), &traced = rungs[1].front();
    out.add("trace.overhead_p99_frac", "frac",
            median(traced.p99_ms) / median(plain.p99_ms) - 1.0);
    const double sub = static_cast<double>(std::max<uint64_t>(1, st.submitted));
    out.add("serve.batch_rows_mean", "rows", st.mean_batch_rows());
    out.add("serve.shed_frac", "frac", static_cast<double>(st.shed) / sub);
    out.add("serve.deadline_shed_frac", "frac",
            static_cast<double>(st.deadline_shed) / sub);
    out.add("serve.snapshot_lag_epochs", "epochs", 0.0);
    // The peak rung overloads the generator by design; its lateness is
    // the backlog, not the generator's jitter.
    std::vector<double> late;
    for (size_t r = 0; r + 1 < kRungs; ++r)
        late.insert(late.end(), rungs[1][r].late_ms.begin(),
                    rungs[1][r].late_ms.end());
    out.add("serve.generator_late_ms_p99", "ms",
            percentile(late, tail_percentile(late)));
    for (double ms : trace::durations_ms(recs, "store.registry_load"))
        out.add("store.registry_load_ms", "ms", ms);
    if (!opt.trace_out.empty())
        trace::write_chrome_json(opt.trace_out, recs);
    gw->stop_serving();
    gw.reset();
    // The same probes as the training workloads, on the served model.
    ExperimentConfig pcfg = base_config(Workload::LstmShakespeare, 0);
    pcfg.seed = episode_seed(opt.seed, 0);
    run_probes(pcfg, opt.work_dir, out);
}

} // namespace perfbench
