/**
 * @file
 * The three training workloads. Each runs episodes: build the job
 * (FlSystem, fleet, policy, AutoFL warm-up), then drive a fixed number
 * of rounds through the benchmark's own round loop, which makes the
 * same calls in the same order as harness/experiment.cc's
 * run_experiment (paper_cnn_sync checks that the records agree), with
 * a span around every call into a layer.
 *
 * Episodes repeat until --seconds have passed. Episode i trains with
 * episode_seed(seed, i % Q), Q = TrainSpec::quality_episodes: the
 * quality metrics (accuracy, simulated PPW and time) come from the
 * first Q episodes, a set fixed by the seed alone, so a faster build
 * does not change them by running more episodes.
 */
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "bench.h"
#include "fl/fl_cluster.h"
#include "fl/system.h"
#include "harness/experiment.h"
#include "loadgen.h"
#include "metrics.h"
#include "net/wire.h"
#include "probes.h"
#include "serve/model_service.h"
#include "sim/scale.h"
#include "store/mapped_snapshot.h"
#include "trace.h"
#include "util/stats.h"

namespace perfbench {

using namespace autofl;

namespace {

/** What one workload trains and what runs beside it. */
struct TrainSpec
{
    ExperimentConfig cfg;      ///< Seed is set per episode.
    double query_qps = 0.0;    ///< Query stream beside training (0 = none).
    bool checkpoint = false;   ///< Checkpoint every round into work_dir.
    bool random_baseline = false;  ///< Also run FedAvg-Random per episode.
    int quality_episodes = 3;  ///< Episodes feeding the quality metrics.
};

// Dataset sizes and training hyperparameters per workload, as
// run_experiment sets them (paper_cnn_sync's record check fails if they
// drift apart).
void
data_sizes(Workload w, int &train, int &test)
{
    switch (w) {
      case Workload::CnnMnist:
        train = 4000;
        test = 600;
        break;
      case Workload::LstmShakespeare:
        train = 4000;
        test = 320;
        break;
      case Workload::MobileNetImageNet:
        train = 2400;
        test = 300;
        break;
    }
}

void
training_setup(Workload w, TrainHyper &hyper, double &noise)
{
    switch (w) {
      case Workload::CnnMnist:
        hyper.lr = 0.03;
        noise = 0.95;
        break;
      case Workload::LstmShakespeare:
        hyper.lr = 0.8;
        hyper.momentum = 0.9;
        noise = 0.0;
        break;
      case Workload::MobileNetImageNet:
        hyper.lr = 0.06;
        hyper.momentum = 0.5;
        noise = 0.55;
        break;
    }
}

} // namespace

FlSystemConfig
system_config(const ExperimentConfig &cfg)
{
    FlSystemConfig f;
    f.workload = cfg.workload;
    f.params = global_params_for(cfg.setting);
    f.algorithm = cfg.algorithm;
    data_sizes(cfg.workload, f.data.train_samples, f.data.test_samples);
    if (cfg.train_samples > 0)
        f.data.train_samples = cfg.train_samples;
    if (cfg.test_samples > 0)
        f.data.test_samples = cfg.test_samples;
    training_setup(cfg.workload, f.hyper, f.data.noise);
    f.data.seed = cfg.seed * 31 + 7;
    f.partition.num_devices = cfg.fleet_mix.total();
    f.partition.distribution = cfg.distribution;
    f.partition.seed = cfg.seed * 17 + 3;
    f.seed = cfg.seed;
    f.threads = cfg.threads;
    f.ps.mode = cfg.sync_mode;
    f.ps.staleness_bound = cfg.staleness_bound;
    f.ps.shards = cfg.ps_shards;
    f.ps.pipeline_depth = cfg.pipeline_depth;
    f.ps.eval_workers = cfg.eval_workers;
    f.ps.net = cfg.net;
    f.ps.compression = cfg.compression;
    f.ps.snapshot_dir = cfg.snapshot_dir;
    f.ps.snapshot_every_epochs = cfg.snapshot_every_epochs;
    f.ps.snapshot_keep_last = cfg.snapshot_keep_last;
    f.serve = cfg.serve;
    return f;
}

namespace {

std::unique_ptr<SelectionPolicy>
make_policy(const ExperimentConfig &cfg, const Fleet &fleet)
{
    if (cfg.policy == PolicyKind::AutoFl) {
        AutoFlConfig acfg = cfg.autofl;
        acfg.seed ^= cfg.seed;
        return std::make_unique<AutoFlPolicy>(fleet, acfg);
    }
    return make_random_policy(fleet, cfg.seed ^ 0xfeedULL);
}

void
count_selection(const Fleet &fleet, const std::vector<ParticipantPlan> &plans,
                RoundRecord &rec)
{
    for (const auto &p : plans) {
        switch (fleet.device(p.device_id).tier()) {
          case Tier::High:
            ++rec.selected_high;
            break;
          case Tier::Mid:
            ++rec.selected_mid;
            break;
          case Tier::Low:
            ++rec.selected_low;
            break;
        }
        Action a;
        a.target = p.target;
        a.dvfs = p.dvfs;
        ++rec.action_counts[static_cast<size_t>(encode_action(a))];
    }
}

std::vector<LocalObservation>
observe_locals(Fleet &fleet, FlSystem &fl, int total_classes)
{
    std::vector<LocalObservation> locals(static_cast<size_t>(fleet.size()));
    for (int d = 0; d < fleet.size(); ++d) {
        auto &l = locals[static_cast<size_t>(d)];
        l.state = fleet.device(d).state();
        l.data_classes = fl.classes_on_device(d);
        l.total_classes = total_classes;
    }
    return locals;
}

/** Everything one episode measured. */
struct Episode
{
    ExperimentResult res;  ///< Records and totals, as run_experiment.
    double warmup_s = 0.0;
    double loop_s = 0.0;
    uint64_t phase_begin = 0, phase_end = 0;
    double inflight_sum = 0.0;
    uint64_t pushed = 0, evicted = 0;
    double staleness_sum = 0.0;
    size_t qtable_bytes = 0;

    bool has_load = false;
    LoadResult load;
    ServeStats serve_stats;

    bool has_ckpt = false;
    store::CheckpointStats ckpt;
    int ckpt_on_disk = 0, ckpt_open_ok = 0;

    bool has_net = false;
    uint64_t net_bytes = 0, push_bytes = 0, pull_bytes = 0;
    uint64_t push_delta_bytes = 0, push_frame_bytes = 0;

    std::vector<std::string> failures;  ///< Failed in-episode checks.
};

/** A built job: what run_experiment sets up before its first round. */
struct Job
{
    std::unique_ptr<FlSystem> fl;
    std::unique_ptr<Fleet> fleet;
    std::unique_ptr<SelectionPolicy> policy;
    AutoFlPolicy *afl = nullptr;  ///< policy, when it is AutoFL.
    GlobalObservation gobs;
    RoundSimConfig round_sim;
    bool ps_mode = false;
    double warmup_s = 0.0;
};

/**
 * Build the job @p cfg describes: FlSystem, fleet, policy and the
 * AutoFL warm-up (scheduling + simulation only, as run_experiment).
 */
Job
build_job(const ExperimentConfig &cfg)
{
    Job job;
    const FlGlobalParams params = global_params_for(cfg.setting);
    {
        trace::Span s("fl.build");
        job.fl = std::make_unique<FlSystem>(system_config(cfg));
    }
    FlSystem &fl = *job.fl;
    job.ps_mode = fl.ps() != nullptr || fl.cluster() != nullptr;
    job.round_sim = cfg.round_sim;
    if (job.ps_mode)
        job.round_sim.deadline_multiple = 0.0;
    {
        trace::Span s("sim.fleet");
        job.fleet = std::make_unique<Fleet>(cfg.fleet_mix, cfg.variance,
                                            cfg.seed * 13 + 5);
    }
    Fleet &fleet = *job.fleet;
    {
        trace::Span s("core.build");
        job.policy = make_policy(cfg, fleet);
    }
    SelectionPolicy &policy = *job.policy;
    GlobalObservation &gobs = job.gobs;
    gobs.profile = fl.profile();
    gobs.params = params;
    const int total_classes = model_num_classes(cfg.workload);

    job.afl = dynamic_cast<AutoFlPolicy *>(job.policy.get());
    if (job.afl != nullptr && cfg.autofl_warmup_rounds > 0) {
        trace::Span s("core.warmup");
        const uint64_t t0 = trace::now_ns();
        job.afl->scheduler().set_epsilon(0.3);
        double synth_acc = 20.0;
        const int quota = std::max(1, static_cast<int>(fl.shard(0).size()));
        for (int w = 0; w < cfg.autofl_warmup_rounds; ++w) {
            fleet.begin_round();
            auto locals = observe_locals(fleet, fl, total_classes);
            auto plans = policy.select(gobs, locals, params.k);
            std::vector<ComputeProfile> profiles(
                plans.size(),
                ComputeProfile{static_cast<double>(params.epochs) * quota *
                                   gobs.profile.flops_per_sample *
                                   kTrainFlopFactor,
                               gobs.profile.mem_bound_frac,
                               gobs.profile.model_bytes, params.batch_size});
            RoundExec exec =
                simulate_round(fleet, plans, profiles, job.round_sim);
            double coverage = 0.0;
            for (const auto &p : plans) {
                coverage += static_cast<double>(
                                fl.classes_on_device(p.device_id)) /
                    total_classes;
            }
            coverage /= std::max<size_t>(1, plans.size());
            synth_acc += (60.0 / std::max(1, cfg.autofl_warmup_rounds)) *
                (0.3 + 1.2 * coverage);
            policy.observe_outcome(exec, synth_acc);
        }
        job.afl->scheduler().set_epsilon(0.05);
        job.warmup_s = seconds_between(t0, trace::now_ns());
    }
    return job;
}

Episode
run_episode(const TrainSpec &spec, const ExperimentConfig &cfg,
            const Options &opt, uint64_t stream_seed)
{
    Episode ep;
    ExperimentResult &res = ep.res;
    Job job = build_job(cfg);
    ep.warmup_s = job.warmup_s;

    const FlGlobalParams params = global_params_for(cfg.setting);
    std::unique_ptr<FlSystem> &fl = job.fl;
    Fleet *fleet = job.fleet.get();
    SelectionPolicy *policy = job.policy.get();
    AutoFlPolicy *afl = job.afl;
    GlobalObservation &gobs = job.gobs;
    const RoundSimConfig &round_sim = job.round_sim;
    const bool ps_mode = job.ps_mode;
    const double mem_frac = gobs.profile.mem_bound_frac;
    const int total_classes = model_num_classes(cfg.workload);
    res.policy_name = policy->name();

    // Query stream beside training, from one generator thread. The
    // guard stops and joins it on every path out, before fl goes.
    std::atomic<bool> stop_stream{false};
    std::thread stream;
    struct StreamGuard
    {
        std::atomic<bool> &stop;
        std::thread &thread;
        ~StreamGuard()
        {
            stop.store(true, std::memory_order_release);
            if (thread.joinable())
                thread.join();
        }
    } stream_guard{stop_stream, stream};
    if (spec.query_qps > 0.0) {
        ep.has_load = true;
        // Barrier runtimes publish at their first evaluation; serve the
        // initial model until then, so no query meets an empty plane.
        if (!fl->serve().store_backed())
            fl->serve().publish(fl->server().global_weights());
        stream = std::thread([&, stream_seed] {
            ModelService &svc = fl->serve();
            const Dataset &test = fl->test_set();
            LoadSpec ls;
            ls.rate_qps = spec.query_qps;
            ls.max_seconds = 3600.0;
            ls.stop = &stop_stream;
            ls.seed = stream_seed;
            ls.rows = static_cast<int>(test.size());
            ls.submit = [&](int row) {
                return svc.submit(test.batch_x({row}), true);
            };
            if (opt.trace)
                ls.latest_epoch = [&] { return svc.latest_epoch(); };
            ep.load = run_open_loop(ls);
        });
    }

    // The round loop (run_experiment's streaming loop, outside in).
    const int depth_limit =
        fl->pipelined() ? std::max(1, cfg.pipeline_depth) : 1;
    struct InFlight
    {
        int round = 0;
        RoundExec exec;
        std::vector<ParticipantPlan> plans;
        uint64_t submitted_ns = 0;
    };
    std::deque<InFlight> inflight;
    std::mutex res_mu;
    std::condition_variable res_cv;
    std::deque<std::pair<PsRoundResult, uint64_t>> arrived;
    auto on_result = [&](const PsRoundResult &r) {
        const uint64_t t = trace::now_ns();
        std::lock_guard<std::mutex> lk(res_mu);
        arrived.emplace_back(r, t);
        res_cv.notify_one();
    };
    SlidingWindow stale_window(
        static_cast<size_t>(std::max(1, cfg.staleness_window)));

    auto process_one = [&]() {
        PsRoundResult r;
        uint64_t done_ns = 0;
        {
            trace::Span s("wait.result");
            std::unique_lock<std::mutex> lk(res_mu);
            res_cv.wait(lk, [&] { return !arrived.empty(); });
            r = arrived.front().first;
            done_ns = arrived.front().second;
            arrived.pop_front();
        }
        InFlight ctx = std::move(inflight.front());
        inflight.pop_front();
        if (static_cast<uint64_t>(ctx.round) != r.round)
            ep.failures.push_back("round results out of order");
        trace::record("fl.round", ctx.submitted_ns, done_ns,
                      static_cast<uint64_t>(ctx.round));
        ep.pushed += static_cast<uint64_t>(r.stats.pushed);
        ep.evicted += static_cast<uint64_t>(r.stats.evicted);
        ep.staleness_sum += r.stats.mean_staleness;

        double acc = r.accuracy;
        if (acc < 0.0) {
            trace::Span s("fl.evaluate", r.round);
            acc = res.rounds.empty() ? fl->evaluate() : res.final_accuracy;
        }
        {
            trace::Span s("core.observe", r.round);
            policy->observe_outcome(ctx.exec, acc * 100.0);
        }
        trace::Span s("harness.record", r.round);
        stale_window.add(r.stats.mean_staleness);
        gobs.observed_staleness = stale_window.mean();
        RoundRecord rec;
        rec.round = ctx.round;
        rec.accuracy = acc;
        rec.round_s = ctx.exec.round_s;
        rec.energy_global_j = ctx.exec.energy_global_j();
        rec.energy_participants_j = ctx.exec.energy_participants_j;
        rec.work_flops = ctx.exec.work_flops;
        rec.included = ps_mode ? r.stats.applied : ctx.exec.included_count();
        rec.evicted = r.stats.evicted;
        rec.mean_staleness = r.stats.mean_staleness;
        rec.window_staleness = stale_window.mean();
        count_selection(*fleet, ctx.plans, rec);
        if (afl != nullptr)
            rec.mean_reward = afl->scheduler().last_mean_reward();
        res.rounds.push_back(rec);
        res.total_time_s += ctx.exec.round_s;
        res.total_energy_j += ctx.exec.energy_global_j();
        res.total_work_flops += ctx.exec.work_flops;
        res.participant_energy_j += ctx.exec.energy_participants_j;
        res.final_accuracy = acc;
    };

    ep.phase_begin = trace::now_ns();
    for (int round = 0; round < cfg.max_rounds; ++round) {
        const uint64_t req = static_cast<uint64_t>(round);
        {
            trace::Span s("sim.round", req);
            fleet->begin_round();
        }
        std::vector<LocalObservation> locals;
        {
            trace::Span s("harness.prepare", req);
            locals = observe_locals(*fleet, *fl, total_classes);
        }
        std::vector<ParticipantPlan> plans;
        {
            trace::Span s("core.select", req);
            plans = policy->select(gobs, locals, params.k);
        }
        std::vector<ComputeProfile> profiles;
        {
            trace::Span s("harness.prepare", req);
            profiles.reserve(plans.size());
            for (const auto &p : plans) {
                ComputeProfile prof;
                prof.train_flops = static_cast<double>(params.epochs) *
                    static_cast<double>(fl->shard(p.device_id).size()) *
                    gobs.profile.flops_per_sample * kTrainFlopFactor;
                prof.mem_bound_frac = mem_frac;
                prof.payload_bytes = gobs.profile.model_bytes;
                prof.batch_size = params.batch_size;
                if (cfg.compression.enabled()) {
                    prof.uplink_bytes = static_cast<double>(
                        encoded_delta_bytes(
                            cfg.compression,
                            static_cast<size_t>(gobs.profile.model_bytes /
                                                4.0)));
                }
                profiles.push_back(prof);
            }
        }
        RoundExec exec;
        {
            trace::Span s("sim.round", req);
            exec = simulate_round(*fleet, plans, profiles, round_sim);
        }
        std::vector<int> round_ids;
        {
            trace::Span s("harness.prepare", req);
            if (ps_mode) {
                std::vector<DeviceExec> ordered = exec.participants;
                std::stable_sort(ordered.begin(), ordered.end(),
                                 [](const DeviceExec &a, const DeviceExec &b) {
                                     return a.completion_s() <
                                         b.completion_s();
                                 });
                for (const auto &e : ordered)
                    round_ids.push_back(e.device_id);
            } else {
                for (const auto &e : exec.participants)
                    if (e.included)
                        round_ids.push_back(e.device_id);
            }
        }
        const uint64_t submitted = trace::now_ns();
        inflight.push_back(InFlight{round, exec, std::move(plans), submitted});
        ep.inflight_sum += static_cast<double>(inflight.size());
        {
            trace::Span s("fl.submit", req);
            fl->submit_round(round_ids, req, on_result);
        }
        while (static_cast<int>(inflight.size()) >= depth_limit)
            process_one();
    }
    while (!inflight.empty())
        process_one();
    {
        trace::Span s("fl.drain");
        fl->drain();
    }
    ep.phase_end = trace::now_ns();
    ep.loop_s = seconds_between(ep.phase_begin, ep.phase_end);
    if (afl != nullptr)
        ep.qtable_bytes = afl->scheduler().total_bytes();

    if (stream.joinable()) {
        stop_stream.store(true, std::memory_order_release);
        stream.join();
        ep.serve_stats = fl->serve().serving_stats();
        // Training has stopped, so the newest snapshot is fixed: served
        // logits must match a direct engine call on it.
        ModelService &svc = fl->serve();
        const SnapshotHandle h = svc.acquire();
        for (int row = 0; row < 8; ++row) {
            Tensor x = fl->test_set().batch_x({row});
            InferenceReply rep = svc.query(x, false);
            std::string why;
            if (!rep.ok())
                ep.failures.push_back("post-training query not Ok");
            else if (rep.epoch != h.epoch())
                ep.failures.push_back("post-training snapshot moved");
            else if (!logits_match(rep.logits,
                                   svc.engine().forward(h, std::move(x)),
                                   &why))
                ep.failures.push_back("served logits: " + why);
        }
    }

    if (spec.checkpoint) {
        ep.has_ckpt = true;
        store::CheckpointWriter *w = fl->checkpoint_writer();
        if (w == nullptr) {
            ep.failures.push_back("no checkpoint writer");
        } else {
            w->flush();
            ep.ckpt = w->stats();
            namespace fs = std::filesystem;
            for (const auto &e : fs::directory_iterator(cfg.snapshot_dir)) {
                const std::string fn = e.path().filename().string();
                if (fn.rfind("model-r", 0) != 0 ||
                    e.path().extension() != ".snap")
                    continue;
                ++ep.ckpt_on_disk;
                store::SnapshotStatus st = store::SnapshotStatus::Ok;
                auto snap = store::MappedSnapshot::open(e.path().string(), &st);
                if (snap && st == store::SnapshotStatus::Ok)
                    ++ep.ckpt_open_ok;
            }
        }
    }

    if (FlCluster *cl = fl->cluster()) {
        ep.has_net = true;
        for (int wi = 0; wi < cfg.net.workers; ++wi) {
            net::ClusterWorker *cw = cl->loopback_worker(wi);
            if (cw == nullptr)
                continue;
            const net::Transport &van = cw->van();
            ep.net_bytes += van.bytes_sent() + van.bytes_received();
            ep.push_bytes += van.bytes_sent(net::MsgType::Push) +
                van.bytes_sent(net::MsgType::PushDelta);
            ep.push_delta_bytes += van.bytes_sent(net::MsgType::PushDelta);
            ep.pull_bytes += van.bytes_sent(net::MsgType::PullReq) +
                van.bytes_received(net::MsgType::PullResp);
        }
        // One PushDelta frame of a model-sized int8 delta.
        const size_t dim = fl->server().global_weights().size();
        ep.push_frame_bytes = net::wire_frame_bytes(net::make_push_delta(
            0, 0, 0, 0.0, 0.0,
            encode_delta(cfg.compression, std::vector<float>(dim, 0.0f))));
        cl->shutdown();
    }
    {
        trace::Span s("fl.teardown");
        fl.reset();
    }
    return ep;
}

/** Field-by-field equality of two round-record sequences. */
bool
same_records(const std::vector<RoundRecord> &a,
             const std::vector<RoundRecord> &b, std::string *why)
{
    if (a.size() != b.size()) {
        *why = "round count " + std::to_string(a.size()) + " vs " +
            std::to_string(b.size());
        return false;
    }
    for (size_t i = 0; i < a.size(); ++i) {
        const RoundRecord &x = a[i], &y = b[i];
        if (x.round != y.round || x.accuracy != y.accuracy ||
            x.round_s != y.round_s || x.energy_global_j != y.energy_global_j ||
            x.energy_participants_j != y.energy_participants_j ||
            x.work_flops != y.work_flops || x.included != y.included ||
            x.evicted != y.evicted || x.mean_staleness != y.mean_staleness ||
            x.window_staleness != y.window_staleness ||
            x.selected_high != y.selected_high ||
            x.selected_mid != y.selected_mid ||
            x.selected_low != y.selected_low ||
            x.action_counts != y.action_counts ||
            x.mean_reward != y.mean_reward) {
            *why = "round " + std::to_string(i) + " differs";
            return false;
        }
    }
    return true;
}

/** Per-layer metrics of one traced training episode. */
void
report_episode_layers(const Episode &ep, const std::vector<trace::Record> &recs,
                      uint32_t tid, Result &out)
{
    report_breakdown(
        trace::breakdown(recs, tid, ep.phase_begin, ep.phase_end),
        {"core", "sim", "fl", "harness", "wait"}, out);
    out.add("core.warmup_s", "s", ep.warmup_s);
    out.add("core.qtable_bytes", "bytes",
            static_cast<double>(ep.qtable_bytes));
    out.add("ps.evicted_frac", "frac",
            ep.pushed ? static_cast<double>(ep.evicted) /
                    static_cast<double>(ep.pushed)
                      : 0.0);
    const double rounds = static_cast<double>(ep.res.rounds.size());
    out.add("ps.mean_staleness", "updates", ep.staleness_sum / rounds);
    out.add("ps.inflight_mean", "rounds", ep.inflight_sum / rounds);
    out.add("net.bytes_per_round", "bytes",
            static_cast<double>(ep.net_bytes) / rounds);
    out.add("net.push_bytes_per_round", "bytes",
            static_cast<double>(ep.push_bytes) / rounds);
    out.add("net.pull_bytes_per_round", "bytes",
            static_cast<double>(ep.pull_bytes) / rounds);
    if (ep.has_ckpt) {
        out.add("store.ckpt_written", "count",
                static_cast<double>(ep.ckpt.written));
        out.add("store.ckpt_dropped_frac", "frac",
                ep.ckpt.requested ? static_cast<double>(ep.ckpt.dropped) /
                        static_cast<double>(ep.ckpt.requested)
                                  : 0.0);
    }
    if (ep.has_load) {
        const ServeStats &st = ep.serve_stats;
        const double sub =
            static_cast<double>(std::max<uint64_t>(1, st.submitted));
        out.add("serve.batch_rows_mean", "rows", st.mean_batch_rows());
        out.add("serve.shed_frac", "frac", static_cast<double>(st.shed) / sub);
        out.add("serve.deadline_shed_frac", "frac",
                static_cast<double>(st.deadline_shed) / sub);
        out.add("serve.snapshot_lag_epochs", "epochs",
                ep.load.lag_epochs.empty() ? 0.0 :
                std::accumulate(ep.load.lag_epochs.begin(),
                                ep.load.lag_epochs.end(), 0.0) /
                    static_cast<double>(ep.load.lag_epochs.size()));
        out.add("serve.generator_late_ms_p99", "ms",
                percentile(ep.load.late_ms, tail_percentile(ep.load.late_ms)));
    }
}

/** fl.round_ms_p50/p99 (submit to result) over every traced episode. */
void
report_round_spans(const std::vector<trace::Record> &recs, Result &out)
{
    const auto round_ms = trace::durations_ms(recs, "fl.round");
    out.add("fl.round_ms_p50", "ms", percentile(round_ms, 50));
    out.add("fl.round_ms_p99", "ms",
            percentile(round_ms, tail_percentile(round_ms)));
}

/** Check the loopback push bytes and the checkpoints of one episode. */
void
check_episode(const Episode &ep, Result &out)
{
    for (const std::string &f : ep.failures)
        out.check("episode", false, f);
    if (ep.has_ckpt) {
        const bool ok = ep.ckpt_on_disk > 0 &&
            ep.ckpt_open_ok == ep.ckpt_on_disk &&
            ep.ckpt.written >= static_cast<uint64_t>(ep.ckpt_on_disk);
        if (!ok)
            out.check("checkpoints_open_ok", false,
                      std::to_string(ep.ckpt_open_ok) + "/" +
                          std::to_string(ep.ckpt_on_disk) + " open Ok, " +
                          std::to_string(ep.ckpt.written) + " written");
    }
    if (ep.has_net && (ep.pushed == 0 ||
                       ep.push_delta_bytes != ep.pushed * ep.push_frame_bytes))
        out.check("push_bytes_match_codec", false,
                  "PushDelta bytes " + std::to_string(ep.push_delta_bytes) +
                      " != pushed " + std::to_string(ep.pushed) + " x frame " +
                      std::to_string(ep.push_frame_bytes));
}

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 9;

/**
 * Queries per latency window: p99 with ten samples beyond it.
 * query_p99_ms is the median over the windows of a run.
 */
constexpr size_t kQueryWindow = 1000;

/** Run the episodes of one training workload and report. */
void
run_training(const TrainSpec &spec, const Options &opt, Result &out)
{
    // setup_s: kSetups set-ups back to back in the fresh process, before
    // anything else runs. An episode can leave state behind that slows
    // what follows it (see the README), so set-ups measured after
    // episodes would depend on which episode ran last.
    if (!opt.trace) {
        for (int k = 0; k < kSetups; ++k) {
            ExperimentConfig cfg = spec.cfg;
            cfg.seed = episode_seed(
                opt.seed, static_cast<uint64_t>(k % spec.quality_episodes));
            if (spec.checkpoint)
                cfg.snapshot_dir =
                    opt.work_dir + "/ckpt-setup-" + std::to_string(k);
            const uint64_t t0 = trace::now_ns();
            Job job = build_job(cfg);
            out.add("setup_s", "s", seconds_between(t0, trace::now_ns()));
        }
    }

    // Untimed warm-up episode: the first job in a fresh process runs
    // measurably slower (page faults, lazy pools, cold caches).
    {
        ExperimentConfig cfg = spec.cfg;
        cfg.seed = episode_seed(opt.seed, 1000);
        if (spec.checkpoint)
            cfg.snapshot_dir = opt.work_dir + "/ckpt-warm";
        run_episode(spec, cfg, opt, cfg.seed);
    }

    std::vector<double> rps_by_mode[2], lat_by_mode[2];
    std::vector<trace::Record> recs;
    const uint32_t tid = trace::thread_index();
    uint64_t attempted = 0, missed = 0;
    bool records_checked = false;
    const uint64_t start = trace::now_ns();
    for (int i = 0;; ++i) {
        if (i >= spec.quality_episodes &&
            seconds_between(start, trace::now_ns()) >= opt.seconds)
            break;
        // A traced run alternates traced and untraced episodes, so the
        // tracing overhead is measured inside the run; an untraced run
        // never records a span.
        const bool traced = opt.trace && i % 2 == 1;
        ExperimentConfig cfg = spec.cfg;
        cfg.seed = episode_seed(opt.seed,
                                static_cast<uint64_t>(i % spec.quality_episodes));
        if (spec.checkpoint)
            cfg.snapshot_dir = opt.work_dir + "/ckpt-" + std::to_string(i);
        trace::set_enabled(traced);
        Episode ep = run_episode(spec, cfg, opt, cfg.seed ^ 0x5eedULL);
        trace::set_enabled(false);
        check_episode(ep, out);

        const double rps =
            static_cast<double>(ep.res.rounds.size()) / ep.loop_s;
        attempted += ep.res.rounds.size() + ep.load.attempted;
        missed += ep.load.missed();
        rps_by_mode[traced].push_back(rps);
        auto &pool = lat_by_mode[traced];
        pool.insert(pool.end(), ep.load.lat_ms.begin(), ep.load.lat_ms.end());
        if (traced) {
            std::vector<trace::Record> r = trace::drain();
            report_episode_layers(ep, r, tid, out);
            recs.insert(recs.end(), r.begin(), r.end());
        }

        // Quality, in the run record only: the first
        // spec.quality_episodes episodes (seeds fixed by the run seed).
        if (i >= spec.quality_episodes)
            continue;
        if (!opt.trace)
            out.add("accuracy_final", "frac", ep.res.final_accuracy);
        if (!spec.random_baseline)
            continue;
        ExperimentConfig rcfg = cfg;
        rcfg.policy = PolicyKind::FedAvgRandom;
        Episode base = run_episode(spec, rcfg, opt, cfg.seed ^ 0xba5eULL);
        check_episode(base, out);
        attempted += base.res.rounds.size() + base.load.attempted;
        missed += base.load.missed();
        auto &bpool = lat_by_mode[0];
        bpool.insert(bpool.end(), base.load.lat_ms.begin(),
                     base.load.lat_ms.end());
        if (!records_checked) {
            // The outside-in driver must reproduce the harness loop,
            // with the query stream running beside it.
            records_checked = true;
            for (const ExperimentConfig *c : {&cfg, &rcfg}) {
                const ExperimentResult ref = run_experiment(*c);
                const ExperimentResult &mine =
                    c == &cfg ? ep.res : base.res;
                std::string why;
                out.check("records_match_run_experiment." +
                              policy_kind_name(c->policy),
                          same_records(mine.rounds, ref.rounds, &why), why);
            }
        }
        if (opt.trace)
            continue;
        std::vector<double> acc, round_s;
        for (const RoundRecord &r : ep.res.rounds) {
            acc.push_back(r.accuracy);
            round_s.push_back(r.round_s);
        }
        // An episode that never reaches the target reads -1.
        out.add("sim_time_to_target_s", "sim_s",
                time_to_target(acc, round_s,
                               default_target_accuracy(cfg.workload)));
        out.add("sim_ppw_global", "work/J", ep.res.ppw_round());
        out.add("sim_ppw_local", "work/J", ep.res.ppw_local());
        out.add("ppw_gain_vs_random", "x",
                ep.res.ppw_round() / base.res.ppw_round());
    }
    out.check("no_failed_queries", missed == 0,
              std::to_string(missed) + " of " + std::to_string(attempted) +
                  " operations missed");
    out.count(attempted, missed);

    if (!opt.trace) {
        for (double v : rps_by_mode[0])
            out.add("throughput_per_s", "1/s", v);
        const auto &lat = lat_by_mode[0];
        const auto p99 = window_percentiles(lat, kQueryWindow, 99);
        out.check("p99_supported",
                  !p99.empty() &&
                      supported_percentile(kQueryWindow) >= 99.0,
                  std::to_string(lat.size()) + " query samples");
        // The median over all queries is steady on its own; a window's
        // median moves with how the window lines up with the episodes'
        // busy and idle phases.
        out.add("query_p50_ms", "ms", percentile(lat, 50));
        for (double v : p99)
            out.add("query_p99_ms", "ms", v);
        out.add("peak_rss_mb", "MiB", peak_rss_mib());
        return;
    }

    // Traced run: spans, overhead and the per-layer probes.
    report_round_spans(recs, out);
    out.add("trace.overhead_rounds_frac", "frac",
            1.0 - median(rps_by_mode[1]) / median(rps_by_mode[0]));
    out.add("trace.overhead_p99_frac", "frac",
            median(window_percentiles(lat_by_mode[1], kQueryWindow, 99)) /
                    median(window_percentiles(lat_by_mode[0], kQueryWindow,
                                              99)) -
                1.0);
    if (!opt.trace_out.empty())
        trace::write_chrome_json(opt.trace_out, recs);
    ExperimentConfig pcfg = spec.cfg;
    pcfg.seed = episode_seed(opt.seed, 0);
    run_probes(pcfg, opt.work_dir, out);
}

} // namespace

ExperimentConfig
base_config(Workload w, int rounds)
{
    ExperimentConfig cfg;
    cfg.workload = w;
    cfg.setting = ParamSetting::S3;
    cfg.policy = PolicyKind::AutoFl;
    cfg.max_rounds = rounds;
    cfg.target_accuracy = 2.0;  // Unreachable: every run does all rounds.
    cfg.threads = nproc();
    cfg.eval_workers = nproc();
    cfg.serve.workers = nproc();
    return cfg;
}

void
probe_policy(const ExperimentConfig &cfg, Result &out)
{
    FlSystemConfig fcfg = system_config(cfg);
    fcfg.ps = PsConfig{};  // The scheduling loop alone: no runtime.
    FlSystem fl(fcfg);
    // The ps and cluster runtimes simulate rounds without a deadline,
    // as run_episode does for them.
    const bool ps_mode = cfg.net.enabled() ||
        (cfg.sync_mode != SyncMode::Sync && cfg.algorithm != Algorithm::Fedl);
    RoundSimConfig round_sim = cfg.round_sim;
    if (ps_mode)
        round_sim.deadline_multiple = 0.0;
    Fleet fleet(cfg.fleet_mix, cfg.variance, cfg.seed * 13 + 5);
    std::unique_ptr<SelectionPolicy> policy = make_policy(cfg, fleet);
    if (auto *afl = dynamic_cast<AutoFlPolicy *>(policy.get()))
        afl->scheduler().set_epsilon(0.05);  // As after the warm-up.
    const FlGlobalParams params = global_params_for(cfg.setting);
    GlobalObservation gobs;
    gobs.profile = fl.profile();
    gobs.params = params;
    const int total_classes = model_num_classes(cfg.workload);
    const int quota = std::max(1, static_cast<int>(fl.shard(0).size()));
    const ComputeProfile prof{static_cast<double>(params.epochs) * quota *
                                  gobs.profile.flops_per_sample *
                                  kTrainFlopFactor,
                              gobs.profile.mem_bound_frac,
                              gobs.profile.model_bytes, params.batch_size};

    constexpr int kRounds = 1000;  // p99 with ten samples beyond it.
    std::vector<double> sel_us, sim_us, obs_us;
    double acc = 20.0;
    auto us = [](uint64_t a, uint64_t b) {
        return static_cast<double>(b - a) / 1e3;
    };
    for (int r = 0; r < kRounds; ++r) {
        const uint64_t t0 = trace::now_ns();
        fleet.begin_round();
        const uint64_t t1 = trace::now_ns();
        auto locals = observe_locals(fleet, fl, total_classes);
        const uint64_t t2 = trace::now_ns();
        auto plans = policy->select(gobs, locals, params.k);
        const uint64_t t3 = trace::now_ns();
        const std::vector<ComputeProfile> profiles(plans.size(), prof);
        const uint64_t t4 = trace::now_ns();
        RoundExec exec = simulate_round(fleet, plans, profiles, round_sim);
        const uint64_t t5 = trace::now_ns();
        acc = std::min(90.0, acc + 0.1);
        policy->observe_outcome(exec, acc);
        const uint64_t t6 = trace::now_ns();
        sim_us.push_back(us(t0, t1) + us(t4, t5));
        sel_us.push_back(us(t2, t3));
        obs_us.push_back(us(t5, t6));
    }
    out.add("core.select_us_p50", "us", percentile(sel_us, 50));
    out.add("core.select_us_p99", "us", percentile(sel_us, 99));
    out.add("core.observe_us_p50", "us", percentile(obs_us, 50));
    out.add("sim.round_us_p50", "us", percentile(sim_us, 50));
}

void
run_train_mobilenet_pipe(const Options &opt, Result &res)
{
    TrainSpec spec;
    spec.cfg = base_config(Workload::MobileNetImageNet, 32);
    spec.cfg.sync_mode = SyncMode::SemiAsync;
    spec.cfg.staleness_bound = 1;
    spec.cfg.pipeline_depth = 4;
    spec.cfg.snapshot_every_epochs = 1;
    spec.cfg.snapshot_keep_last = 3;
    spec.checkpoint = true;
    spec.query_qps = 200.0;
    run_training(spec, opt, res);
}

void
run_train_cnn_loopback(const Options &opt, Result &res)
{
    TrainSpec spec;
    spec.cfg = base_config(Workload::CnnMnist, 30);
    spec.cfg.sync_mode = SyncMode::SemiAsync;
    spec.cfg.staleness_bound = 1;
    spec.cfg.net.listen = "loopback";
    spec.cfg.net.workers = nproc();
    spec.cfg.compression.mode = Compression::Int8;
    spec.query_qps = 200.0;
    run_training(spec, opt, res);
}

void
run_paper_cnn_sync(const Options &opt, Result &res)
{
    TrainSpec spec;
    spec.cfg = base_config(Workload::CnnMnist, 40);
    spec.cfg.variance = VarianceScenario::Combined;
    spec.random_baseline = true;
    spec.quality_episodes = 5;
    spec.query_qps = 500.0;
    run_training(spec, opt, res);
}

} // namespace perfbench
