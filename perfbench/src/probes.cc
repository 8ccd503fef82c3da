#include "probes.h"

#include <cstdio>
#include <cmath>
#include <numeric>
#include <sstream>
#include <thread>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "kernels/kernels.h"
#include "metrics.h"
#include "net/van.h"
#include "ps/compression.h"
#include "serve/inference_engine.h"
#include "store/mapped_snapshot.h"
#include "store/snapshot.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

using namespace autofl;

namespace {

/** Repeat @p fn until @p min_s has passed; seconds per call. */
template <typename F>
double
time_per_call(double min_s, F &&fn)
{
    fn();  // Warm caches, lazily packed panels, first-touch pages.
    int calls = 0;
    const uint64_t t0 = trace::now_ns();
    uint64_t t1 = t0;
    do {
        fn();
        ++calls;
        t1 = trace::now_ns();
    } while (seconds_between(t0, t1) < min_s);
    return seconds_between(t0, t1) / calls;
}

std::vector<float>
random_floats(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (float &x : v)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
}

/** Which kernel entry a layer calls for one of its GEMMs. */
enum class GemmEntry {
    PackedA,  ///< W packed once as A (ungrouped Conv2D, per sample).
    Plain,    ///< kernels::gemm (Dense, per-group depthwise Conv2D).
    PackedB,  ///< W packed once as B (Lstm gates, per time step).
};

struct GemmShape
{
    int m, n, k;
    GemmEntry entry;
    double flops = 0.0;  ///< Summed over one forward pass.
};

/**
 * The GEMMs one training forward pass of @p w's model issues at
 * @p batch rows, in the form each layer calls them: Conv2D::convolve
 * runs one GEMM per sample (and per group) with M = output channels
 * per group, N = output pixels, K = input channels per group x k x k;
 * Dense runs one batch-wide GEMM; Lstm runs one per time step on its
 * pre-packed [Wx; Wh]. Shapes are read off the layers' weight tensors
 * and output shapes, so they follow the model as it is defined. Equal
 * shapes on the same entry are merged; ordered by FLOPs, largest
 * first.
 */
std::vector<GemmShape>
model_gemm_shapes(Workload w, int batch)
{
    Sequential model = make_model(w);
    std::vector<int> shape = model_batch_shape(w, batch);
    std::vector<GemmShape> out;
    auto add = [&](int m, int n, int k, GemmEntry e, double calls) {
        const double flops = calls * 2.0 * m * n * k;
        for (GemmShape &s : out) {
            if (s.m == m && s.n == n && s.k == k && s.entry == e) {
                s.flops += flops;
                return;
            }
        }
        out.push_back(GemmShape{m, n, k, e, flops});
    };
    for (size_t l = 0; l < model.num_layers(); ++l) {
        Layer &layer = model.layer(l);
        const std::vector<int> next = layer.output_shape(shape);
        const std::vector<Tensor *> p = layer.params();
        switch (layer.kind()) {
          case LayerKind::Conv: {  // W {out_ch, in_ch / groups, k, k}
            const Tensor &wt = *p[0];
            const int groups = shape[1] / wt.dim(1);
            add(wt.dim(0) / groups, next[2] * next[3],
                wt.dim(1) * wt.dim(2) * wt.dim(3),
                groups == 1 ? GemmEntry::PackedA : GemmEntry::Plain,
                static_cast<double>(shape[0]) * groups);
            break;
          }
          case LayerKind::Fc:  // W {in, out}, input {rows, in}
            add(shape[0], p[0]->dim(1), p[0]->dim(0), GemmEntry::Plain, 1);
            break;
          case LayerKind::Recurrent:  // Wx {in, 4h}, Wh {h, 4h}; {T, B, in}
            add(shape[1], p[0]->dim(1), p[0]->dim(0) + p[1]->dim(0),
                GemmEntry::PackedB, shape[0]);
            break;
          case LayerKind::Other:
            break;
        }
        shape = next;
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const GemmShape &a, const GemmShape &b) {
                         return a.flops > b.flops;
                     });
    return out;
}

void
probe_gemm(Workload w, int batch, Result &out)
{
    std::vector<GemmShape> shapes = model_gemm_shapes(w, batch);
    if (shapes.size() > kGemmShapes)
        shapes.resize(kGemmShapes);
    for (size_t i = 0; i < shapes.size(); ++i) {
        const GemmShape &s = shapes[i];
        const auto a = random_floats(static_cast<size_t>(s.m) * s.k, 1);
        const auto b = random_floats(static_cast<size_t>(s.k) * s.n, 2);
        std::vector<float> c(static_cast<size_t>(s.m) * s.n);
        double sec = 0.0;
        switch (s.entry) {
          case GemmEntry::PackedA: {
            const kernels::PackedGemm ap =
                kernels::pack_gemm_a(s.m, s.k, a.data(), s.k);
            sec = time_per_call(0.05, [&] {
                kernels::gemm_packed_a(ap, s.n, b.data(), s.n, c.data(), s.n,
                                       true);
            });
            break;
          }
          case GemmEntry::Plain:
            sec = time_per_call(0.05, [&] {
                kernels::gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                              c.data(), s.n);
            });
            break;
          case GemmEntry::PackedB: {
            const kernels::PackedGemm bp =
                kernels::pack_gemm_b(s.k, s.n, b.data(), s.n);
            sec = time_per_call(0.05, [&] {
                kernels::gemm_packed_b(s.m, a.data(), s.k, bp, c.data(), s.n);
            });
            break;
          }
        }
        // Ranks, not shapes, name the metrics, so every model reports
        // the same names; the shape behind each rank is noted.
        const std::string name =
            "kernels.gemm_gflops.rank" + std::to_string(i + 1);
        char shape[64];
        std::snprintf(shape, sizeof shape, "m%dn%dk%d", s.m, s.n, s.k);
        out.note(name, shape);
        out.add(name, "GFLOP/s", 2.0 * s.m * s.n * s.k / sec / 1e9);
    }
}

void
probe_layers(Workload w, int batch, Result &out)
{
    Sequential model = make_model(w);
    Rng rng(7);
    model.init_weights(rng);
    std::vector<int> shape = model_batch_shape(w, batch);
    const size_t in_n = std::accumulate(shape.begin(), shape.end(), size_t{1},
                                        std::multiplies<size_t>());
    const auto xin = random_floats(in_n, 3);

    constexpr int kIters = 20;
    const char *kinds[] = {"conv", "fc", "recurrent"};
    std::vector<double> fwd[3], bwd[3];
    for (int it = 0; it <= kIters; ++it) {
        double f[3] = {0, 0, 0}, b[3] = {0, 0, 0};
        Tensor x(shape, xin);
        for (size_t l = 0; l < model.num_layers(); ++l) {
            const uint64_t t0 = trace::now_ns();
            x = model.layer(l).forward(std::move(x));
            const int kind = static_cast<int>(model.layer(l).kind());
            if (kind < 3)
                f[kind] += static_cast<double>(trace::now_ns() - t0) / 1e3;
        }
        Tensor g(x.shape(), 1.0f / static_cast<float>(x.size()));
        for (size_t l = model.num_layers(); l-- > 0;) {
            const uint64_t t0 = trace::now_ns();
            g = model.layer(l).backward(g);
            const int kind = static_cast<int>(model.layer(l).kind());
            if (kind < 3)
                b[kind] += static_cast<double>(trace::now_ns() - t0) / 1e3;
        }
        if (it == 0)
            continue;  // Warm-up iteration.
        for (int k = 0; k < 3; ++k) {
            fwd[k].push_back(f[k]);
            bwd[k].push_back(b[k]);
        }
    }
    // LayerKind order is Conv, Fc, Recurrent; the kinds present go to
    // the run record, the whole pass to the per-layer metrics.
    std::vector<double> fwd_all(fwd[0].size()), bwd_all(bwd[0].size());
    for (int k = 0; k < 3; ++k) {
        for (size_t i = 0; i < fwd_all.size(); ++i) {
            fwd_all[i] += fwd[k][i];
            bwd_all[i] += bwd[k][i];
        }
        if (median(fwd[k]) <= 0.0)
            continue;
        out.add(std::string("nn.fwd_us.") + kinds[k], "us", median(fwd[k]));
        out.add(std::string("nn.bwd_us.") + kinds[k], "us", median(bwd[k]));
    }
    out.add("nn.fwd_us", "us", median(fwd_all));
    out.add("nn.bwd_us", "us", median(bwd_all));
}

/** Data synthesis, local training and evaluation; returns the data. */
TrainTestSplit
probe_job(const ExperimentConfig &cfg, Result &out)
{
    const FlSystemConfig fcfg = system_config(cfg);
    TrainTestSplit data;
    Partition part;
    const double synth_s = time_per_call(0.0, [&] {
        data = make_dataset(fcfg.workload, fcfg.data);
        part = partition_dataset(data.train, fcfg.partition);
    });
    out.add("data.synth_s", "s", synth_s);

    const Dataset shard = data.train.subset(part.shards.front());
    LocalTrainer trainer(fcfg.workload);
    Sequential init = make_model(fcfg.workload);
    Rng rng(fcfg.seed);
    init.init_weights(rng);
    const std::vector<float> w0 = init.flat_weights();
    std::vector<double> train_ms;
    for (int i = 0; i < 6; ++i) {
        const uint64_t t0 = trace::now_ns();
        trainer.train(w0, shard, fcfg.params, fcfg.hyper, fcfg.algorithm, {},
                      client_rng(fcfg.seed, 0, static_cast<uint64_t>(i)));
        if (i > 0)
            train_ms.push_back(static_cast<double>(trace::now_ns() - t0) / 1e6);
    }
    out.add("nn.local_train_ms", "ms", median(train_ms));

    // Evaluation of the job's model, called on its own (the runtimes
    // run it inline with the round).
    FlSystemConfig sync_cfg = fcfg;
    sync_cfg.ps = PsConfig{};
    FlSystem fl(sync_cfg);
    std::vector<double> eval_ms;
    for (int i = 0; i < 6; ++i) {
        const uint64_t t0 = trace::now_ns();
        fl.evaluate();
        if (i > 0)
            eval_ms.push_back(static_cast<double>(trace::now_ns() - t0) / 1e6);
    }
    out.add("fl.eval_ms_p50", "ms", median(eval_ms));
    return data;
}

void
probe_codec(size_t dim, Result &out)
{
    CompressionConfig cc;
    cc.mode = Compression::Int8;
    const auto delta = random_floats(dim, 5);
    const double mb = static_cast<double>(dim) * sizeof(float) / 1e6;
    EncodedDelta enc;
    const double enc_s =
        time_per_call(0.05, [&] { enc = encode_delta(cc, delta); });
    std::vector<float> dec;
    const double dec_s =
        time_per_call(0.05, [&] { decode_delta(enc, &dec); });
    out.add("ps.codec_encode_mb_s.int8", "MB/s", mb / enc_s);
    out.add("ps.codec_decode_mb_s.int8", "MB/s", mb / dec_s);
}

void
probe_rtt(size_t dim, Result &out)
{
    auto [client, server] = net::make_loopback_pair();
    std::thread echo([srv = server.get()] {
        net::Message m;
        while (srv->recv(&m, -1) == net::RecvStatus::Ok)
            srv->send(std::move(m));
    });
    net::Message ping;
    ping.type = net::MsgType::PullResp;
    ping.floats.assign(dim, 0.5f);
    net::Message reply;
    const double sec = time_per_call(0.05, [&] {
        client->send(ping);
        client->recv(&reply, -1);
    });
    client->close();
    echo.join();
    out.add("net.rtt_us_weights", "us", sec * 1e6);
}

/** Durable artifact write and mmap open of a @p dim-float model. */
void
probe_snapshot(size_t dim, const std::string &dir, Result &out)
{
    store::SnapshotMeta meta;
    meta.dim = dim;
    meta.shard_count = 1;
    meta.topology_hash = store::model_topology_hash("probe", dim);
    const auto shards = store::even_shard_ranges(dim, 1);
    const auto w = random_floats(dim, 9);
    const std::string path = dir + "/probe.snap";
    std::vector<double> write_ms, open_ms;
    for (int i = 0; i < 6; ++i) {
        meta.round = static_cast<uint64_t>(i);
        const uint64_t t0 = trace::now_ns();
        store::write_snapshot_file(path, meta, shards, w.data());
        const uint64_t t1 = trace::now_ns();
        auto m = store::MappedSnapshot::open(path);
        const uint64_t t2 = trace::now_ns();
        if (!m)
            out.check("probe_mmap_open", false, "cannot open " + path);
        if (i > 0) {
            write_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
            open_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
        }
    }
    out.add("store.snapshot_write_ms", "ms", median(write_ms));
    out.add("store.mmap_open_ms", "ms", median(open_ms));
}

/** Direct engine forward of the initial model on test rows. */
void
probe_infer(Workload w, const Dataset &data, Result &out)
{
    ServeConfig scfg;
    scfg.workers = nproc();
    InferenceEngine engine(w, scfg);
    Sequential model = make_model(w);
    Rng rng(11);
    model.init_weights(rng);
    auto weights =
        std::make_shared<const std::vector<float>>(model.flat_weights());
    const SnapshotHandle snap(1, weights, weights->data(), weights->size());
    for (int b : {1, 16, 32}) {
        std::vector<int> idx(static_cast<size_t>(b));
        std::iota(idx.begin(), idx.end(), 0);
        const Tensor x = data.batch_x(idx);
        const double sec =
            time_per_call(0.05, [&] { engine.forward(snap, x); });
        out.add("serve.infer_us.b" + std::to_string(b), "us", sec * 1e6);
    }
}

} // namespace

void
run_probes(const ExperimentConfig &cfg, const std::string &dir, Result &out)
{
    const Workload w = cfg.workload;
    const size_t dim = make_model(w).num_params();
    const int batch = global_params_for(cfg.setting).batch_size;
    probe_gemm(w, batch, out);
    probe_layers(w, batch, out);
    const TrainTestSplit data = probe_job(cfg, out);
    probe_policy(cfg, out);
    probe_codec(dim, out);
    probe_rtt(dim, out);
    probe_snapshot(dim, dir, out);
    probe_infer(w, data.test, out);
}

/**
 * Compare served logits with a direct InferenceEngine call on the
 * same snapshot, within the GEMM parity tier of the running kernels.
 */
bool
logits_match(const Tensor &served, const Tensor &direct, std::string *why)
{
    if (served.size() != direct.size()) {
        *why = "logit count differs";
        return false;
    }
    const bool exact = kernels::kernel_parity(kernels::current_kernel_arch())
                           .gemm == kernels::ParityTier::Exact;
    for (size_t i = 0; i < served.size(); ++i) {
        const double a = served.data()[i], b = direct.data()[i];
        const double tol = exact ? 0.0 : 1e-4 * std::max(1.0, std::fabs(b));
        if (!(std::fabs(a - b) <= tol)) {
            std::ostringstream os;
            os << "logit " << i << ": served " << a << " vs direct " << b;
            *why = os.str();
            return false;
        }
    }
    return true;
}

} // namespace perfbench
