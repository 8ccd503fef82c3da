/**
 * @file
 * Kernel-dispatch backend tests: scalar/SIMD parity, reduction-order
 * determinism, seed-loop bit-compatibility and im2col round trips.
 *
 * Contract under test (src/kernels/README.md): per variant, results are
 * bitwise deterministic; the scalar GEMM variants are bit-identical to
 * the seed triple loops; elementwise kernels are bit-identical across
 * ALL variants; GEMM/conv variants agree within 1e-4 relative, except
 * the direct depthwise conv, which is the scalar GEMM path's bits on
 * every variant; every kernel returns with clean upper vector state.
 */
#include <cmath>
#include <cstdint>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <gtest/gtest.h>

#include "fl/aggregation.h"
#include "kernels/kernels.h"
#include "nn/conv2d.h"
#include "nn/lstm.h"
#include "util/rng.h"

namespace autofl {
namespace {

using kernels::KernelArch;

/** Restores the entry arch when a test is done flipping variants. */
struct ArchGuard
{
    KernelArch saved = kernels::current_kernel_arch();
    ~ArchGuard() { kernels::set_kernel_arch(saved); }
};

bool
has_simd()
{
    return kernels::best_kernel_arch() != KernelArch::Scalar;
}

std::vector<float>
random_vec(size_t n, Rng &rng)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-1, 1));
    return v;
}

/** The seed's matmul triple loop (pre-kernel reference). */
void
seed_matmul(int m, int n, int k, const float *pa, const float *pb, float *po)
{
    for (int i = 0; i < m; ++i) {
        for (int kk = 0; kk < k; ++kk) {
            const float av = pa[static_cast<size_t>(i) * k + kk];
            if (av == 0.0f)
                continue;
            const float *brow = pb + static_cast<size_t>(kk) * n;
            float *orow = po + static_cast<size_t>(i) * n;
            for (int j = 0; j < n; ++j)
                orow[j] += av * brow[j];
        }
    }
}

void
expect_rel_close(const std::vector<float> &a, const std::vector<float> &b,
                 double rel_tol, const char *what)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const double denom = std::max(
            {1.0, std::abs(static_cast<double>(a[i])),
             std::abs(static_cast<double>(b[i]))});
        EXPECT_NEAR(a[i] / denom, b[i] / denom, rel_tol)
            << what << " index " << i;
    }
}

struct GemmShape
{
    int m, k, n;
};

class GemmParityTest : public ::testing::TestWithParam<GemmShape>
{
};

/** Scalar variant reproduces the seed loop bit-for-bit. */
TEST_P(GemmParityTest, ScalarMatchesSeedLoopBitwise)
{
    ArchGuard guard;
    const auto [m, k, n] = GetParam();
    Rng rng(42);
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);

    std::vector<float> ref(static_cast<size_t>(m) * n, 0.0f);
    seed_matmul(m, n, k, a.data(), b.data(), ref.data());

    kernels::set_kernel_arch(KernelArch::Scalar);
    std::vector<float> out(static_cast<size_t>(m) * n, -1.0f);
    kernels::gemm(m, n, k, a.data(), k, b.data(), n, out.data(), n);
    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], out[i]) << "index " << i;
}

/** Scalar and SIMD variants agree within 1e-4 relative, all 3 GEMMs. */
TEST_P(GemmParityTest, VariantsAgreeWithinTolerance)
{
    ArchGuard guard;
    const auto [m, k, n] = GetParam();
    Rng rng(43);
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto at = random_vec(static_cast<size_t>(k) * m, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);
    const auto bt = random_vec(static_cast<size_t>(n) * k, rng);

    const size_t out_n = static_cast<size_t>(m) * n;
    std::vector<float> s_nn(out_n), s_tn(out_n), s_nt(out_n);
    std::vector<float> v_nn(out_n), v_tn(out_n), v_nt(out_n);

    kernels::set_kernel_arch(KernelArch::Scalar);
    kernels::gemm(m, n, k, a.data(), k, b.data(), n, s_nn.data(), n);
    kernels::gemm_tn(m, n, k, at.data(), m, b.data(), n, s_tn.data(), n);
    kernels::gemm_nt(m, n, k, a.data(), k, bt.data(), k, s_nt.data(), n);

    kernels::set_kernel_arch(kernels::best_kernel_arch());
    kernels::gemm(m, n, k, a.data(), k, b.data(), n, v_nn.data(), n);
    kernels::gemm_tn(m, n, k, at.data(), m, b.data(), n, v_tn.data(), n);
    kernels::gemm_nt(m, n, k, a.data(), k, bt.data(), k, v_nt.data(), n);

    expect_rel_close(s_nn, v_nn, 1e-4, "gemm");
    expect_rel_close(s_tn, v_tn, 1e-4, "gemm_tn");
    expect_rel_close(s_nt, v_nt, 1e-4, "gemm_nt");
}

/** Same inputs, same variant -> bitwise identical output, twice. */
TEST_P(GemmParityTest, DeterministicPerVariant)
{
    ArchGuard guard;
    const auto [m, k, n] = GetParam();
    Rng rng(44);
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);

    for (KernelArch arch : {KernelArch::Scalar, kernels::best_kernel_arch()}) {
        kernels::set_kernel_arch(arch);
        std::vector<float> o1(static_cast<size_t>(m) * n),
            o2(static_cast<size_t>(m) * n);
        kernels::gemm(m, n, k, a.data(), k, b.data(), n, o1.data(), n);
        kernels::gemm(m, n, k, a.data(), k, b.data(), n, o2.data(), n);
        for (size_t i = 0; i < o1.size(); ++i)
            ASSERT_EQ(o1[i], o2[i])
                << kernels::kernel_arch_name(arch) << " index " << i;
    }
}

/** Accumulate mode adds the product on top of the existing C. */
TEST_P(GemmParityTest, AccumulateAddsOnTop)
{
    ArchGuard guard;
    const auto [m, k, n] = GetParam();
    Rng rng(45);
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);
    const auto base = random_vec(static_cast<size_t>(m) * n, rng);

    for (KernelArch arch : {KernelArch::Scalar, kernels::best_kernel_arch()}) {
        kernels::set_kernel_arch(arch);
        std::vector<float> fresh(static_cast<size_t>(m) * n);
        kernels::gemm(m, n, k, a.data(), k, b.data(), n, fresh.data(), n);
        std::vector<float> acc = base;
        kernels::gemm(m, n, k, a.data(), k, b.data(), n, acc.data(), n,
                      /*accumulate=*/true);
        for (size_t i = 0; i < acc.size(); ++i)
            EXPECT_NEAR(acc[i], base[i] + fresh[i], 2e-5)
                << kernels::kernel_arch_name(arch) << " index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParityTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{2, 3, 5},
                      GemmShape{4, 16, 16}, GemmShape{5, 7, 9},
                      GemmShape{8, 32, 17}, GemmShape{16, 64, 33},
                      GemmShape{3, 128, 40}, GemmShape{13, 21, 121},
                      GemmShape{32, 48, 64}));

/** Elementwise kernels are bit-identical across every variant. */
TEST(ElementwiseParity, BitIdenticalAcrossVariants)
{
    if (!has_simd())
        GTEST_SKIP() << "no SIMD variant on this CPU";
    ArchGuard guard;
    Rng rng(46);
    const size_t n = 1003;  // Odd size: exercises the vector tails.
    const auto x = random_vec(n, rng);
    const auto y0 = random_vec(n, rng);
    const auto anchor = random_vec(n, rng);

    auto run_all = [&](KernelArch arch) {
        kernels::set_kernel_arch(arch);
        std::vector<float> y = y0, v(n, 0.1f), w = y0;
        std::vector<uint8_t> mask(n);
        std::vector<double> acc(n, 0.25);
        kernels::axpy(n, 0.37f, x.data(), y.data());
        kernels::scale(n, -1.21f, y.data());
        kernels::vadd(n, x.data(), y.data());
        kernels::vsub(n, y0.data(), y.data());
        kernels::add_bias_rows(17, 59, x.data(), y.data());
        kernels::accumulate_rows(17, 59, x.data(), y.data());
        kernels::relu_forward(n, y.data(), mask.data());
        kernels::relu_backward(n, mask.data(), y.data());
        kernels::sgd_step(n, w.data(), x.data(), v.data(), 0.05f, 1e-4f,
                          0.9f);
        kernels::sgd_step_prox(n, w.data(), x.data(), v.data(),
                               anchor.data(), 0.05f, 1e-4f, 0.9f, 0.01f);
        kernels::axpy_f64(n, 0.125, x.data(), acc.data());
        kernels::diff_axpy_f64(n, 0.5, w.data(), x.data(), acc.data());
        std::vector<float> cast(n);
        kernels::cast_f64_to_f32(n, acc.data(), cast.data());
        kernels::apply_step_f64(n, w.data(), 0.75, acc.data());
        return std::tuple{y, w, v, mask, acc, cast};
    };

    const auto scalar = run_all(KernelArch::Scalar);
    const auto simd = run_all(kernels::best_kernel_arch());
    EXPECT_EQ(std::get<0>(scalar), std::get<0>(simd));
    EXPECT_EQ(std::get<1>(scalar), std::get<1>(simd));
    EXPECT_EQ(std::get<2>(scalar), std::get<2>(simd));
    EXPECT_EQ(std::get<3>(scalar), std::get<3>(simd));
    EXPECT_EQ(std::get<4>(scalar), std::get<4>(simd));
    EXPECT_EQ(std::get<5>(scalar), std::get<5>(simd));
}

/** fedavg / fednova combine bits cannot depend on the variant. */
TEST(AggregationParity, FedAvgAndFedNovaBitIdentical)
{
    if (!has_simd())
        GTEST_SKIP() << "no SIMD variant on this CPU";
    ArchGuard guard;
    Rng rng(47);
    const size_t dim = 517;
    std::vector<LocalUpdate> updates(3);
    for (size_t j = 0; j < updates.size(); ++j) {
        updates[j].weights = random_vec(dim, rng);
        updates[j].num_samples = static_cast<int>(10 + 5 * j);
        updates[j].num_steps = static_cast<int>(1 + j);
    }

    kernels::set_kernel_arch(KernelArch::Scalar);
    double lambda_s = 0.0;
    const auto avg_s = fedavg_combine(updates, nullptr, &lambda_s);
    auto nova_s = random_vec(dim, rng);
    const auto nova_seed = nova_s;
    fednova_apply(nova_s, updates, nullptr);

    kernels::set_kernel_arch(kernels::best_kernel_arch());
    double lambda_v = 0.0;
    const auto avg_v = fedavg_combine(updates, nullptr, &lambda_v);
    auto nova_v = nova_seed;
    fednova_apply(nova_v, updates, nullptr);

    EXPECT_EQ(avg_s, avg_v);
    EXPECT_EQ(nova_s, nova_v);
    EXPECT_EQ(lambda_s, lambda_v);
}

struct ConvShape
{
    int batch, in_ch, out_ch, side, kernel, stride, pad, groups;
};

class ConvParityTest : public ::testing::TestWithParam<ConvShape>
{
};

/** Conv forward/backward agree across variants within tolerance. */
TEST_P(ConvParityTest, ForwardBackwardParity)
{
    ArchGuard guard;
    const auto c = GetParam();

    auto run = [&](KernelArch arch) {
        kernels::set_kernel_arch(arch);
        Conv2D layer(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad,
                     c.groups);
        Rng rng(48);
        layer.init_weights(rng);
        Tensor x({c.batch, c.in_ch, c.side, c.side});
        for (size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.uniform(-1, 1));
        Tensor y = layer.forward(x);
        layer.zero_grad();
        Tensor dy = y;  // Arbitrary smooth upstream gradient.
        Tensor dx = layer.backward(dy);
        std::vector<float> flat(y.vec().begin(), y.vec().end());
        flat.insert(flat.end(), dx.vec().begin(), dx.vec().end());
        for (Tensor *g : layer.grads())
            flat.insert(flat.end(), g->vec().begin(), g->vec().end());
        return flat;
    };

    const auto scalar = run(KernelArch::Scalar);
    const auto simd = run(kernels::best_kernel_arch());
    expect_rel_close(scalar, simd, 1e-4, "conv");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParityTest,
    ::testing::Values(ConvShape{2, 3, 4, 9, 3, 1, 1, 1},
                      ConvShape{1, 4, 8, 8, 1, 1, 0, 1},   // pointwise
                      ConvShape{2, 4, 4, 7, 3, 1, 1, 4},   // depthwise
                      ConvShape{1, 6, 6, 10, 3, 2, 1, 2},  // strided group
                      ConvShape{3, 1, 2, 12, 5, 2, 2, 1}));

struct DepthwiseShape
{
    int batch, channels, side, kernel, stride, pad;
};

/** Everything a depthwise conv computes, flattened per output. */
struct DepthwiseOutputs
{
    std::vector<float> y, dx, dw, db, inferred;
};

/**
 * The im2col + GEMM depthwise conv, per (sample, channel): bias fill
 * then gemm(1, ospatial, k*k) forward; db sums, gemm_nt dW, gemm_tn
 * dcol and col2im_add dx backward. Run on the scalar arch it is the
 * bit-exact baseline of the direct path.
 */
DepthwiseOutputs
depthwise_reference(const DepthwiseShape &c, const Tensor &w,
                    const Tensor &b, const Tensor &x, const Tensor &dy)
{
    const int k = c.kernel, taps = k * k, side = c.side;
    const int os = kernels::conv_out_size(side, k, c.stride, c.pad);
    const int ospatial = os * os, plane = side * side;
    std::vector<float> col(static_cast<size_t>(taps) * ospatial);
    std::vector<float> dcol(col.size());
    DepthwiseOutputs r;
    r.y.resize(static_cast<size_t>(c.batch) * c.channels * ospatial);
    r.dx.assign(x.size(), 0.0f);
    r.dw.assign(w.size(), 0.0f);
    r.db.assign(b.size(), 0.0f);
    for (int n = 0; n < c.batch; ++n) {
        for (int ch = 0; ch < c.channels; ++ch) {
            const size_t nc = static_cast<size_t>(n) * c.channels + ch;
            const float *wc = w.data() + static_cast<size_t>(ch) * taps;
            const float *dyc = dy.data() + nc * ospatial;
            float *yc = r.y.data() + nc * ospatial;
            kernels::im2col(x.data() + nc * plane, 1, side, side, k,
                            c.stride, c.pad, col.data());
            for (int i = 0; i < ospatial; ++i)
                yc[i] = b[static_cast<size_t>(ch)];
            kernels::gemm(1, ospatial, taps, wc, taps, col.data(), ospatial,
                          yc, ospatial, /*accumulate=*/true);
            for (int i = 0; i < ospatial; ++i)
                r.db[static_cast<size_t>(ch)] += dyc[i];
            kernels::gemm_nt(1, taps, ospatial, dyc, ospatial, col.data(),
                             ospatial, r.dw.data() + ch * taps, taps,
                             /*accumulate=*/true);
            kernels::gemm_tn(taps, ospatial, 1, wc, taps, dyc, ospatial,
                             dcol.data(), ospatial);
            kernels::col2im_add(dcol.data(), 1, side, side, k, c.stride,
                                c.pad, r.dx.data() + nc * plane);
        }
    }
    r.inferred = r.y;
    return r;
}

class DepthwiseConvTest : public ::testing::TestWithParam<DepthwiseShape>
{
};

/**
 * The direct depthwise path gives y, dx, dW, db and infer() bit for bit
 * equal to the scalar im2col + GEMM reference, on every variant.
 */
TEST_P(DepthwiseConvTest, DirectPathMatchesScalarGemmBitwise)
{
    ArchGuard guard;
    const auto c = GetParam();
    Conv2D layer(c.channels, c.channels, c.kernel, c.stride, c.pad,
                 c.channels);
    Rng rng(53);
    layer.init_weights(rng);
    Tensor &w = *layer.params()[0];
    Tensor &b = *layer.params()[1];
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<float>(rng.uniform(-1, 1));
    w[1] = 0.0f;  // The zero-weight tap skip is part of the order.
    Tensor x({c.batch, c.channels, c.side, c.side});
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1, 1));
    const int os = kernels::conv_out_size(c.side, c.kernel, c.stride, c.pad);
    Tensor dy({c.batch, c.channels, os, os});
    for (size_t i = 0; i < dy.size(); ++i)
        dy[i] = static_cast<float>(rng.uniform(-1, 1));

    auto run = [&](KernelArch arch) {
        kernels::set_kernel_arch(arch);
        DepthwiseOutputs r;
        const Tensor y = layer.forward(x);
        layer.zero_grad();
        const Tensor dx = layer.backward(dy);
        r.y.assign(y.vec().begin(), y.vec().end());
        r.dx.assign(dx.vec().begin(), dx.vec().end());
        r.dw.assign(layer.grads()[0]->vec().begin(),
                    layer.grads()[0]->vec().end());
        r.db.assign(layer.grads()[1]->vec().begin(),
                    layer.grads()[1]->vec().end());
        const Tensor inferred = layer.infer(x);
        r.inferred.assign(inferred.vec().begin(), inferred.vec().end());
        return r;
    };

    kernels::set_kernel_arch(KernelArch::Scalar);
    const DepthwiseOutputs ref = depthwise_reference(c, w, b, x, dy);
    for (KernelArch arch : kernels::supported_kernel_archs()) {
        const DepthwiseOutputs got = run(arch);
        const char *name = kernels::kernel_arch_name(arch);
        EXPECT_EQ(got.y, ref.y) << name;
        EXPECT_EQ(got.dx, ref.dx) << name;
        EXPECT_EQ(got.dw, ref.dw) << name;
        EXPECT_EQ(got.db, ref.db) << name;
        EXPECT_EQ(got.inferred, ref.inferred) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DepthwiseConvTest,
    ::testing::Values(DepthwiseShape{1, 8, 12, 3, 1, 1},
                      DepthwiseShape{16, 8, 12, 3, 1, 1},
                      DepthwiseShape{1, 16, 6, 3, 1, 1},
                      DepthwiseShape{16, 16, 6, 3, 1, 1},
                      DepthwiseShape{1, 32, 3, 3, 1, 1},
                      DepthwiseShape{16, 32, 3, 3, 1, 1},
                      DepthwiseShape{2, 4, 9, 5, 1, 2},    // k5 p2
                      DepthwiseShape{2, 4, 9, 3, 2, 1},    // s2
                      DepthwiseShape{2, 3, 10, 5, 2, 2},   // k5 p2 s2
                      DepthwiseShape{1, 2, 8, 3, 2, 0}));  // s2, no pad

#if defined(__x86_64__)
/**
 * Whether XGETBV with ECX = 1 (the XINUSE state-component bitmap) is
 * available: CPUID.(0Dh,1):EAX[2] on an OS that enabled XSAVE.
 */
bool
has_xinuse()
{
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d) || (c & bit_OSXSAVE) == 0 ||
        __get_cpuid_max(0, nullptr) < 0xD)
        return false;
    __cpuid_count(0xD, 1, a, b, c, d);
    return (a & (1u << 2)) != 0;
}

/** XINUSE bits 2 (AVX upper halves) and 6 (ZMM_Hi256). */
uint64_t
dirty_upper_state()
{
    uint32_t lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
    return ((static_cast<uint64_t>(hi) << 32) | lo) & 0x44;
}

/**
 * Every kernel returns with clean upper vector state. A kernel that
 * leaves it dirty makes the caller's later SSE code pay a
 * state-transition penalty (several times slower) until something
 * clears it.
 */
TEST(UpperState, EveryKernelReturnsClean)
{
    if (!has_xinuse())
        GTEST_SKIP() << "XGETBV with ECX=1 not available";
    ArchGuard guard;
    const bool avx = kernels::kernel_arch_supported(KernelArch::Avx2);
    Rng rng(54);
    const size_t cap = 64 * 64;
    const auto a = random_vec(cap, rng);
    const auto b = random_vec(cap, rng);
    std::vector<float> y(cap), v(cap), c(cap), dz(cap), dc(cap);
    std::vector<double> acc(cap, 0.5);
    std::vector<uint8_t> mask(cap);
    std::vector<int8_t> q(cap);
    std::vector<uint16_t> h(cap);

    auto probe = [&](KernelArch arch, const char *name, int n, auto &&fn) {
        if (avx)
            __asm__ volatile("vzeroupper");
        fn();
        const uint64_t dirty = dirty_upper_state();
        EXPECT_EQ(dirty, 0u) << name << " n=" << n << " on "
                             << kernels::kernel_arch_name(arch);
    };

    for (KernelArch arch : kernels::supported_kernel_archs()) {
        kernels::set_kernel_arch(arch);
        for (int n : {0, 1, 3, 4, 5, 17, 64}) {
            const size_t sn = static_cast<size_t>(n);
            const float *pa = a.data(), *pb = b.data();
            float *py = y.data();
            probe(arch, "gemm", n, [&] {
                kernels::gemm(n, n, n, pa, n, pb, n, py, n);
            });
            probe(arch, "gemm_tn", n, [&] {
                kernels::gemm_tn(n, n, n, pa, n, pb, n, py, n, true);
            });
            probe(arch, "gemm_nt", n, [&] {
                kernels::gemm_nt(n, n, n, pa, n, pb, n, py, n, true);
            });
            probe(arch, "axpy", n,
                  [&] { kernels::axpy(sn, 0.5f, pa, py); });
            probe(arch, "scale", n, [&] { kernels::scale(sn, 0.5f, py); });
            probe(arch, "vadd", n, [&] { kernels::vadd(sn, pa, py); });
            probe(arch, "vsub", n, [&] { kernels::vsub(sn, pa, py); });
            probe(arch, "add_bias_rows", n,
                  [&] { kernels::add_bias_rows(3, n, pa, py); });
            probe(arch, "accumulate_rows", n,
                  [&] { kernels::accumulate_rows(3, n, pa, py); });
            probe(arch, "relu_forward", n,
                  [&] { kernels::relu_forward(sn, py, mask.data()); });
            probe(arch, "relu_backward", n,
                  [&] { kernels::relu_backward(sn, mask.data(), py); });
            probe(arch, "sgd_step", n, [&] {
                kernels::sgd_step(sn, py, pa, v.data(), 0.1f, 1e-4f, 0.9f);
            });
            probe(arch, "sgd_step_prox", n, [&] {
                kernels::sgd_step_prox(sn, py, pa, v.data(), pb, 0.1f,
                                       1e-4f, 0.9f, 0.01f);
            });
            probe(arch, "absmax", n, [&] { kernels::absmax(sn, pa); });
            probe(arch, "quantize_i8", n, [&] {
                kernels::quantize_i8(sn, pa, 100.0f, q.data());
            });
            probe(arch, "dequantize_i8", n, [&] {
                kernels::dequantize_i8(sn, q.data(), 0.01f, py);
            });
            probe(arch, "fp16_encode", n,
                  [&] { kernels::fp16_encode(sn, pa, h.data()); });
            probe(arch, "fp16_decode", n,
                  [&] { kernels::fp16_decode(sn, h.data(), py); });
            probe(arch, "axpy_f64", n,
                  [&] { kernels::axpy_f64(sn, 0.5, pa, acc.data()); });
            probe(arch, "diff_axpy_f64", n, [&] {
                kernels::diff_axpy_f64(sn, 0.5, pa, pb, acc.data());
            });
            probe(arch, "cast_f64_to_f32", n,
                  [&] { kernels::cast_f64_to_f32(sn, acc.data(), py); });
            probe(arch, "apply_step_f64", n, [&] {
                kernels::apply_step_f64(sn, py, 0.5, acc.data());
            });
            // One sample, hidden = n: z is {1, 4n}.
            std::vector<float> z(a.begin(), a.begin() + 4 * sn + 1);
            probe(arch, "lstm_gate_forward", n, [&] {
                kernels::lstm_gate_forward(1, n, z.data(), pb, c.data(),
                                           py, n);
            });
            probe(arch, "lstm_gate_infer", n, [&] {
                kernels::lstm_gate_infer(1, n, z.data(), pb, c.data(), py,
                                         n);
            });
            probe(arch, "lstm_gate_backward", n, [&] {
                kernels::lstm_gate_backward(1, n, z.data(), pb, c.data(),
                                            pa, pb, dz.data(), dc.data());
            });
        }

        // The packed-panel driver and its prepacked operands.
        const kernels::GemmPath saved =
            kernels::set_gemm_path(kernels::GemmPath::Packed);
        const int m = 64;
        probe(arch, "gemm (packed)", m, [&] {
            kernels::gemm(m, m, m, a.data(), m, b.data(), m, y.data(), m);
        });
        const auto pa = kernels::pack_gemm_a(m, m, a.data(), m);
        probe(arch, "gemm_packed_a", m, [&] {
            kernels::gemm_packed_a(pa, m, b.data(), m, y.data(), m);
        });
        const auto pb = kernels::pack_gemm_b(m, m, b.data(), m);
        probe(arch, "gemm_packed_b", m, [&] {
            kernels::gemm_packed_b(m, a.data(), m, pb, y.data(), m);
        });
        kernels::set_gemm_path(saved);
    }
}
#endif

/** LSTM forward/backward agree across variants within tolerance. */
TEST(LstmParity, ForwardBackwardParity)
{
    ArchGuard guard;

    auto run = [&](KernelArch arch, bool seq) {
        kernels::set_kernel_arch(arch);
        Lstm layer(5, 7, seq);
        Rng rng(49);
        layer.init_weights(rng);
        Tensor x({4, 3, 5});
        for (size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.uniform(-1, 1));
        Tensor y = layer.forward(x);
        layer.zero_grad();
        Tensor dx = layer.backward(y);
        std::vector<float> flat(y.vec().begin(), y.vec().end());
        flat.insert(flat.end(), dx.vec().begin(), dx.vec().end());
        for (Tensor *g : layer.grads())
            flat.insert(flat.end(), g->vec().begin(), g->vec().end());
        return flat;
    };

    for (bool seq : {false, true}) {
        const auto scalar = run(KernelArch::Scalar, seq);
        const auto simd = run(kernels::best_kernel_arch(), seq);
        expect_rel_close(scalar, simd, 1e-4,
                         seq ? "lstm-seq" : "lstm-last");
    }
}

/** im2col of a 1x1/s1/p0 conv is the identity; col2im inverts it. */
TEST(Im2Col, PointwiseIdentityAndRoundTrip)
{
    Rng rng(50);
    const int ch = 3, ih = 5, iw = 4;
    const auto x = random_vec(static_cast<size_t>(ch) * ih * iw, rng);
    std::vector<float> col(x.size(), 0.0f);
    kernels::im2col(x.data(), ch, ih, iw, 1, 1, 0, col.data());
    EXPECT_EQ(std::vector<float>(col.begin(), col.end()), x);

    // col2im_add of an im2col'ed buffer counts each input tap once per
    // kernel window covering it; for k=1 that is exactly once.
    std::vector<float> back(x.size(), 0.0f);
    kernels::col2im_add(col.data(), ch, ih, iw, 1, 1, 0, back.data());
    EXPECT_EQ(back, x);
}

/** Padded taps in the column buffer are exact zeros. */
TEST(Im2Col, PaddingIsZero)
{
    Rng rng(51);
    const int ch = 1, ih = 3, iw = 3, k = 3, pad = 1;
    std::vector<float> x(9);
    for (auto &v : x)
        v = 1.0f + static_cast<float>(rng.uniform(0, 1));
    std::vector<float> col(static_cast<size_t>(k) * k * 9, -1.0f);
    kernels::im2col(x.data(), ch, ih, iw, k, 1, pad, col.data());
    // Top-left output pixel, top-left kernel tap reads x[-1,-1]: zero.
    EXPECT_EQ(col[0], 0.0f);
    // Center tap (ky=1, kx=1) at output (0,0) is x[0,0]: no padding.
    EXPECT_EQ(col[(1 * 3 + 1) * 9 + 0], x[0]);
}

/** The env override is visible through the arch API. */
TEST(ArchSelection, SetArchClampsAndReports)
{
    ArchGuard guard;
    EXPECT_EQ(kernels::set_kernel_arch(KernelArch::Scalar),
              KernelArch::Scalar);
    EXPECT_EQ(kernels::current_kernel_arch(), KernelArch::Scalar);
    // A supported request installs exactly that variant; an unsupported
    // one clamps to the widest the box can run — never a crash.
    for (KernelArch arch : {KernelArch::Neon, KernelArch::Avx2,
                            KernelArch::Avx512}) {
        const KernelArch got = kernels::set_kernel_arch(arch);
        if (kernels::kernel_arch_supported(arch))
            EXPECT_EQ(got, arch) << kernels::kernel_arch_name(arch);
        else
            EXPECT_EQ(got, kernels::best_kernel_arch())
                << kernels::kernel_arch_name(arch);
        EXPECT_EQ(kernels::current_kernel_arch(), got);
    }
}

/**
 * AUTOFL_KERNEL_ARCH resolution never crashes: unknown names, empty
 * and null requests, and ISA requests the box cannot honor (e.g.
 * "avx512" on a non-AVX-512 host, "neon" on x86) all fall back to the
 * best supported variant.
 */
TEST(ArchSelection, EnvResolutionFallsBackToBest)
{
    const KernelArch best = kernels::best_kernel_arch();
    EXPECT_EQ(kernels::resolve_kernel_arch_request(nullptr), best);
    EXPECT_EQ(kernels::resolve_kernel_arch_request(""), best);
    EXPECT_EQ(kernels::resolve_kernel_arch_request("auto"), best);
    EXPECT_EQ(kernels::resolve_kernel_arch_request("best"), best);
    EXPECT_EQ(kernels::resolve_kernel_arch_request("sse9000"), best);
    EXPECT_EQ(kernels::resolve_kernel_arch_request("AVX2 "), best);
    for (KernelArch arch : {KernelArch::Scalar, KernelArch::Neon,
                            KernelArch::Avx2, KernelArch::Avx512}) {
        const KernelArch got = kernels::resolve_kernel_arch_request(
            kernels::kernel_arch_name(arch));
        if (kernels::kernel_arch_supported(arch))
            EXPECT_EQ(got, arch) << kernels::kernel_arch_name(arch);
        else
            EXPECT_EQ(got, best) << kernels::kernel_arch_name(arch);
    }
}

/** Every advertised variant actually installs and computes. */
TEST(ArchSelection, SupportedArchsAllRun)
{
    ArchGuard guard;
    const auto archs = kernels::supported_kernel_archs();
    ASSERT_FALSE(archs.empty());
    EXPECT_EQ(archs.front(), KernelArch::Scalar);
    EXPECT_EQ(archs.back(), kernels::best_kernel_arch());
    for (KernelArch arch : archs) {
        ASSERT_EQ(kernels::set_kernel_arch(arch), arch);
        const float a = 2.0f, b = 3.0f;
        float out = -1.0f;
        kernels::gemm(1, 1, 1, &a, 1, &b, 1, &out, 1);
        EXPECT_EQ(out, 6.0f) << kernels::kernel_arch_name(arch);
    }
}

/**
 * Each kernel family honors the parity tier its table declares:
 * `exact` families must match the scalar baseline bit-for-bit, and
 * `tolerance` families within 1e-4 relative — for EVERY variant the box
 * can run, not just the widest.
 */
TEST(ParityTier, FamiliesHonorDeclaredTier)
{
    ArchGuard guard;
    Rng rng(52);
    const int m = 17, k = 67, n = 33;
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);
    const size_t vn = 515;
    const auto x = random_vec(vn, rng);
    const int batch = 5, hidden = 19;
    const auto z0 = random_vec(static_cast<size_t>(batch) * 4 * hidden, rng);
    const auto cp = random_vec(static_cast<size_t>(batch) * hidden, rng);

    kernels::set_kernel_arch(KernelArch::Scalar);
    std::vector<float> gemm_ref(static_cast<size_t>(m) * n);
    kernels::gemm(m, n, k, a.data(), k, b.data(), n, gemm_ref.data(), n);
    std::vector<float> axpy_ref = x;
    kernels::axpy(vn, 0.37f, x.data(), axpy_ref.data());
    const float amax_ref = kernels::absmax(vn, x.data());
    std::vector<int8_t> q_ref(vn);
    kernels::quantize_i8(vn, x.data(), 127.0f / amax_ref, q_ref.data());
    std::vector<float> z_ref = z0;
    std::vector<float> c_ref(static_cast<size_t>(batch) * hidden);
    std::vector<float> h_ref(c_ref.size());
    kernels::lstm_gate_forward(batch, hidden, z_ref.data(), cp.data(),
                               c_ref.data(), h_ref.data(), hidden);

    for (KernelArch arch : kernels::supported_kernel_archs()) {
        kernels::set_kernel_arch(arch);
        const kernels::KernelParity &tier = kernels::kernel_parity(arch);
        const char *name = kernels::kernel_arch_name(arch);

        std::vector<float> gemm_v(gemm_ref.size());
        kernels::gemm(m, n, k, a.data(), k, b.data(), n, gemm_v.data(), n);
        if (tier.gemm == kernels::ParityTier::Exact)
            EXPECT_EQ(gemm_ref, gemm_v) << name;
        else
            expect_rel_close(gemm_ref, gemm_v, 1e-4, name);

        // The elementwise and codec families are Exact on every table
        // shipped today; a future Tolerance-tier table would relax the
        // assertion here rather than silently failing.
        std::vector<float> axpy_v = x;
        kernels::axpy(vn, 0.37f, x.data(), axpy_v.data());
        std::vector<int8_t> q_v(vn);
        kernels::quantize_i8(vn, x.data(), 127.0f / amax_ref, q_v.data());
        ASSERT_EQ(tier.elementwise, kernels::ParityTier::Exact) << name;
        ASSERT_EQ(tier.codec, kernels::ParityTier::Exact) << name;
        EXPECT_EQ(axpy_ref, axpy_v) << name;
        EXPECT_EQ(amax_ref, kernels::absmax(vn, x.data())) << name;
        EXPECT_EQ(q_ref, q_v) << name;

        std::vector<float> z_v = z0, c_v(c_ref.size()), h_v(h_ref.size());
        kernels::lstm_gate_forward(batch, hidden, z_v.data(), cp.data(),
                                   c_v.data(), h_v.data(), hidden);
        if (tier.transcendental == kernels::ParityTier::Exact) {
            EXPECT_EQ(z_ref, z_v) << name;
            EXPECT_EQ(h_ref, h_v) << name;
        } else {
            expect_rel_close(z_ref, z_v, 1e-4, name);
            expect_rel_close(h_ref, h_v, 1e-4, name);
        }
    }
}

/**
 * Force the packed-panel driver across ragged shapes straddling the
 * 6x16 and 8x32 register tiles (MR-1/MR/MR+1 and the NR edges, plus a
 * large-prime K that never divides the kc blocks) and check it against
 * the scalar reference in both accumulate modes, for all three operand
 * layouts.
 */
TEST(PackedGemmPath, RaggedShapesMatchScalar)
{
    if (!has_simd())
        GTEST_SKIP() << "no SIMD variant on this CPU";
    ArchGuard guard;
    const kernels::GemmPath saved =
        kernels::set_gemm_path(kernels::GemmPath::Packed);
    const int ms[] = {1, 5, 6, 7, 8, 9, 33};
    const int ns[] = {1, 15, 16, 17, 31, 32, 33};
    const int ks[] = {1, 48, 509};
    Rng rng(53);
    for (int m : ms) {
        for (int n : ns) {
            for (int k : ks) {
                const auto a = random_vec(static_cast<size_t>(m) * k, rng);
                const auto at = random_vec(static_cast<size_t>(k) * m, rng);
                const auto b = random_vec(static_cast<size_t>(k) * n, rng);
                const auto bt = random_vec(static_cast<size_t>(n) * k, rng);
                const auto base = random_vec(static_cast<size_t>(m) * n,
                                             rng);
                for (bool acc : {false, true}) {
                    auto run = [&](KernelArch arch) {
                        kernels::set_kernel_arch(arch);
                        std::vector<float> nn = base, tn = base, nt = base;
                        kernels::gemm(m, n, k, a.data(), k, b.data(), n,
                                      nn.data(), n, acc);
                        kernels::gemm_tn(m, n, k, at.data(), m, b.data(), n,
                                         tn.data(), n, acc);
                        kernels::gemm_nt(m, n, k, a.data(), k, bt.data(), k,
                                         nt.data(), n, acc);
                        nn.insert(nn.end(), tn.begin(), tn.end());
                        nn.insert(nn.end(), nt.begin(), nt.end());
                        return nn;
                    };
                    const auto s = run(KernelArch::Scalar);
                    const auto v = run(kernels::best_kernel_arch());
                    expect_rel_close(s, v, 1e-4, "packed gemm");
                    if (::testing::Test::HasFailure())
                        FAIL() << "shape m=" << m << " n=" << n
                               << " k=" << k << " acc=" << acc;
                }
            }
        }
    }
    kernels::set_gemm_path(saved);
}

/**
 * Prepacked operand handles reproduce the dispatcher: bit-identically
 * where the handle degraded to a contiguous copy (scalar arch), within
 * the gemm tolerance tier where it panel-packed — including the
 * transposed gathers that serve the gemm_tn / gemm_nt call sites.
 */
TEST(PackedGemmPath, PrepackedOperandsMatchGemm)
{
    ArchGuard guard;
    Rng rng(54);
    const int m = 37, k = 129, n = 53;
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto at = random_vec(static_cast<size_t>(k) * m, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);
    const auto bt = random_vec(static_cast<size_t>(n) * k, rng);
    const auto base = random_vec(static_cast<size_t>(m) * n, rng);

    for (KernelArch arch : kernels::supported_kernel_archs()) {
        kernels::set_kernel_arch(arch);
        const char *name = kernels::kernel_arch_name(arch);
        auto check = [&](const std::vector<float> &ref,
                         const std::vector<float> &got, bool packed) {
            if (packed)
                expect_rel_close(ref, got, 1e-4, name);
            else
                EXPECT_EQ(ref, got) << name;
        };

        for (bool acc : {false, true}) {
            std::vector<float> ref = base, got = base;

            const auto pa = kernels::pack_gemm_a(m, k, a.data(), k);
            EXPECT_EQ(pa.rows(), m);
            EXPECT_EQ(pa.cols(), k);
            EXPECT_EQ(pa.packed(), arch != KernelArch::Scalar);
            kernels::gemm(m, n, k, a.data(), k, b.data(), n, ref.data(), n,
                          acc);
            kernels::gemm_packed_a(pa, n, b.data(), n, got.data(), n, acc);
            check(ref, got, pa.packed());

            const auto pat =
                kernels::pack_gemm_a(m, k, at.data(), m, true);
            ref = base;
            got = base;
            kernels::gemm_tn(m, n, k, at.data(), m, b.data(), n, ref.data(),
                             n, acc);
            kernels::gemm_packed_a(pat, n, b.data(), n, got.data(), n, acc);
            check(ref, got, pat.packed());

            const auto pb = kernels::pack_gemm_b(k, n, b.data(), n);
            EXPECT_EQ(pb.rows(), k);
            EXPECT_EQ(pb.cols(), n);
            ref = base;
            got = base;
            kernels::gemm(m, n, k, a.data(), k, b.data(), n, ref.data(), n,
                          acc);
            kernels::gemm_packed_b(m, a.data(), k, pb, got.data(), n, acc);
            check(ref, got, pb.packed());

            const auto pbt =
                kernels::pack_gemm_b(k, n, bt.data(), k, true);
            ref = base;
            got = base;
            kernels::gemm_nt(m, n, k, a.data(), k, bt.data(), k, ref.data(),
                             n, acc);
            kernels::gemm_packed_b(m, a.data(), k, pbt, got.data(), n, acc);
            // The transposed scalar copy-fallback reduces in the same
            // ascending-k order but accumulates separately, so it is
            // tolerance-class like the packed layouts.
            if (arch == KernelArch::Scalar)
                expect_rel_close(ref, got, 1e-5, name);
            else
                check(ref, got, pbt.packed());
        }
    }
}

} // namespace
} // namespace autofl
