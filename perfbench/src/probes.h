/**
 * @file
 * Per-layer probes of traced runs: direct, timed calls into one layer
 * at the shapes and sizes the workload's model uses, run after the
 * measured episodes so they never perturb the end-to-end numbers.
 * Every workload runs the same probes on its own model and job, so
 * every workload reports every per-layer metric.
 */
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <string>

#include "bench.h"
#include "fl/system.h"
#include "harness/experiment.h"

namespace perfbench {

/** The FlSystemConfig run_experiment builds for @p cfg. */
autofl::FlSystemConfig system_config(const autofl::ExperimentConfig &cfg);

/**
 * Knobs every training job of the benchmark shares: AutoFL, setting
 * S3, @p rounds rounds with an unreachable target, pools sized to
 * nproc.
 */
autofl::ExperimentConfig base_config(autofl::Workload w, int rounds);

/** How many of a model's GEMM shapes the probes time. */
constexpr size_t kGemmShapes = 3;

/**
 * Run every per-layer probe on @p cfg's model and job (seeded by
 * cfg.seed), using @p dir as scratch space:
 *
 * - kernels.gemm_gflops.rank<i>: the kGemmShapes GEMMs carrying the
 *   most FLOPs in a training forward pass, each through the kernel
 *   entry its layer calls (the shapes go to the run record's notes);
 * - nn.fwd_us / nn.bwd_us: one batch through the whole model (per
 *   layer kind in the run record only);
 * - data.synth_s, nn.local_train_ms, fl.eval_ms_p50;
 * - core.select_us_p50/p99, core.observe_us_p50, sim.round_us_p50;
 * - ps.codec_{encode,decode}_mb_s.int8, net.rtt_us_weights,
 *   store.snapshot_write_ms, store.mmap_open_ms at model size;
 * - serve.infer_us.b{1,16,32}: direct InferenceEngine forward.
 */
void run_probes(const autofl::ExperimentConfig &cfg, const std::string &dir,
                Result &out);

/**
 * core.select_us_p50/p99, core.observe_us_p50 and sim.round_us_p50:
 * the AutoFL scheduling loop of @p cfg's job (select, begin_round +
 * simulate_round, observe_outcome) run on its own, without training.
 */
void probe_policy(const autofl::ExperimentConfig &cfg, Result &out);

/**
 * Whether served logits match a direct InferenceEngine call on the same
 * snapshot, within the GEMM parity tier of the running kernel variant
 * (bit-equal for an exact tier, 1e-4 relative otherwise).
 */
bool logits_match(const autofl::Tensor &served, const autofl::Tensor &direct,
                  std::string *why);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
