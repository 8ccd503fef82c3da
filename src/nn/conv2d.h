/**
 * @file
 * 2-D convolution with stride, zero padding and channel groups,
 * computed as im2col + GEMM through the kernel-dispatch backend.
 *
 * Groups support both regular convolution (groups = 1) and the depthwise
 * convolutions used by the MobileNet-style model (groups = in_channels).
 * Per (sample, group) the forward pass unfolds the input into a column
 * buffer and runs one GEMM against the {out_ch/g, in_ch/g * k * k}
 * weight view (bias pre-filled, GEMM accumulating on top — the same
 * reduction order as the original direct loops). 1x1/stride-1/no-pad
 * convolutions skip the unfold and multiply the input directly.
 * Backward recomputes the column buffer (cheaper than caching the k^2x
 * blow-up) for dW and folds the W^T dy product back with col2im.
 *
 * Depthwise convolutions (one input and one output channel per group)
 * skip im2col and GEMM: each channel's input is copied into a
 * zero-padded plane and every tap is one axpy over it (see
 * convolve_depthwise()). Per output element that is the same ascending
 * reduction the scalar GEMM path runs, and it is exact-tier, so the
 * results are the same bits on every kernel variant.
 */
#ifndef AUTOFL_NN_CONV2D_H
#define AUTOFL_NN_CONV2D_H

#include "kernels/kernels.h"
#include "nn/layer.h"

namespace autofl {

/** Grouped 2-D convolution over {batch, channels, h, w} tensors. */
class Conv2D : public Layer
{
  public:
    /**
     * @param in_ch Input channels.
     * @param out_ch Output channels (must be divisible by @p groups).
     * @param kernel Square kernel size.
     * @param stride Stride in both dimensions.
     * @param pad Zero padding in both dimensions.
     * @param groups Channel groups; in_ch and out_ch must divide evenly.
     */
    Conv2D(int in_ch, int out_ch, int kernel, int stride = 1, int pad = 0,
           int groups = 1);

    Tensor forward(Tensor x) override;
    Tensor infer(Tensor x) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Tensor *> params() override { return {&w_, &b_}; }
    std::vector<Tensor *> grads() override { return {&dw_, &db_}; }
    void init_weights(Rng &rng) override;
    std::vector<int> output_shape(const std::vector<int> &in) const override;
    double flops_per_sample(const std::vector<int> &in) const override;
    LayerKind kind() const override { return LayerKind::Conv; }
    std::string name() const override;

  private:
    int in_ch_, out_ch_, k_, stride_, pad_, groups_;
    Tensor w_;  ///< {out_ch, in_ch/groups, k, k}
    Tensor b_;  ///< {out_ch}
    Tensor dw_;
    Tensor db_;
    Tensor x_cache_;   ///< Moved-in input (backward re-unfolds it).
    AlignedFloatVec col_;   ///< im2col scratch, reused across samples.
    AlignedFloatVec dcol_;  ///< Backward column-gradient scratch.
    AlignedFloatVec colw_;  ///< Batch-wide column buffer (infer only).
    AlignedFloatVec outw_;  ///< Batch-wide output buffer (infer only).
    AlignedFloatVec xpad_;  ///< Depthwise: zero-padded input plane.
    AlignedFloatVec plane_;  ///< Depthwise: y or dy rows at the padded width.
    AlignedFloatVec dxpad_;  ///< Depthwise backward: padded dx plane.

    /**
     * Shared body of forward() and the per-sample infer(): the direct
     * depthwise path, or im2col + GEMM.
     */
    Tensor convolve(const Tensor &xin);

    /**
     * Direct depthwise forward. Per channel: bias-fill plane_, then
     * for each tap with a nonzero weight one axpy of the padded input
     * plane, shifted by the tap, into plane_, whose rows have the
     * padded width iwp (so output (oy, ox) reads input
     * stride * (oy * iwp + ox) + tap offset); then compact its rows.
     */
    Tensor convolve_depthwise(const Tensor &xin);

    /**
     * Direct depthwise backward: db as in backward(), dW through
     * kernels::depthwise_dw, dx as one axpy per tap of dy (at the
     * padded row width) into a padded dx plane, whose interior is dx.
     */
    Tensor backward_depthwise(const Tensor &grad_out);

    /**
     * Copy channel plane @p x {ih, iw} into the interior of xpad_,
     * whose border the caller has zeroed.
     */
    void pad_input(const float *x, int ih, int iw);

    /** One input and one output channel per group. */
    bool depthwise() const
    {
        return in_ch_ == groups_ && out_ch_ == groups_;
    }

    /** Whether im2col is the identity (pointwise convolution). */
    bool pointwise() const
    {
        return k_ == 1 && stride_ == 1 && pad_ == 0;
    }

    /**
     * Output spatial size for input spatial size @p s. Delegates to the
     * kernel layer's formula so the layer and im2col/col2im can never
     * disagree about the column-buffer geometry.
     */
    int out_size(int s) const
    {
        return kernels::conv_out_size(s, k_, stride_, pad_);
    }
};

} // namespace autofl

#endif // AUTOFL_NN_CONV2D_H
