"""Kernel-level tests: forward oracles, hand-derived gradients vs finite differences.

Every kernel test runs the time-major ``(T, C, N)`` ops the program runs.
The loop oracles take ``(N, C, T)`` arrays, which :func:`oracles.time_major`
swaps to and from the kernels' layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erpcoder import nn
from erpcoder.autoencoder import (ARCHITECTURES, AutoencoderSpec, _stack_backward,
                                  build_layer_plan, init_params)
from oracles import (adam_first_step_naive, conv1d_naive, convtranspose1d_kernel_grad_naive,
                     convtranspose1d_naive, maxpool1d_backward_naive, maxpool1d_naive,
                     time_major, transposed_conv_matrix_naive)


def _loss_closure(forward, backward, extract):
    """Build fn(x) -> (loss, grad) suitable for finite_difference_check."""

    def fn(x):
        y, ctx = forward(x)
        loss, gl = nn.mse_loss(y, np.zeros_like(y))
        lg = backward(ctx, gl)
        return loss, extract(lg)

    return fn


def _in_layout(a, layout):
    """``a`` itself or, for the strided layout, an equal view that is not
    contiguous along its last axis."""
    if layout != "strided":
        return a
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    wide[..., ::2] = a
    return wide[..., ::2]


def _gradient_errors(forward, backward, point, target, stride, pad, layout="batched"):
    """The worst finite-difference error of the gradient w.r.t. each of
    ``point``'s ``x``, ``kernels`` and ``bias``, under the MSE against
    ``target``: the input, the kernels and the upstream gradient are passed
    in ``layout``."""

    def fn(value, which):
        args = {**point, which: value}
        out, ctx = forward(_in_layout(args["x"], layout), _in_layout(args["kernels"], layout),
                           args["bias"], stride, pad)
        loss, gl = nn.mse_loss(out, target)
        lg = backward(ctx, _in_layout(gl, layout))
        return loss, lg.input_grad if which == "x" else lg.param_grads[which]

    return {which: nn.finite_difference_check(lambda v: fn(v, which), value.copy())
            for which, value in point.items()}


def _per_instance(naive, x, *args):
    return np.stack([naive(xi, *args) for xi in x])


# (c_in, c_out, narrow length, kernel, stride, padding). The wide length
# (narrow - 1)*stride + kernel - 2*padding makes conv1d map wide -> narrow
# and convtranspose1d map narrow -> wide, so the two are exact adjoints.
TAP_EDGE_GEOMETRIES = {
    # stride > kernel: some wide positions meet no tap (output gaps)
    "stride_exceeds_kernel": (2, 3, 4, 2, 3, 0),
    "stride_exceeds_kernel_padded": (2, 3, 4, 2, 3, 1),
    # taps 0 and 6 land entirely in the padding
    "padding_crops_whole_taps": (1, 2, 2, 7, 2, 3),
    # one position on each side; only the middle tap is in range
    "single_position": (2, 2, 1, 5, 1, 2),
}
# a batch of two, a batch of one, and a batch of two whose input, kernels
# and upstream gradient are not contiguous
LAYOUTS = ("batched", "single", "strided")
edge_cases = pytest.mark.parametrize(
    "geometry, layout", [(g, layout) for g in TAP_EDGE_GEOMETRIES for layout in LAYOUTS])


def _edge_operands(rng, geometry, layout):
    """A tap-edge geometry's operands, batch-first for the loop oracles, and
    the time-major conv1d input ``x``, convtranspose1d input ``y`` and kernels
    ``w`` in ``layout``."""
    c_in, c_out, narrow, k, stride, pad = TAP_EDGE_GEOMETRIES[geometry]
    wide = (narrow - 1) * stride + k - 2 * pad
    batch = (1,) if layout == "single" else (2,)
    o = {
        "x": rng.normal(size=batch + (c_in, wide)),      # conv1d input
        "y": rng.normal(size=batch + (c_out, narrow)),   # convtranspose1d input
        "w": rng.normal(size=(c_out, c_in, k)),          # conv layout; (C_in, C_out, K) for convT
        "b_out": rng.normal(size=c_out),
        "b_in": rng.normal(size=c_in),
        "stride": stride,
        "pad": pad,
    }
    tm = {key: _in_layout(time_major(o[key]), layout) for key in ("x", "y")}
    tm["w"] = _in_layout(o["w"], layout)
    return o, tm


class TestTimeMajorTapEdgeGeometry:
    """The time-major convolution by hand and against the loop oracles, and
    both convolutions and their gradients where per-tap ranges are clipped."""

    def test_conv1d_hand_example(self):
        # direct-summation oracle gives [-2, -2] for this edge-detector kernel
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        w = np.array([[[1.0, 0.0, -1.0]]])
        b = np.zeros(1)
        expected = conv1d_naive(x[0], w, b)
        assert expected.tolist() == [[-2.0, -2.0]]
        y, _ = nn.conv1d_time_major_forward(time_major(x), w, b, stride=1, padding=0)
        np.testing.assert_array_equal(time_major(y), [expected])

    def test_conv1d_identity_kernel(self, rng):
        x = rng.normal(size=(11, 3, 1))
        w = np.eye(3)[:, :, None]  # K=1 identity
        y, _ = nn.conv1d_time_major_forward(x, w, np.zeros(3))
        np.testing.assert_array_equal(y, x)

    def test_conv1d_zero_input_gives_bias(self, rng):
        w = rng.normal(size=(4, 2, 3))
        b = rng.normal(size=4)
        y, _ = nn.conv1d_time_major_forward(np.zeros((9, 2, 1)), w, b, padding=1)
        np.testing.assert_allclose(y, np.broadcast_to(b[:, None], y.shape))

    def test_conv1d_matches_naive_on_random_geometry(self, rng):
        for _ in range(20):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            t = int(rng.integers(4, 12))
            k = int(rng.integers(1, min(t, 5) + 1))
            stride = int(rng.integers(1, 4))
            pad = int(rng.integers(0, 3))
            x = rng.normal(size=(1, c_in, t))
            w = rng.normal(size=(c_out, c_in, k))
            b = rng.normal(size=c_out)
            y, _ = nn.conv1d_time_major_forward(time_major(x), w, b, stride=stride, padding=pad)
            np.testing.assert_allclose(time_major(y)[0], conv1d_naive(x[0], w, b, stride, pad),
                                       atol=1e-12)

    def test_conv1d_backward_identity_kernel_passes_grad(self, rng):
        x = rng.normal(size=(6, 2, 1))
        w = np.eye(2)[:, :, None]
        _, ctx = nn.conv1d_time_major_forward(x, w, np.zeros(2))
        g = rng.normal(size=(6, 2, 1))
        lg = nn.conv1d_time_major_backward(ctx, g)
        np.testing.assert_array_equal(lg.input_grad, g)

    def test_conv1d_backward_scalar_kernel_grad(self):
        # T = K = 1: dL/dW = input * upstream, by hand differentiation
        x = np.array([[[3.0]]])
        w = np.array([[[2.0]]])
        _, ctx = nn.conv1d_time_major_forward(x, w, np.zeros(1))
        lg = nn.conv1d_time_major_backward(ctx, np.array([[[5.0]]]))
        assert lg.param_grads["kernels"].item() == 15.0
        assert lg.input_grad.item() == 10.0

    def test_conv1d_gradients_match_finite_differences(self, rng):
        x0 = rng.normal(size=(1, 3, 8))
        w0 = rng.normal(size=(2, 3, 3))
        b0 = rng.normal(size=2)
        target = rng.normal(size=(1, 2, 4))
        errors = _gradient_errors(nn.conv1d_time_major_forward, nn.conv1d_time_major_backward,
                                  {"x": time_major(x0), "kernels": w0, "bias": b0},
                                  time_major(target), 2, 1)
        assert all(err < 1e-5 for err in errors.values()), errors

    def test_conv1d_deterministic(self, rng):
        x = time_major(rng.normal(size=(2, 3, 16)))
        w = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=4)
        y1, _ = nn.conv1d_time_major_forward(x, w, b, stride=2, padding=2)
        y2, _ = nn.conv1d_time_major_forward(x.copy(), w.copy(), b.copy(), stride=2, padding=2)
        np.testing.assert_array_equal(y1, y2)

    @edge_cases
    def test_conv1d_matches_naive(self, rng, geometry, layout):
        o, tm = _edge_operands(rng, geometry, layout)
        out, _ = nn.conv1d_time_major_forward(tm["x"], tm["w"], o["b_out"], o["stride"], o["pad"])
        expected = _per_instance(conv1d_naive, o["x"], o["w"], o["b_out"], o["stride"], o["pad"])
        np.testing.assert_allclose(time_major(out), expected, rtol=0, atol=1e-12)

    @edge_cases
    def test_conv1d_gradients_match_loop_oracles(self, rng, geometry, layout):
        o, tm = _edge_operands(rng, geometry, layout)
        _, ctx = nn.conv1d_time_major_forward(tm["x"], tm["w"], o["b_out"], o["stride"], o["pad"])
        g = o["y"]  # the convolution's output shape
        lg = nn.conv1d_time_major_backward(ctx, _in_layout(time_major(g), layout))
        # the input gradient is the transposed convolution of g with the same kernels
        expected_x = _per_instance(convtranspose1d_naive, g, o["w"], np.zeros(o["w"].shape[1]),
                                   o["stride"], o["pad"])
        np.testing.assert_allclose(time_major(lg.input_grad), expected_x, rtol=0, atol=1e-12)
        # conv kernel gradient [o, c, j] = sum g[o, u] x[c, u*s + j - p]: the transposed
        # convolution's, with g as its input and x as its output gradient
        expected_w = sum(convtranspose1d_kernel_grad_naive(gi, xi, o["w"].shape[2], o["stride"],
                                                           o["pad"]) for gi, xi in zip(g, o["x"]))
        np.testing.assert_allclose(lg.param_grads["kernels"], expected_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(lg.param_grads["bias"], g.sum(axis=(0, 2)), rtol=0, atol=1e-12)
        from_rows = nn.conv1d_time_major_backward(ctx, time_major(g),
                                                  rows=_in_layout(o["x"], layout))
        assert from_rows.input_grad is None
        np.testing.assert_allclose(from_rows.param_grads["kernels"], expected_w, rtol=0,
                                   atol=1e-12)
        np.testing.assert_array_equal(from_rows.param_grads["bias"], lg.param_grads["bias"])

    @edge_cases
    def test_convtranspose1d_matches_naive(self, rng, geometry, layout):
        o, tm = _edge_operands(rng, geometry, layout)
        out, _ = nn.convtranspose1d_time_major_forward(tm["y"], tm["w"], o["b_in"], o["stride"],
                                                       o["pad"])
        expected = _per_instance(convtranspose1d_naive, o["y"], o["w"], o["b_in"],
                                 o["stride"], o["pad"])
        np.testing.assert_allclose(time_major(out), expected, atol=1e-12)

    @edge_cases
    def test_convtranspose1d_backward_matches_loop_oracles(self, rng, geometry, layout):
        o, tm = _edge_operands(rng, geometry, layout)
        _, ctx = nn.convtranspose1d_time_major_forward(tm["y"], tm["w"], o["b_in"], o["stride"],
                                                       o["pad"])
        g = rng.normal(size=o["x"].shape)
        lg = nn.convtranspose1d_time_major_backward(ctx, _in_layout(time_major(g), layout))
        # the input gradient is the forward convolution of g with the same kernels
        expected_x = _per_instance(conv1d_naive, g, o["w"], np.zeros(o["w"].shape[0]),
                                   o["stride"], o["pad"])
        np.testing.assert_allclose(time_major(lg.input_grad), expected_x, rtol=0, atol=1e-12)
        expected_w = sum(convtranspose1d_kernel_grad_naive(yi, gi, o["w"].shape[2], o["stride"],
                                                           o["pad"]) for yi, gi in zip(o["y"], g))
        np.testing.assert_allclose(lg.param_grads["kernels"], expected_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(lg.param_grads["bias"], g.sum(axis=(0, 2)), rtol=0, atol=1e-12)

    @edge_cases
    def test_conv1d_adjoint_identity(self, rng, geometry, layout):
        # <conv(x), y> == <x, conv1d input gradient of y>
        o, tm = _edge_operands(rng, geometry, layout)
        cx, ctx = nn.conv1d_time_major_forward(tm["x"], tm["w"], np.zeros(o["w"].shape[0]),
                                               o["stride"], o["pad"])
        gx = nn.conv1d_time_major_backward(ctx, tm["y"]).input_grad
        lhs, rhs = np.vdot(cx, tm["y"]), np.vdot(tm["x"], gx)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)

    @edge_cases
    def test_adjoint_identity(self, rng, geometry, layout):
        # <conv(x), y> == <x, convT(y)>
        o, tm = _edge_operands(rng, geometry, layout)
        w = tm["w"]
        cx, _ = nn.conv1d_time_major_forward(tm["x"], w, np.zeros(w.shape[0]), o["stride"],
                                             o["pad"])
        ty, _ = nn.convtranspose1d_time_major_forward(tm["y"], w, np.zeros(w.shape[1]),
                                                      o["stride"], o["pad"])
        lhs, rhs = np.vdot(cx, tm["y"]), np.vdot(tm["x"], ty)
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30) < 1e-10

    @edge_cases
    def test_conv1d_edge_gradients_match_finite_differences(self, rng, geometry, layout):
        o, _ = _edge_operands(rng, geometry, layout)
        errors = _gradient_errors(nn.conv1d_time_major_forward, nn.conv1d_time_major_backward,
                                  {"x": time_major(o["x"]), "kernels": o["w"], "bias": o["b_out"]},
                                  rng.normal(size=time_major(o["y"]).shape), o["stride"], o["pad"],
                                  layout)
        assert all(err < 1e-5 for err in errors.values()), errors

    @edge_cases
    def test_convtranspose1d_edge_gradients_match_finite_differences(self, rng, geometry, layout):
        o, _ = _edge_operands(rng, geometry, layout)
        errors = _gradient_errors(nn.convtranspose1d_time_major_forward,
                                  nn.convtranspose1d_time_major_backward,
                                  {"x": time_major(o["y"]), "kernels": o["w"], "bias": o["b_in"]},
                                  rng.normal(size=time_major(o["x"]).shape), o["stride"], o["pad"],
                                  layout)
        assert all(err < 1e-5 for err in errors.values()), errors


# (c_in, c_out, input length, kernel, stride, padding) of a transposed
# convolution: the clipped-tap geometries above, and the hidden layers of
# both decoders at paper geometry
TIME_MAJOR_GEOMETRIES = {
    **{name: (c_out, c_in, narrow, k, stride, pad)
       for name, (c_in, c_out, narrow, k, stride, pad) in TAP_EDGE_GEOMETRIES.items()},
    "beta_hidden": (10, 16, 20, 4, 2, 1),
    "alpha_hidden_0": (5, 5, 9, 2, 1, 0),
    "alpha_hidden_1": (5, 12, 10, 5, 5, 0),
}
time_major_geometries = pytest.mark.parametrize("geometry", list(TIME_MAJOR_GEOMETRIES))


class TestTimeMajorTransposedConv:
    """The time-major transposed convolution by hand, against the loop
    oracles, finite differences, the convolution and its own adjoint."""

    @staticmethod
    def operands(rng, geometry, n=3):
        c_in, c_out, t, k, stride, pad = TIME_MAJOR_GEOMETRIES[geometry]
        return (rng.normal(size=(n, c_in, t)), rng.normal(size=(c_in, c_out, k)),
                rng.normal(size=c_out), stride, pad)

    def test_single_point_placement(self):
        # placing one unit spreads the kernel verbatim
        x = np.array([[[1.0]]])
        w = np.array([[[1.0, 2.0, 3.0]]])
        expected = convtranspose1d_naive(x[0], w, np.zeros(1))
        assert expected.tolist() == [[1.0, 2.0, 3.0]]
        y, _ = nn.convtranspose1d_time_major_forward(time_major(x), w, np.zeros(1))
        np.testing.assert_array_equal(time_major(y), [expected])

    def test_zero_input_gives_bias(self, rng):
        w = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=2)
        y, _ = nn.convtranspose1d_time_major_forward(np.zeros((5, 3, 1)), w, b, stride=2,
                                                     padding=1)
        np.testing.assert_allclose(y, np.broadcast_to(b[:, None], y.shape))

    def test_matches_naive_on_random_geometry(self, rng):
        for _ in range(20):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            t = int(rng.integers(1, 9))
            k = int(rng.integers(1, 6))
            stride = int(rng.integers(1, 4))
            pad = int(rng.integers(0, (k + (t - 1) * stride) // 2 + 1))
            x = rng.normal(size=(1, c_in, t))
            w = rng.normal(size=(c_in, c_out, k))
            b = rng.normal(size=c_out)
            if (t - 1) * stride + k - 2 * pad < 1:
                continue
            y, _ = nn.convtranspose1d_time_major_forward(time_major(x), w, b, stride=stride,
                                                         padding=pad)
            np.testing.assert_allclose(time_major(y)[0],
                                       convtranspose1d_naive(x[0], w, b, stride, pad), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        c_in=st.integers(1, 3),
        c_out=st.integers(1, 3),
        t_out=st.integers(1, 7),
        k=st.integers(1, 5),
        stride=st.integers(1, 3),
        pad=st.integers(0, 2),
        seed=st.integers(0, 2**31),
    )
    def test_adjoint_identity(self, c_in, c_out, t_out, k, stride, pad, seed):
        # <conv(x; W), y> == <x, convT(y; W)> whenever the geometry round-trips
        t = (t_out - 1) * stride + k - 2 * pad
        if t < k - 2 * pad or t < 1 or k > t + 2 * pad:
            return
        r = np.random.default_rng(seed)
        x = time_major(r.normal(size=(1, c_in, t)))
        w = r.normal(size=(c_out, c_in, k))
        y = time_major(r.normal(size=(1, c_out, t_out)))
        cx, _ = nn.conv1d_time_major_forward(x, w, np.zeros(c_out), stride=stride, padding=pad)
        assert cx.shape == y.shape
        ty, _ = nn.convtranspose1d_time_major_forward(y, w, np.zeros(c_in), stride=stride,
                                                      padding=pad)
        lhs = float((cx * y).sum())
        rhs = float((x * ty).sum())
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) / scale < 1e-10

    def test_gradients_match_finite_differences(self, rng):
        x0 = rng.normal(size=(1, 3, 5))
        w0 = rng.normal(size=(3, 2, 4))
        b0 = rng.normal(size=2)
        target = rng.normal(size=(1, 2, 10))
        errors = _gradient_errors(nn.convtranspose1d_time_major_forward,
                                  nn.convtranspose1d_time_major_backward,
                                  {"x": time_major(x0), "kernels": w0, "bias": b0},
                                  time_major(target), 2, 1)
        assert all(err < 1e-5 for err in errors.values()), errors

    @time_major_geometries
    def test_forward_matches_loop_oracle(self, rng, geometry):
        x, w, b, stride, pad = self.operands(rng, geometry)
        y, _ = nn.convtranspose1d_time_major_forward(time_major(x), w, b, stride, pad)
        expected = _per_instance(convtranspose1d_naive, x, w, b, stride, pad)
        np.testing.assert_allclose(time_major(y), expected, rtol=0, atol=1e-12)

    @time_major_geometries
    def test_gradients_match_loop_oracles(self, rng, geometry):
        x, w, b, stride, pad = self.operands(rng, geometry)
        y, ctx = nn.convtranspose1d_time_major_forward(time_major(x), w, b, stride, pad)
        g = rng.normal(size=time_major(y).shape)
        lg = nn.convtranspose1d_time_major_backward(ctx, time_major(g))
        expected_x = _per_instance(conv1d_naive, g, w, np.zeros(len(w)), stride, pad)
        np.testing.assert_allclose(time_major(lg.input_grad), expected_x, rtol=0, atol=1e-12)
        expected_w = sum(convtranspose1d_kernel_grad_naive(xi, gi, w.shape[2], stride, pad)
                         for xi, gi in zip(x, g))
        np.testing.assert_allclose(lg.param_grads["kernels"], expected_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(lg.param_grads["bias"], g.sum(axis=(0, 2)), rtol=0,
                                   atol=1e-12)

    @time_major_geometries
    def test_input_gradient_matches_finite_differences(self, rng, geometry):
        x, w, b, stride, pad = self.operands(rng, geometry, n=2)
        fn = _loss_closure(lambda xx: nn.convtranspose1d_time_major_forward(xx, w, b, stride, pad),
                           nn.convtranspose1d_time_major_backward, lambda lg: lg.input_grad)
        assert nn.finite_difference_check(fn, time_major(x)) < 1e-6

    @time_major_geometries
    def test_backward_is_adjoint_of_forward(self, rng, geometry):
        x, w, b, stride, pad = self.operands(rng, geometry)
        x = time_major(x)
        y, ctx = nn.convtranspose1d_time_major_forward(x, w, np.zeros_like(b), stride, pad)
        g = rng.normal(size=y.shape)
        lhs = np.vdot(y, g)
        rhs = np.vdot(x, nn.convtranspose1d_time_major_backward(ctx, g).input_grad)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @time_major_geometries
    def test_stack_backward_walks_time_major_layer(self, rng, geometry):
        # a frozen decoder's walk asks for the input gradient alone; a trained
        # one's gets the parameter gradients too, and the same input gradient
        x, w, b, stride, pad = self.operands(rng, geometry)
        x = time_major(x)
        y, ctx = nn.convtranspose1d_time_major_forward(x, w, b, stride, pad)
        g = rng.normal(size=y.shape)
        lg = nn.convtranspose1d_time_major_backward(ctx, g, need_param_grads=False)
        assert lg.param_grads == {}
        assert lg.input_grad.shape == x.shape
        walked, param_grads = _stack_backward([("dec.deconv", ctx)], g, need_param_grads=False)
        assert param_grads == {}
        np.testing.assert_array_equal(walked, lg.input_grad)
        walked, param_grads = _stack_backward([("dec.deconv", ctx)], g)
        assert set(param_grads) == {"dec.deconv.kernels", "dec.deconv.bias"}
        np.testing.assert_array_equal(walked, lg.input_grad)


class TestTimeMajorTransposedConvInput:
    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"input \(4, 2, 3\) and kernels \(3, 2, 5\)"):
            nn.convtranspose1d_time_major_forward(np.zeros((4, 2, 3)), np.zeros((3, 2, 5)),
                                                  np.zeros(2))

    def test_gradient_shape_mismatch_rejected(self):
        _, ctx = nn.convtranspose1d_time_major_forward(np.zeros((4, 3, 2)), np.zeros((3, 2, 5)),
                                                       np.zeros(2))
        with pytest.raises(ValueError, match="upstream grad shape"):
            nn.convtranspose1d_time_major_backward(ctx, np.zeros((8, 2, 3)))


# (C_in, C_out, K, stride, padding, length), bandwidth w = ceil(K/stride) - 1
GRAM_BAND_GEOMETRIES = {
    "w0-k<stride": (3, 2, 3, 4, 0, 5),
    "w0-k=stride": (2, 3, 4, 4, 1, 6),
    "w1-beta-output": (4, 3, 9, 5, 2, 8),
    "w2-k>2stride": (3, 2, 7, 3, 1, 6),
    "w3-stride1": (2, 2, 4, 1, 1, 9),
    "w4-padding>stride": (2, 3, 9, 2, 5, 7),
    "w2-padding-crops-whole-taps": (2, 3, 5, 2, 1, 1),
    "w3-length<=2w": (2, 2, 7, 2, 1, 3),
    "w1-alpha-output": (3, 2, 8, 4, 2, 7),
}


def _assert_band_exactly_symmetric(band, c_in):
    """``band[t, :, d]`` is bit for bit the transpose of ``band[t+d-w, :, 2w-d]``."""
    length = band.shape[0]
    blocks = band.reshape(length, c_in, -1, c_in)
    w = blocks.shape[2] // 2
    for t in range(length):
        for d in range(2 * w + 1):
            if 0 <= t + d - w < length:
                np.testing.assert_array_equal(blocks[t, :, d], blocks[t + d - w, :, 2 * w - d].T)


@pytest.mark.parametrize("geometry", list(GRAM_BAND_GEOMETRIES))
class TestGramBand:
    """The block band of AᵀA against the dense product from the loop oracle."""

    def test_bandwidth_formula(self, geometry):
        _, _, k, stride, _, _ = GRAM_BAND_GEOMETRIES[geometry]
        assert nn.gram_bandwidth(k, stride) == int(np.ceil(k / stride)) - 1

    def test_matmul_matches_dense_gram(self, rng, geometry):
        c_in, c_out, k, stride, pad, length = GRAM_BAND_GEOMETRIES[geometry]
        kernels = rng.normal(size=(c_in, c_out, k))
        a = transposed_conv_matrix_naive(kernels, stride, pad, length)
        band = nn.transposed_conv_gram_band(kernels, stride, pad, length)
        w = nn.gram_bandwidth(k, stride)
        assert band.shape == (length, c_in, (2 * w + 1) * c_in)
        x = rng.normal(size=(5, c_in, length))
        expected = (x.reshape(5, -1) @ (a.T @ a)).reshape(x.shape)
        got = nn.gram_band_matmul(band, time_major(x))  # time-major in and out
        assert np.abs(time_major(got) - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_band_is_exactly_symmetric(self, rng, geometry):
        c_in, c_out, k, stride, pad, length = GRAM_BAND_GEOMETRIES[geometry]
        band = nn.transposed_conv_gram_band(rng.normal(size=(c_in, c_out, k)), stride, pad, length)
        _assert_band_exactly_symmetric(band, c_in)

    def test_dense_gram_is_zero_outside_band(self, rng, geometry):
        c_in, c_out, k, stride, pad, length = GRAM_BAND_GEOMETRIES[geometry]
        a = transposed_conv_matrix_naive(rng.normal(size=(c_in, c_out, k)), stride, pad, length)
        gram = (a.T @ a).reshape(c_in, length, c_in, length)
        t = np.arange(length)
        far = np.abs(t[:, None] - t[None, :]) > nn.gram_bandwidth(k, stride)
        assert not np.any(gram.transpose(1, 3, 0, 2)[far])


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_paper_decoder_band_is_exactly_symmetric(arch):
    spec = AutoencoderSpec(arch, False, 32, 200)
    steps = build_layer_plan(spec).decoder
    step = steps[-1]
    kernels = init_params(spec, seed=3).tensors[f"dec{len(steps) - 1}.kernels"]
    length = nn.conv_output_length(200, step.kernel, step.stride, step.padding)
    band = nn.transposed_conv_gram_band(kernels, step.stride, step.padding, length)
    _assert_band_exactly_symmetric(band, kernels.shape[0])


class TestGramBandInput:
    def test_mismatched_input_rejected(self, rng):
        band = nn.transposed_conv_gram_band(rng.normal(size=(3, 2, 9)), 5, 2, 8)
        with pytest.raises(ValueError, match=r"band shape \(8, 3, 9\) does not fit input"):
            nn.gram_band_matmul(band, np.zeros((8, 2, 4)))

    @pytest.mark.parametrize("stride, padding, message", [
        (0, 1, "stride must be >= 1, got 0"), (2, -1, "padding must be >= 0, got -1")])
    def test_bad_stride_or_padding_rejected(self, rng, stride, padding, message):
        with pytest.raises(ValueError, match=message):
            nn.transposed_conv_gram_band(rng.normal(size=(3, 2, 9)), stride, padding, 8)

    def test_bandwidth_too_narrow_for_kernel_rejected(self, rng, monkeypatch):
        # a bandwidth formula that undercounts must trip the zero check, not truncate G
        monkeypatch.setattr(nn, "gram_bandwidth", lambda kernel, stride: 0)
        with pytest.raises(ValueError, match="nonzero blocks more than 0 time steps"):
            nn.transposed_conv_gram_band(rng.normal(size=(3, 2, 9)), 5, 2, 8)


# Time-major operands the window views must not read wrongly: equal arrays
# whose memory is not one C-contiguous (T, C, N) block, or is read-only
TIME_MAJOR_LAYOUTS = ("contiguous", "transposed", "strided", "read_only", "size_one_axes")


def _time_major_in_layout(a, layout):
    """The time-major ``a`` (contiguous) as an equal array in ``layout``."""
    if layout == "transposed":  # a view of an (N, C, T) array
        return np.ascontiguousarray(a.transpose(2, 1, 0)).transpose(2, 1, 0)
    if layout == "strided":
        return _in_layout(a, layout)
    if layout == "read_only":
        a = a.copy()
        a.flags.writeable = False
        return a
    if layout == "size_one_axes":
        # C-contiguous, but each size-1 axis has stride 0, which a view built
        # from the array's own strides would step by
        t, c, n = a.shape
        flat = np.ascontiguousarray(a.reshape(t, c * n))
        if c == 1:
            return flat[:, None, :]
        if n == 1:
            return flat[:, :, None]
    return a


# (c_in, c_out, input length, kernel, stride, padding): one input step;
# phases with no tap (stride > kernel); one channel in and out
TIME_MAJOR_EDGE_GEOMETRIES = {
    "one_input_step": (3, 2, 1, 4, 2, 1),
    "one_input_step_stride_1": (2, 3, 1, 3, 1, 0),
    "phase_without_tap": (2, 3, 4, 2, 3, 0),
    "phase_without_tap_padded": (2, 3, 5, 2, 4, 1),
    "one_channel": (1, 1, 5, 4, 2, 1),
    "beta_hidden": (10, 16, 20, 4, 2, 1),
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("layout", TIME_MAJOR_LAYOUTS)
class TestTimeMajorEdgeCases:
    """The time-major transposed convolution and ``gram_band_matmul`` against the
    loop oracles on inputs whose layout, size or geometry the window views must
    handle."""

    @staticmethod
    def forward(rng, geometry, layout, n):
        """The transposed convolution of a random ``(N, C, T)`` input in ``layout``:
        its output, context, and the input, kernels, bias, stride and padding."""
        c_in, c_out, t, k, stride, pad = TIME_MAJOR_EDGE_GEOMETRIES[geometry]
        x = rng.normal(size=(n, c_in, t))
        w = rng.normal(size=(c_in, c_out, k))
        b = rng.normal(size=c_out)
        y, ctx = nn.convtranspose1d_time_major_forward(
            _time_major_in_layout(time_major(x), layout), w, b, stride, pad)
        return y, ctx, (x, w, b, stride, pad)

    @pytest.mark.parametrize("geometry", list(TIME_MAJOR_EDGE_GEOMETRIES))
    def test_forward_matches_loop_oracle(self, rng, geometry, layout, n):
        y, _, (x, w, b, stride, pad) = self.forward(rng, geometry, layout, n)
        expected = _per_instance(convtranspose1d_naive, x, w, b, stride, pad)
        np.testing.assert_allclose(time_major(y), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("geometry", list(TIME_MAJOR_EDGE_GEOMETRIES))
    def test_backward_matches_loop_oracle(self, rng, geometry, layout, n):
        y, ctx, (x, w, _, stride, pad) = self.forward(rng, geometry, layout, n)
        # the input gradient of a transposed convolution is the convolution of g
        g = rng.normal(size=time_major(y).shape)
        gx = nn.convtranspose1d_time_major_backward(
            ctx, _time_major_in_layout(time_major(g), layout)).input_grad
        expected_gx = _per_instance(conv1d_naive, g, w, np.zeros(x.shape[1]), stride, pad)
        np.testing.assert_allclose(time_major(gx), expected_gx, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("geometry, length", [
        ("w1-beta-output", 8), ("w1-beta-output", 2), ("w1-beta-output", 1),
        ("w2-k>2stride", 4), ("w3-stride1", 3), ("w0-k=stride", 1)])
    def test_gram_band_matmul_matches_dense_gram(self, rng, geometry, length, layout, n):
        # T <= 2w leaves no step whose whole band lies inside the input
        c_in, c_out, k, stride, pad, _ = GRAM_BAND_GEOMETRIES[geometry]
        kernels = rng.normal(size=(c_in, c_out, k))
        a = transposed_conv_matrix_naive(kernels, stride, pad, length)
        band = nn.transposed_conv_gram_band(kernels, stride, pad, length)
        x = rng.normal(size=(n, c_in, length))
        expected = (x.reshape(n, -1) @ (a.T @ a)).reshape(x.shape)
        got = nn.gram_band_matmul(band, _time_major_in_layout(time_major(x), layout))
        np.testing.assert_allclose(time_major(got), expected, rtol=0, atol=1e-12)


class TestDenseTanh:
    def test_identity_weight(self, rng):
        x = rng.normal(size=(1, 5))
        y, _ = nn.dense_forward(x, np.eye(5), np.zeros(5))
        np.testing.assert_array_equal(y, x)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="input width 4.*weight input"):
            nn.dense_forward(np.zeros((1, 4)), np.zeros((2, 3)), np.zeros(2))

    def test_unbatched_input_rejected(self):
        # one instance without its batch axis is an error, not a batch of one
        with pytest.raises(ValueError, match=r"^dense: expected a batch with 2 dims, got shape "
                                             r"\(4,\)$"):
            nn.dense_forward(np.zeros(4), np.zeros((2, 4)), np.zeros(2))

    def test_tanh_analytic_values(self):
        y, ctx = nn.tanh_forward(np.array([0.0]))
        assert y[0] == 0.0
        lg = nn.tanh_backward(ctx, np.array([1.0]))
        assert lg.input_grad[0] == 1.0

    def test_gradients_match_finite_differences(self, rng):
        x0 = rng.normal(size=(4, 6)) * 0.5
        w0 = rng.normal(size=(3, 6))
        b0 = rng.normal(size=3)
        target = rng.normal(size=(4, 3))

        def fwd_loss(x, w, b):
            h, dctx = nn.dense_forward(x, w, b)
            y, tctx = nn.tanh_forward(h)
            loss, gl = nn.mse_loss(y, target)
            gh = nn.tanh_backward(tctx, gl).input_grad
            return loss, nn.dense_backward(dctx, gh)

        assert nn.finite_difference_check(
            lambda x: (lambda r: (r[0], r[1].input_grad))(fwd_loss(x, w0, b0)), x0) < 1e-6
        assert nn.finite_difference_check(
            lambda w: (lambda r: (r[0], r[1].param_grads["weight"]))(fwd_loss(x0, w, b0)), w0) < 1e-6
        assert nn.finite_difference_check(
            lambda b: (lambda r: (r[0], r[1].param_grads["bias"]))(fwd_loss(x0, w0, b)), b0) < 1e-6


class TestMseLoss:
    def test_equal_inputs_zero(self, rng):
        x = rng.normal(size=(3, 4))
        loss, grad = nn.mse_loss(x, x.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(x))

    def test_unit_difference(self):
        loss, _ = nn.mse_loss(np.ones((2, 5)), np.zeros((2, 5)))
        assert loss == 1.0

    def test_hand_value(self):
        # (0 + 4) / 2
        loss, grad = nn.mse_loss(np.array([0.0, 2.0]), np.array([0.0, 0.0]))
        assert loss == 2.0
        np.testing.assert_array_equal(grad, [0.0, 2.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pred shape"):
            nn.mse_loss(np.zeros(3), np.zeros(4))

    def test_inputs_not_mutated(self, rng):
        # the gradient is scaled in place, so it must own its buffer
        pred, target = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
        pred_before, target_before = pred.copy(), target.copy()
        loss, grad = nn.mse_loss(pred, target)
        np.testing.assert_array_equal(pred, pred_before)
        np.testing.assert_array_equal(target, target_before)
        diff = pred_before - target_before
        assert loss == pytest.approx(np.mean(diff * diff), rel=1e-15)
        np.testing.assert_array_equal(grad, (2.0 / diff.size) * diff)


class TestAdam:
    def test_first_step_closed_form(self):
        params = {"w": np.array([1.0])}
        state = nn.adam_init(params, lr=0.001)
        nn.adam_step(params, {"w": np.array([1.0])}, state)
        expected = adam_first_step_naive(1.0, 1.0, lr=0.001)
        assert abs(params["w"][0] - expected) < 1e-15
        assert abs((1.0 - params["w"][0]) - 0.001) < 1e-8

    def test_zero_grad_is_noop(self):
        params = {"w": np.array([2.0, -3.0])}
        state = nn.adam_init(params, lr=0.001)
        nn.adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(params["w"], [2.0, -3.0])
        assert state.step_count == 1

    def test_deterministic(self, rng):
        g = rng.normal(size=(3, 2))
        runs = []
        for _ in range(2):
            params = {"w": np.ones((3, 2))}
            state = nn.adam_init(params, lr=0.01)
            for _ in range(5):
                nn.adam_step(params, {"w": g}, state, weight_decay=1e-3)
            runs.append(params["w"].copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_weight_decay_shrinks(self):
        params = {"w": np.array([10.0])}
        state = nn.adam_init(params, lr=0.001)
        nn.adam_step(params, {"w": np.zeros(1)}, state, weight_decay=0.1)
        assert params["w"][0] < 10.0


class TestFiniteDifferenceCheck:
    def test_linear_map_near_exact(self, rng):
        a = rng.normal(size=(4, 4))

        def fn(x):
            loss = float(a.ravel() @ x.ravel())
            return loss, a.copy()

        assert nn.finite_difference_check(fn, rng.normal(size=(4, 4))) < 1e-9

    def test_detects_wrong_gradient(self, rng):
        a = rng.normal(size=6)

        def fn(x):
            return float(a @ x), 2.0 * a  # deliberately doubled

        assert abs(nn.finite_difference_check(fn, rng.normal(size=6)) - 1.0) < 1e-6


class TestShapeAlgebra:
    @settings(max_examples=80, deadline=None)
    @given(
        t=st.integers(2, 64),
        k=st.integers(1, 9),
        stride=st.integers(1, 4),
        pad=st.integers(0, 4),
    )
    def test_mirrored_geometry_restores_length(self, t, k, stride, pad):
        if k > t + 2 * pad or (t + 2 * pad - k) % stride != 0:
            return
        t_out = nn.conv_output_length(t, k, stride, pad)
        assert nn.convtranspose_output_length(t_out, k, stride, pad) == t


def _pool_winners(ctx):
    """``(N, C, T_out)`` absolute winning positions of a max-pooling context."""
    winners = np.zeros(ctx.y.shape, dtype=int)
    for i, mask in ctx.winner_masks():
        winners[mask] = i
    return time_major(winners + np.arange(len(ctx.y))[:, None, None] * ctx.stride)


# (T, window, stride): windows that tile, leave a remainder, leave gaps, overlap
POOL_GEOMETRIES = [(20, 5, 5), (17, 2, 3), (12, 4, 4), (11, 3, 1), (13, 5, 2), (9, 3, 2),
                   (4, 4, 1), (40, 2, 2)]
pool_geometries = pytest.mark.parametrize("t, window, stride", POOL_GEOMETRIES)


class TestTimeMajorMaxPool:
    """Max pooling over the outer time axis by hand and against the loop
    oracles, bit for bit."""

    def test_hand_example(self):
        x = time_major(np.array([[[3.0, 1.0, 4.0, 1.0]]]))
        y, ctx = nn.maxpool1d_time_major_forward(x, window=2, stride=2)
        assert time_major(y).tolist() == [[[3.0, 4.0]]]
        assert _pool_winners(ctx)[0].tolist() == [[0, 2]]

    def test_ties_break_low(self):
        y, ctx = nn.maxpool1d_time_major_forward(np.full((6, 2, 1), 7.0), window=3, stride=3)
        np.testing.assert_array_equal(y, np.full((2, 2, 1), 7.0))
        np.testing.assert_array_equal(_pool_winners(ctx)[0], [[0, 3], [0, 3]])

    def test_matches_naive_on_random_geometry(self, rng):
        for _ in range(10):
            t = int(rng.integers(3, 12))
            w = int(rng.integers(1, t + 1))
            s = int(rng.integers(1, 4))
            x = rng.normal(size=(1, 2, t))
            y, ctx = nn.maxpool1d_time_major_forward(time_major(x), w, s)
            ye, ie = maxpool1d_naive(x[0], w, s)
            np.testing.assert_array_equal(time_major(y)[0], ye)
            np.testing.assert_array_equal(_pool_winners(ctx)[0], ie)

    def test_backward_routes_to_argmax(self, rng):
        # distinct values keep the max unique, so finite differences apply
        x0 = (rng.permutation(12).astype(float).reshape(1, 2, 6)
              + rng.normal(scale=0.01, size=(1, 2, 6)))
        fn = _loss_closure(
            lambda x: nn.maxpool1d_time_major_forward(x, 3, 2),
            nn.maxpool1d_time_major_backward,
            lambda lg: lg.input_grad,
        )
        assert nn.finite_difference_check(fn, time_major(x0)) < 1e-6

    def test_backward_accumulates_overlaps(self):
        x = time_major(np.array([[[0.0, 5.0, 1.0]]]))
        _, ctx = nn.maxpool1d_time_major_forward(x, window=2, stride=1)
        lg = nn.maxpool1d_time_major_backward(ctx, time_major(np.array([[[1.0, 1.0]]])))
        np.testing.assert_array_equal(time_major(lg.input_grad), [[[0.0, 2.0, 0.0]]])

    @staticmethod
    def pool_input(rng, t, ties):
        x = rng.normal(size=(3, 4, t))
        if ties:  # rounded values: ties, and overlapping windows that share a winner
            x = np.round(x)
        return x

    @pool_geometries
    @pytest.mark.parametrize("ties", [False, True])
    def test_forward_matches_loop_oracle(self, rng, t, window, stride, ties):
        x = self.pool_input(rng, t, ties)
        y, ctx = nn.maxpool1d_time_major_forward(time_major(x), window, stride)
        winners = _pool_winners(ctx)
        for i in range(len(x)):
            expected, expected_winners = maxpool1d_naive(x[i], window, stride)
            np.testing.assert_array_equal(time_major(y)[i], expected)
            np.testing.assert_array_equal(winners[i], expected_winners)

    @pool_geometries
    @pytest.mark.parametrize("ties", [False, True])
    def test_backward_matches_loop_oracle(self, rng, t, window, stride, ties):
        x = self.pool_input(rng, t, ties)
        y, ctx = nn.maxpool1d_time_major_forward(time_major(x), window, stride)
        g = rng.normal(size=y.shape)
        grad = time_major(nn.maxpool1d_time_major_backward(ctx, g).input_grad)
        g = time_major(g)
        for i in range(len(x)):
            np.testing.assert_array_equal(grad[i],
                                          maxpool1d_backward_naive(x[i], window, stride, g[i]))

    @pool_geometries
    @pytest.mark.parametrize("layout", TIME_MAJOR_LAYOUTS)
    def test_input_layouts_give_the_same_bits(self, rng, t, window, stride, layout):
        x = time_major(rng.normal(size=(2, 3, t)))
        y, ctx = nn.maxpool1d_time_major_forward(x, window, stride)
        y_l, ctx_l = nn.maxpool1d_time_major_forward(_time_major_in_layout(x, layout), window,
                                                     stride)
        np.testing.assert_array_equal(y_l, y)
        g = rng.normal(size=y.shape)
        np.testing.assert_array_equal(
            nn.maxpool1d_time_major_backward(ctx_l, _time_major_in_layout(g, layout)).input_grad,
            nn.maxpool1d_time_major_backward(ctx, g).input_grad)

    @pool_geometries
    def test_gradient_matches_finite_differences(self, rng, t, window, stride):
        fn = _loss_closure(lambda x: nn.maxpool1d_time_major_forward(x, window, stride),
                           nn.maxpool1d_time_major_backward, lambda lg: lg.input_grad)
        assert nn.finite_difference_check(fn, rng.normal(size=(t, 2, 2))) < 1e-6


class TestTimeMajorInput:
    def test_conv1d_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^conv1d_time_major: input \(4, 2, 3\) and "
                                             r"kernels \(3, 3, 2\)"):
            nn.conv1d_time_major_forward(np.zeros((4, 2, 3)), np.zeros((3, 3, 2)), np.zeros(3))

    def test_conv1d_kernel_longer_than_input_rejected(self):
        with pytest.raises(ValueError, match="kernel length"):
            nn.conv1d_time_major_forward(np.zeros((3, 1, 1)), np.zeros((1, 1, 5)), np.zeros(1))

    def test_conv1d_gradient_shape_mismatch_rejected(self):
        _, ctx = nn.conv1d_time_major_forward(np.zeros((6, 2, 3)), np.zeros((4, 2, 3)),
                                              np.zeros(4))
        with pytest.raises(ValueError, match="upstream grad shape"):
            nn.conv1d_time_major_backward(ctx, np.zeros((4, 3, 4)))

    def test_pool_window_too_large_rejected(self):
        with pytest.raises(ValueError, match="window 5 exceeds"):
            nn.maxpool1d_time_major_forward(np.zeros((4, 1, 1)), window=5, stride=1)

    @pytest.mark.parametrize("op, args, message", [
        ("conv1d", (np.zeros((7, 2)), np.zeros((1, 2, 3)), np.zeros(1)),
         r"^conv1d_time_major: input \(7, 2\) and kernels \(1, 2, 3\) are not \(T, C_in, N\)"),
        ("convtranspose1d", (np.zeros((7, 2)), np.zeros((2, 1, 3)), np.zeros(1)),
         r"^convtranspose1d_time_major: input \(7, 2\) and kernels \(2, 1, 3\) are not "
         r"\(T, C_in, N\)"),
        ("maxpool1d", (np.zeros((7, 2)), 2, 2),
         r"^maxpool1d_time_major: expected \(T, C, N\), got shape \(7, 2\)$"),
    ], ids=["conv1d", "convtranspose1d", "maxpool1d"])
    def test_unbatched_input_rejected(self, op, args, message):
        # one instance without its batch axis is an error, not a batch of one
        with pytest.raises(ValueError, match=message):
            getattr(nn, f"{op}_time_major_forward")(*args)


class TestTimeMajorStack:
    def test_gradient_matches_finite_differences(self, rng):
        # conv -> pool -> tanh -> transposed conv, walked back op by op
        w1 = rng.normal(size=(4, 2, 3))
        w2 = rng.normal(size=(4, 2, 5))
        target = time_major(rng.normal(size=(1, 2, 9)))

        def fn(x):
            h1, c1 = nn.conv1d_time_major_forward(x, w1, np.zeros(4), padding=1)
            h2, c2 = nn.maxpool1d_time_major_forward(h1, 2, 2)
            h3, c3 = nn.tanh_forward(h2)
            y, c4 = nn.convtranspose1d_time_major_forward(h3, w2, np.zeros(2), stride=2,
                                                          padding=1)
            loss, gl = nn.mse_loss(y, target)
            g = nn.convtranspose1d_time_major_backward(c4, gl).input_grad
            g = nn.tanh_backward(c3, g).input_grad
            g = nn.maxpool1d_time_major_backward(c2, g).input_grad
            g = nn.conv1d_time_major_backward(c1, g).input_grad
            return loss, g

        assert nn.finite_difference_check(fn, time_major(rng.normal(size=(1, 2, 8)))) < 1e-4


class TestConv1dForwardIsTheTimeMajorOp:
    """The one batch-first op left: the time-major op between two layout swaps."""

    @edge_cases
    def test_same_bits_and_context(self, rng, geometry, layout):
        o, tm = _edge_operands(rng, geometry, layout)
        y, ctx = nn.conv1d_forward(_in_layout(o["x"], layout), tm["w"], o["b_out"], o["stride"],
                                   o["pad"])
        y_tm, ctx_tm = nn.conv1d_time_major_forward(tm["x"], tm["w"], o["b_out"], o["stride"],
                                                    o["pad"])
        assert type(ctx) is type(ctx_tm)
        expected = time_major(y_tm)
        assert y.shape == expected.shape and y.dtype == expected.dtype
        assert y.tobytes() == expected.tobytes()

    def test_unbatched_input_rejected(self, rng):
        # named by its own check, not the time-major op's
        with pytest.raises(ValueError, match=r"^conv1d: expected a batch with 3 dims, got shape "
                                             r"\(3, 9\)$"):
            nn.conv1d_forward(rng.normal(size=(3, 9)), rng.normal(size=(4, 3, 3)), np.zeros(4))
