"""Differentiable numeric kernels for 1D signals, plus Adam and gradient checking.

All arrays are 64-bit floats. Convolution uses the cross-correlation
convention (no kernel flip). Each forward pass returns an explicit context
object that the matching backward pass consumes, so ops stay pure and are
safe to call concurrently on disjoint data.

Kernel layout. The kernels run time-major: activations are ``(T, C, N)``,
the batch in the columns, so that any run of ``L`` consecutive time steps
of a batch is one contiguous ``(L·C, N)`` block. Each op is a few matmuls
against such windows, taken by :func:`_windowed_matmul` as a read-only
strided view of a C-contiguous buffer (the op's own copy when the caller's
array is not contiguous: a view of that would read the wrong memory); the
few windows that run past either end are multiplied from their in-range
steps alone, so nothing is padded. The ops:

- :func:`conv1d_time_major_forward`: one matmul of the ``(C_out, K·C_in)``
  tap-major kernel matrix against all ``T_out`` windows of ``K`` input
  steps (:func:`_conv`).
- :func:`convtranspose1d_time_major_forward`, and the input gradient of
  the convolution: polyphase (Dumoulin & Visin, 2016), one matmul per
  output phase against windows of the consecutive input steps it reads,
  with the taps reversed (:func:`_transposed_conv`).
- :func:`convtranspose1d_time_major_backward`: the input gradient is
  :func:`_conv` of the gradient, a stride-``s`` window view of it; the
  kernel gradients of both convolutions are one batched matmul of each
  narrow step against the window of wide steps it meets, summed over time
  (:func:`_windowed_grads`).
- :func:`maxpool1d_time_major_forward`: the window offsets are strided
  views of the outer time axis, compared in turn.

A trial's bits depend on how many trials share a matmul (the BLAS blocking
of its columns), so a caller that needs the same bits however it splits
its trials runs them in fixed blocks of columns.

The batch-first ops (``conv1d_forward``, ``convtranspose1d_forward``,
``maxpool1d_forward`` and their backward passes) are adapters: each swaps
``(N, C, T)`` activations to ``(T, C, N)``, calls its time-major op, swaps
the result back and returns that op's own context; an unbatched input
raises ``ValueError`` naming the op and the shape. ``dense`` takes ``(N,
D)``. Nothing in the package calls the adapters: pretraining, the encoder,
``decode`` and the frozen-decoder fits all run time-major, and ``(N, C,
T)`` stays at the data boundary (files and the public ``autoencoder``
signatures). Only the first encoder convolution's kernel gradient reads
the trials' own ``(N, C, T)`` rows, summed per kernel tap over the batch
(:func:`_kernel_grads`, Chellapilla, Puri & Simard, 2006): there the
windowed form took 3.6 ms against 2.0 ms summed per tap (32 trials at
32×200, ``beta``). Unlike a channels-last or channel-major folding of the
batch, or one GEMM plus an overlap-add, every window here is one
contiguous block of memory.

Gram band. For a transposed convolution ``A`` with kernel ``K`` and stride
``s``, inputs more than ``w = ceil(K/s) - 1`` time steps apart write no
common output, so ``G = AᵀA`` is block-banded in time.
:func:`transposed_conv_gram_band` sums its ``2w+1`` block diagonals from
the kernel tap pairs that write a common output, with no dense ``G``, and
stores them side by side; :func:`gram_band_matmul` applies them to the
``2w+1`` consecutive input steps around each step: one matmul batched over
the steps whose window lies inside the input, and one product each for the
``2w`` edge steps, with no padded copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LayerGrad:
    """Gradients from one backward pass: w.r.t. the input and each parameter."""

    input_grad: np.ndarray | None  # None when the caller did not ask for it
    param_grads: dict[str, np.ndarray]


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_batch(x: np.ndarray, ndim: int, what: str) -> None:
    if x.ndim != ndim:
        raise ValueError(f"{what}: expected a batch with {ndim} dims, got shape {x.shape}")


def _match_grad(grad, ref_shape: tuple[int, ...], what: str) -> np.ndarray:
    g = _as_f64(grad)
    if g.shape != ref_shape:
        raise ValueError(f"{what}: upstream grad shape {g.shape} != output shape {ref_shape}")
    return g


def _swap_layout(a) -> np.ndarray:
    """``(N, C, T)`` <-> ``(T, C, N)``, as a C-contiguous f64 array; an array of
    another rank has its axes reversed too, for the op's shape check to name."""
    return np.ascontiguousarray(_as_f64(a).T)


def conv_output_length(t: int, kernel: int, stride: int, padding: int) -> int:
    """Output length of a strided cross-correlation."""
    return (t + 2 * padding - kernel) // stride + 1


def convtranspose_output_length(t: int, kernel: int, stride: int, padding: int) -> int:
    """Output length of the adjoint (transposed) operator with the same geometry."""
    return (t - 1) * stride + kernel - 2 * padding


def _tap_slices(j: int, narrow_len: int, wide_len: int, stride: int, padding: int):
    """Slices one kernel tap connects, or None if padding crops the whole tap.

    Narrow position ``i`` (a conv1d output, or a convtranspose1d input)
    meets wide position ``i*stride + j - padding`` (the conv1d input it
    reads, or the convtranspose1d output it writes). Returns the narrow
    positions whose partner lies in ``[0, wide_len)`` and the matching
    strided wide slice.
    """
    lo = max(0, -((j - padding) // stride))
    hi = min(narrow_len, (wide_len - 1 + padding - j) // stride + 1)
    if hi <= lo:
        return None
    start = lo * stride + j - padding
    return slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)


def _check_stride_padding(stride: int, padding: int) -> None:
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")


# ---------------------------------------------------------------------------
# Windows of consecutive time steps
# ---------------------------------------------------------------------------


def _windows(a: np.ndarray, count: int, start: int, step: int, length: int):
    """Window ``v`` of ``count`` is steps ``start + v·step ...`` ``+ length - 1`` of
    the C-contiguous ``(T, C, N)`` array ``a``. Returns ``(lo, hi, view)``:
    windows ``lo ... hi-1`` lie wholly inside ``a``, and ``view`` is them as a
    read-only ``(hi-lo, length·C, N)`` strided view (None if there are none)."""
    t, c, n = a.shape
    lo = min(count, max(0, -(start // step)))  # first window starting at or after step 0
    hi = max(lo, min(count, (t - length - start) // step + 1))  # first ending past T
    if hi == lo:
        return lo, hi, None
    # a view of a's buffer, which checks that it stays inside it; strides from
    # the shape, as a C-contiguous array may carry any stride on a size-1 axis
    step_bytes = c * n * a.itemsize
    view = np.ndarray((hi - lo, length * c, n), a.dtype, a, (start + lo * step) * step_bytes,
                      (step * step_bytes, n * a.itemsize, a.itemsize))
    view.flags.writeable = False
    return lo, hi, view


def _windowed_matmul(mat: np.ndarray, a: np.ndarray, out: np.ndarray, start: int,
                     step: int, length: int) -> np.ndarray:
    """``out[v] = mat_v @ a[start + v·step : start + v·step + length]``, the
    window of ``length`` consecutive time steps of ``a`` read as one
    ``(length·C, N)`` block, steps outside ``a`` as zeros; in place.

    ``a`` is time-major ``(T, C, N)`` and C-contiguous. ``mat`` is one
    ``(C_out, length·C)`` matrix or one per output step, ``(len(out), C_out,
    length·C)``. The windows wholly inside ``a`` are one matmul on a
    strided view of it; each of the others multiplies the columns of
    ``mat`` its in-range steps meet.
    """
    t, c, n = a.shape
    lo, hi, view = _windows(a, len(out), start, step, length)
    if view is not None:
        np.matmul(mat if mat.ndim == 2 else mat[lo:hi], view, out=out[lo:hi])
    for v in [*range(lo), *range(hi, len(out))]:
        first = start + v * step
        a_lo, a_hi = max(0, first), min(t, first + length)
        mat_v = mat if mat.ndim == 2 else mat[v]
        if a_hi <= a_lo:
            out[v] = 0.0
        else:
            np.matmul(mat_v[:, (a_lo - first) * c : (a_hi - first) * c],
                      a[a_lo:a_hi].reshape(-1, n), out=out[v])
    return out


def _windowed_grads(narrow: np.ndarray, wide: np.ndarray, start: int, step: int,
                    length: int) -> np.ndarray:
    """``Σ_v narrow[v] @ window_vᵀ``, ``(C_narrow, length·C_wide)``: the kernel
    gradient, tap-major, of a convolution between the C-contiguous time-major
    ``narrow`` and ``wide``, window ``v`` being the ``length`` steps of ``wide``
    that :func:`_windowed_matmul` reads for step ``v`` (steps outside it as
    zeros). One batched matmul over the windows inside ``wide``, summed over
    them, plus one product per edge window."""
    t, c, n = wide.shape
    lo, hi, view = _windows(wide, len(narrow), start, step, length)
    grads = np.zeros((narrow.shape[1], length * c))
    if view is not None:
        grads += np.matmul(narrow[lo:hi], view.transpose(0, 2, 1)).sum(axis=0)
    for v in [*range(lo), *range(hi, len(narrow))]:
        first = start + v * step
        a_lo, a_hi = max(0, first), min(t, first + length)
        if a_hi > a_lo:
            grads[:, (a_lo - first) * c : (a_hi - first) * c] += (
                narrow[v] @ wide[a_lo:a_hi].reshape(-1, n).T)
    return grads


def _conv(out: np.ndarray, x: np.ndarray, kernels: np.ndarray, stride: int,
          padding: int) -> np.ndarray:
    """The strided cross-correlation of the C-contiguous time-major ``x`` with
    ``(C_out, C_in, K)`` kernels, no bias, into ``out`` ``(T_out, C_out, N)``:
    output step ``u`` is the ``(C_out, K·C_in)`` tap-major kernel matrix
    times input steps ``u·s - p ... u·s - p + K - 1``."""
    c_out, c_in, k = kernels.shape
    taps = kernels.transpose(0, 2, 1).reshape(c_out, k * c_in)
    return _windowed_matmul(taps, x, out, -padding, stride, k)


def _transposed_conv(out: np.ndarray, x: np.ndarray, kernels: np.ndarray, stride: int,
                     padding: int) -> np.ndarray:
    """The transposed convolution of the C-contiguous time-major ``x`` with
    ``(C_in, C_out, K)`` kernels, no bias, into ``out`` ``(T_out, C_out, N)``,
    polyphase.

    Output phase ``φ`` (the steps ``φ, φ+s, ...``) receives only the taps
    ``j ≡ φ + padding (mod s)``, output step ``u`` of the phase from the
    consecutive input steps ``u-m+1 ... u`` (``m ≤ ⌈K/s⌉`` taps). So a phase
    is one matmul of its taps, reversed, ``(C_out, m·C_in)``, against
    windows of ``x``, written straight into ``out[φ::s]``; a phase with no
    tap (stride > kernel) is zero. ``out`` may be longer than the transposed
    convolution's output (a convolution's input gradient whose last steps
    no output reads): those steps come out zero.
    """
    c_in, c_out, k = kernels.shape
    for phase in range(min(stride, len(out))):
        r = (phase + padding) % stride  # the phase's first tap
        m = len(range(r, k, stride))  # and how many it has
        y = out[phase::stride]
        if m == 0:
            y[...] = 0.0
            continue
        # output step u of the phase reads inputs u-m+1 ... u, with taps r+(m-1)s ... r
        taps = kernels[:, :, r + (m - 1) * stride :: -stride]
        _windowed_matmul(taps.transpose(1, 2, 0).reshape(c_out, m * c_in), x, y,
                         (phase + padding) // stride - m + 1, 1, m)
    return out


def _kernel_grads(narrow: np.ndarray, padded: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Kernel gradients ``(narrow.shape[1], padded.shape[1], k)`` of batch-first
    ``(N, C, T)`` arrays: tap ``j`` is ``narrow @ window.T`` summed over the
    batch, ``window`` being the taps' strided slice of the zero-padded wide
    array."""
    span = (narrow.shape[2] - 1) * stride + 1
    grads = np.empty((narrow.shape[1], padded.shape[1], k))
    for j in range(k):
        window = padded[:, :, j : j + span : stride]
        grads[:, :, j] = np.matmul(narrow, window.transpose(0, 2, 1)).sum(axis=0)
    return grads


def _untap(grads: np.ndarray, k: int) -> np.ndarray:
    """Tap-major ``(C_a, K·C_b)`` kernel gradients as ``(C_a, C_b, K)``."""
    return grads.reshape(len(grads), k, -1).transpose(0, 2, 1)


def _time_major_operands(x, kernels, bias, in_axis: int, what: str, stride: int,
                         padding: int):
    """``x`` as a C-contiguous f64 array and the f64 ``kernels`` and ``bias`` of a
    time-major convolution (kernels ``(C_out, C_in, K)``, ``in_axis`` 1) or
    transposed convolution (``(C_in, C_out, K)``, 0), their shapes checked."""
    x = np.ascontiguousarray(_as_f64(x))
    kernels = _as_f64(kernels)
    bias = _as_f64(bias)
    if x.ndim != 3 or kernels.ndim != 3 or x.shape[1] != kernels.shape[in_axis]:
        layout = ("(C_in, C_out, K)", "(C_out, C_in, K)")[in_axis]
        raise ValueError(f"{what}: input {x.shape} and kernels {kernels.shape} are not "
                         f"(T, C_in, N) and {layout}")
    c_out = kernels.shape[1 - in_axis]
    if bias.shape != (c_out,):
        raise ValueError(f"{what}: bias shape {bias.shape} != ({c_out},)")
    _check_stride_padding(stride, padding)
    return x, kernels, bias


# ---------------------------------------------------------------------------
# Time-major convolution, transposed convolution and max pooling
# ---------------------------------------------------------------------------


@dataclass
class Conv1dTimeMajorCtx:
    x: np.ndarray  # (T_in, C_in, N), C-contiguous
    kernels: np.ndarray  # (C_out, C_in, K)
    stride: int
    padding: int
    out_shape: tuple[int, ...]  # (T_out, C_out, N)


def conv1d_time_major_forward(x, kernels, bias, stride: int = 1, padding: int = 0):
    """Strided 1D cross-correlation of time-major ``(T, C_in, N)`` input.

    kernels: (C_out, C_in, K); bias: (C_out,). Returns the ``(T_out, C_out,
    N)`` output, ``T_out = (T + 2p - K)//stride + 1``, one matmul of the
    tap-major kernel matrix against all windows (:func:`_conv`) plus the
    bias, and a context for :func:`conv1d_time_major_backward`.
    """
    x, kernels, bias = _time_major_operands(x, kernels, bias, 1, "conv1d_time_major", stride,
                                            padding)
    c_out, _, k = kernels.shape
    t, _, n = x.shape
    if k > t + 2 * padding:
        raise ValueError(f"kernel length {k} exceeds padded input length {t} + 2*{padding}")
    y = _conv(np.empty((conv_output_length(t, k, stride, padding), c_out, n)), x, kernels,
              stride, padding)
    y += bias[:, None]
    return y, Conv1dTimeMajorCtx(x, kernels, stride, padding, y.shape)


def conv1d_time_major_backward(ctx: Conv1dTimeMajorCtx, upstream_grad,
                               rows=None) -> LayerGrad:
    """Gradients of a :func:`conv1d_time_major_forward` call w.r.t. input,
    kernels and bias.

    The input gradient is the transposed convolution of the gradient with
    the same kernels (:func:`_transposed_conv`); the kernel gradient sums
    each output step against its input window (:func:`_windowed_grads`).
    ``rows``, the same input as ``(N, C_in, T)``, marks it as data, whose
    gradient nothing needs: the input gradient is then skipped
    (``input_grad`` None) and the kernel gradient summed per tap over the
    trials of ``rows`` (:func:`_kernel_grads`), the faster form for a wide
    input.
    """
    g = np.ascontiguousarray(_match_grad(upstream_grad, ctx.out_shape,
                                         "conv1d_time_major_backward"))
    k = ctx.kernels.shape[2]
    if rows is None:
        grad_kernels = _untap(_windowed_grads(g, ctx.x, -ctx.padding, ctx.stride, k), k)
        grad_x = _transposed_conv(np.empty(ctx.x.shape), g, ctx.kernels, ctx.stride, ctx.padding)
    else:
        p = ctx.padding
        grad_kernels = _kernel_grads(_swap_layout(g), np.pad(rows, ((0, 0), (0, 0), (p, p))),
                                     k, ctx.stride)
        grad_x = None
    return LayerGrad(grad_x, {"kernels": grad_kernels, "bias": g.sum(axis=(0, 2))})


@dataclass
class ConvTranspose1dTimeMajorCtx:
    x: np.ndarray  # (T_in, C_in, N), C-contiguous
    kernels: np.ndarray  # (C_in, C_out, K)
    stride: int
    padding: int
    out_shape: tuple[int, ...]  # (T_out, C_out, N)


def convtranspose1d_time_major_forward(x, kernels, bias, stride: int = 1, padding: int = 0):
    """Transposed 1D convolution of time-major ``(T, C_in, N)`` input.

    kernels: (C_in, C_out, K); bias: (C_out,). Returns the ``(T_out, C_out,
    N)`` output, ``T_out = (T-1)*stride + K - 2p``, polyphase
    (:func:`_transposed_conv`) plus the bias, added once at the end, and a
    context for :func:`convtranspose1d_time_major_backward`. With matching
    geometry this operator is the adjoint of
    :func:`conv1d_time_major_forward` under the Frobenius inner product.
    """
    x, kernels, bias = _time_major_operands(x, kernels, bias, 0, "convtranspose1d_time_major",
                                            stride, padding)
    _, c_out, k = kernels.shape
    t, _, n = x.shape
    t_out = convtranspose_output_length(t, k, stride, padding)
    if t_out < 1:
        raise ValueError(f"convtranspose1d_time_major: output length ({t}-1)*{stride} + {k} "
                         f"- 2*{padding} = {t_out} < 1")
    y = _transposed_conv(np.empty((t_out, c_out, n)), x, kernels, stride, padding)
    y += bias[:, None]
    return y, ConvTranspose1dTimeMajorCtx(x, kernels, stride, padding, y.shape)


def convtranspose1d_time_major_backward(ctx: ConvTranspose1dTimeMajorCtx, upstream_grad,
                                        need_param_grads: bool = True) -> LayerGrad:
    """Gradients of a :func:`convtranspose1d_time_major_forward` call.

    Input step ``i`` reads the ``K`` consecutive gradient steps ``i·s - p
    ... i·s - p + K - 1``, so the input gradient ``(T_in, C_in, N)`` is one
    matmul against a stride-``s`` window view of ``g`` (:func:`_conv`); the
    kernel gradient sums each input step against that same window
    (:func:`_windowed_grads`). ``need_param_grads=False`` (a frozen decoder)
    returns no parameter gradients.
    """
    g = np.ascontiguousarray(_match_grad(upstream_grad, ctx.out_shape,
                                         "convtranspose1d_time_major_backward"))
    grad_x = _conv(np.empty(ctx.x.shape), g, ctx.kernels, ctx.stride, ctx.padding)
    if not need_param_grads:
        return LayerGrad(grad_x, {})
    k = ctx.kernels.shape[2]
    return LayerGrad(grad_x, {
        "kernels": _untap(_windowed_grads(ctx.x, g, -ctx.padding, ctx.stride, k), k),
        "bias": g.sum(axis=(0, 2))})


@dataclass
class MaxPool1dTimeMajorCtx:
    x: np.ndarray  # (T, C, N)
    y: np.ndarray  # (T_out, C, N)
    window: int
    stride: int

    def winner_masks(self):
        """``(i, mask)`` for each window offset ``i``: where the offset holds its
        window's maximum and no lower offset does, so ties go to the lowest."""
        views = _offset_views(self.x, self.window, self.stride, len(self.y))
        taken = np.zeros(self.y.shape, dtype=bool)
        for i, view in enumerate(views):
            mask = view == self.y
            mask &= ~taken
            taken |= mask
            yield i, mask


def _offset_views(a: np.ndarray, window: int, stride: int, t_out: int) -> list[np.ndarray]:
    """Offset ``i`` of every pooling window of time-major ``a``: ``(T_out, C, N)`` views."""
    span = (t_out - 1) * stride + 1
    return [a[i : i + span : stride] for i in range(window)]


def maxpool1d_time_major_forward(x, window: int, stride: int):
    """Strided max pooling along the outer time axis of time-major ``(T, C, N)`` input.

    Window offset ``i`` of every window is one strided view of ``x``, and
    the output is their elementwise maximum. The backward pass routes each
    window's gradient to its first maximum, so ties break to the lowest
    index. Returns ``(output, ctx)``.
    """
    x = _as_f64(x)
    if x.ndim != 3:
        raise ValueError(f"maxpool1d_time_major: expected (T, C, N), got shape {x.shape}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    t = x.shape[0]
    if window > t:
        raise ValueError(f"maxpool1d: window {window} exceeds input length {t}")
    views = _offset_views(x, window, stride, (t - window) // stride + 1)
    y = views[0].copy()
    for view in views[1:]:
        np.maximum(y, view, out=y)
    return y, MaxPool1dTimeMajorCtx(x, y, window, stride)


def maxpool1d_time_major_backward(ctx: MaxPool1dTimeMajorCtx, upstream_grad) -> LayerGrad:
    """Route the upstream gradient to each window's first maximum, offset by
    offset (:meth:`MaxPool1dTimeMajorCtx.winner_masks`). Windows no longer
    than the stride have distinct winners, so each offset's share is
    assigned; overlapping windows add it, the last offset first, so a
    position that wins several windows sums their gradients in window order."""
    g = _match_grad(upstream_grad, ctx.y.shape, "maxpool1d_time_major_backward")
    grad_x = np.zeros(ctx.x.shape)
    views = _offset_views(grad_x, ctx.window, ctx.stride, len(g))
    masks = list(ctx.winner_masks())
    if ctx.window <= ctx.stride:
        for i, mask in masks:
            np.multiply(g, mask, out=views[i])
    else:
        for i, mask in reversed(masks):
            views[i] += g * mask
    return LayerGrad(grad_x, {})


# ---------------------------------------------------------------------------
# Batch-first (N, C, T) adapters over the time-major ops
# ---------------------------------------------------------------------------


def _to_time_major(x, what: str) -> np.ndarray:
    """A batch-first op's ``(N, C, T)`` input as ``(T, C, N)``."""
    x = _as_f64(x)
    _check_batch(x, 3, what)
    return _swap_layout(x)


def _batch_first(lg: LayerGrad) -> LayerGrad:
    """A time-major backward pass's gradients, the input gradient as ``(N, C, T)``."""
    lg.input_grad = _swap_layout(lg.input_grad)
    return lg


def conv1d_forward(x, kernels, bias, stride: int = 1, padding: int = 0):
    """Strided 1D cross-correlation of ``(N, C_in, T)`` input:
    :func:`conv1d_time_major_forward`, its output ``(N, C_out, T_out)`` and context."""
    y, ctx = conv1d_time_major_forward(_to_time_major(x, "conv1d"), kernels, bias, stride, padding)
    return _swap_layout(y), ctx


def conv1d_backward(ctx: Conv1dTimeMajorCtx, upstream_grad) -> LayerGrad:
    """:func:`conv1d_time_major_backward` of an ``(N, C_out, T_out)`` gradient."""
    return _batch_first(conv1d_time_major_backward(ctx, _swap_layout(upstream_grad)))


def convtranspose1d_forward(x, kernels, bias, stride: int = 1, padding: int = 0):
    """Transposed 1D convolution of ``(N, C_in, T)`` input:
    :func:`convtranspose1d_time_major_forward`, its output ``(N, C_out, T_out)``
    and context."""
    y, ctx = convtranspose1d_time_major_forward(_to_time_major(x, "convtranspose1d"), kernels,
                                                bias, stride, padding)
    return _swap_layout(y), ctx


def convtranspose1d_backward(ctx: ConvTranspose1dTimeMajorCtx, upstream_grad) -> LayerGrad:
    """:func:`convtranspose1d_time_major_backward` of an ``(N, C_out, T_out)`` gradient."""
    return _batch_first(convtranspose1d_time_major_backward(ctx, _swap_layout(upstream_grad)))


def maxpool1d_forward(x, window: int, stride: int):
    """Strided max pooling along the time axis of ``(N, C, T)`` input:
    :func:`maxpool1d_time_major_forward`, its output and context."""
    y, ctx = maxpool1d_time_major_forward(_to_time_major(x, "maxpool1d"), window, stride)
    return _swap_layout(y), ctx


def maxpool1d_backward(ctx: MaxPool1dTimeMajorCtx, upstream_grad) -> LayerGrad:
    """:func:`maxpool1d_time_major_backward` of an ``(N, C, T_out)`` gradient."""
    return _batch_first(maxpool1d_time_major_backward(ctx, _swap_layout(upstream_grad)))


# ---------------------------------------------------------------------------
# Gram matrix of a transposed convolution, as a block band in time
# ---------------------------------------------------------------------------


def gram_bandwidth(kernel: int, stride: int) -> int:
    """How many time steps apart two inputs of a transposed convolution can be
    and still write a common output: ``ceil(kernel / stride) - 1``."""
    return (kernel - 1) // stride


def transposed_conv_gram_band(kernels, stride: int, padding: int, length: int) -> np.ndarray:
    """``G = AᵀA`` for the transposed convolution ``A`` of ``(C_in, length)``
    inputs, as a block band.

    kernels: (C_in, C_out, K). With ``w`` the :func:`gram_bandwidth`, returns
    ``band`` of shape ``(length, C_in, (2w+1)*C_in)`` where ``band[t, c,
    d*C_in + c']`` is ``G[(c, t), (c', t+d-w)]``, zero where ``t+d-w`` is out
    of range. Tap ``j`` of step ``t`` writes output ``t*s - p + j`` (Dumoulin
    & Visin, 2016), as does tap ``j2 ≡ j (mod s)`` of step ``t + (j-j2)/s``:
    each such pair adds ``kernels[:, :, j] @ kernels[:, :, j2].T`` to block
    ``d = (j-j2)/s + w`` of every step ``t`` that padding does not crop and
    whose partner step exists. A block and its mirror sum the same pairs in
    the same order, so the band is exactly symmetric.
    """
    kernels = _as_f64(kernels)
    if kernels.ndim != 3:
        raise ValueError(f"transposed_conv_gram_band: kernels must be (C_in, C_out, K), "
                         f"got shape {kernels.shape}")
    _check_stride_padding(stride, padding)
    c_in, _, k = kernels.shape
    w = gram_bandwidth(k, stride)
    wide_len = convtranspose_output_length(length, k, stride, padding)
    band = np.zeros((length, c_in, 2 * w + 1, c_in))
    for j in range(k):
        taps = _tap_slices(j, length, wide_len, stride, padding)
        if taps is None:
            continue
        steps = taps[0]
        for j2 in range(j % stride, k, stride):
            shift = (j - j2) // stride  # step t's tap j meets step t+shift's tap j2
            if abs(shift) > w:
                raise ValueError(f"transposed_conv_gram_band: G has nonzero blocks more than "
                                 f"{w} time steps off the diagonal (kernel {k}, stride {stride})")
            lo, hi = max(steps.start, -shift), min(steps.stop, length - shift)
            band[lo:hi, :, shift + w] += kernels[:, :, j] @ kernels[:, :, j2].T
    return band.reshape(length, c_in, (2 * w + 1) * c_in)


def gram_band_matmul(band, x) -> np.ndarray:
    """``G x`` for a ``band`` from :func:`transposed_conv_gram_band`.

    x: time-major ``(T, C_in, N)``, the batch in the columns; the result has
    the same layout. Step ``t`` of the result is ``band[t]`` times the
    ``2w+1`` consecutive input steps ``t-w ... t+w`` as one ``((2w+1)·C_in,
    N)`` block: one matmul of ``band[w:T-w]`` against the window view of a
    contiguous ``x``, plus one product for each of the ``2w`` edge steps over
    the input steps that exist. ``T <= 2w`` leaves edge steps only.
    """
    x = _as_f64(x)
    t, c, _ = x.shape
    width = band.shape[2] // c
    if band.shape[:2] != (t, c) or width % 2 != 1 or band.shape[2] != width * c:
        raise ValueError(f"gram_band_matmul: band shape {band.shape} does not fit input "
                         f"shape {x.shape}")
    w = width // 2
    return _windowed_matmul(band, np.ascontiguousarray(x), np.empty(x.shape), -w, 1, width)


# ---------------------------------------------------------------------------
# Dense (affine) layer and tanh
# ---------------------------------------------------------------------------


@dataclass
class DenseCtx:
    x: np.ndarray  # (N, D)
    weight: np.ndarray
    out_shape: tuple[int, ...]


def dense_forward(x, weight, bias):
    """Affine map y = W x + b per row. x: (N, D); weight: (H, D); bias: (H,)."""
    x = _as_f64(x)
    weight = _as_f64(weight)
    bias = _as_f64(bias)
    _check_batch(x, 2, "dense")
    if weight.ndim != 2:
        raise ValueError(f"dense: weight must be 2-dim, got shape {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"dense: input width {x.shape[1]} (shape {x.shape}) != weight input "
            f"dim {weight.shape[1]} (shape {weight.shape})"
        )
    if bias.shape != (weight.shape[0],):
        raise ValueError(f"dense: bias shape {bias.shape} != ({weight.shape[0]},)")
    y = x @ weight.T + bias
    return y, DenseCtx(x, weight, y.shape)


def dense_backward(ctx: DenseCtx, upstream_grad) -> LayerGrad:
    g = _match_grad(upstream_grad, ctx.out_shape, "dense_backward")
    return LayerGrad(g @ ctx.weight, {"weight": g.T @ ctx.x, "bias": g.sum(axis=0)})


@dataclass
class TanhCtx:
    y: np.ndarray


def tanh_forward(x):
    y = np.tanh(_as_f64(x))
    return y, TanhCtx(y)


def tanh_backward(ctx: TanhCtx, upstream_grad) -> LayerGrad:
    g = _match_grad(upstream_grad, ctx.y.shape, "tanh_backward")
    grad = ctx.y * ctx.y
    np.subtract(1.0, grad, out=grad)
    grad *= g  # g * (1 - y²), bit for bit, in one buffer
    return LayerGrad(grad, {})


# ---------------------------------------------------------------------------
# MSE loss
# ---------------------------------------------------------------------------


def mse_loss(pred, target) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements and its gradient w.r.t. pred."""
    pred = _as_f64(pred)
    target = _as_f64(target)
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss: pred shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    loss = float(np.vdot(diff, diff) / diff.size)
    diff *= 2.0 / diff.size
    return loss, diff


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Decay rates of the moment estimates and the denominator guard, after the
# framework convention; only the learning rate varies between callers.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the learning rate."""

    lr: float
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def adam_init(params: dict[str, np.ndarray], lr: float) -> AdamState:
    state = AdamState(lr=lr)
    for name, p in params.items():
        state.first_moment[name] = np.zeros_like(p)
        state.second_moment[name] = np.zeros_like(p)
    return state


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, weight_decay: float = 0.0):
    """One bias-corrected Adam update, in place.

    ``weight_decay`` adds wd * param to the gradient before the moment
    updates (classic coupled L2 behavior). Returns (params, state).
    """
    if set(grads) != set(params):
        raise ValueError(
            f"adam_step: grad names {sorted(grads)} != param names {sorted(params)}"
        )
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"adam_step: grad shape {g.shape} != param shape {p.shape} for {name!r}"
            )
        if weight_decay:
            g = g + weight_decay * p
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
    return params, state


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


def finite_difference_check(fn, point, eps: float = 1e-5) -> float:
    """Worst-element relative error of an analytic gradient vs central differences.

    ``fn(x)`` must return ``(scalar_loss, grad_like_x)``. Each element is
    compared as |analytic - numeric| / max(|numeric|, 1e-3 * ||numeric||_inf,
    1e-8): elements three orders of magnitude below the gradient's own scale
    are measured against that scale, so differentiation noise on negligible
    components cannot dominate. A gradient wrong by a factor of two still
    reports an error of exactly 1 at its largest element.
    """
    point = _as_f64(point)
    _, analytic = fn(point)
    analytic = _as_f64(analytic)
    if analytic.shape != point.shape:
        raise ValueError(
            f"finite_difference_check: grad shape {analytic.shape} != point shape {point.shape}"
        )
    numeric = np.zeros_like(point)
    flat = point.ravel()
    num_flat = numeric.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up, _ = fn(point)
        flat[i] = orig - eps
        down, _ = fn(point)
        flat[i] = orig
        num_flat[i] = (up - down) / (2.0 * eps)
    if numeric.size == 0:
        return 0.0
    scale = float(np.abs(numeric).max())
    denom = np.maximum(np.abs(numeric), max(1e-3 * scale, 1e-8))
    rel = np.abs(analytic - numeric) / denom
    return float(rel.max())
