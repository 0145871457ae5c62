"""Differentiable numeric kernels for 1D signals, plus Adam and gradient checking.

All arrays are 64-bit floats. Convolution uses the cross-correlation
convention (no kernel flip). Each forward pass returns an explicit context
object that the matching backward pass consumes, so ops stay pure and are
safe to call concurrently on disjoint data.

The convolution, pooling and dense ops take a batch only: ``(N, C, T)``
activations, ``(N, D)`` for ``dense``. An unbatched input raises
``ValueError`` naming the op and the shape.

Kernel layout. Activations are ``(N, C, T)`` with time contiguous.
Convolutions run as one GEMM per kernel tap (Chellapilla, Puri & Simard,
2006), batched over ``N`` by ``np.matmul``, so no window tensor is ever
materialised. Each of three helpers holds one per-tap GEMM pattern:
:func:`_add_conv` (strided cross-correlation of a padded input),
:func:`_add_transposed_conv` (its adjoint) and :func:`_kernel_grads`
(per-tap kernel gradients summed over ``N``). The four ops are built
from them:

- ``conv1d_forward``: ``_add_conv`` of the zero-padded input, from the bias.
- ``conv1d_backward``: ``_kernel_grads`` of ``g`` against the padded input;
  the input gradient, unless skipped, is ``_add_transposed_conv`` of ``g``.
- ``convtranspose1d_forward``: ``_add_transposed_conv`` into a contiguous,
  already cropped output, from the bias.
- ``convtranspose1d_backward``: the forward convolution of the zero-padded
  ``g`` (Dumoulin & Visin, 2016). ``_add_conv`` of it is the input gradient;
  ``_kernel_grads`` of the saved input against it is the kernel gradient.

:func:`_tap_slices` gives each transposed-convolution tap's in-range
positions, so strides larger than the kernel and padding that crops whole
taps need no special case.

Time-major layout. The frozen-decoder fits of ``encoding`` keep their
activations as ``(T, C, N)``, the batch in the columns, so that any run of
``L`` consecutive time steps of a batch is one contiguous ``(L·C, N)``
block. Each time-major op is a few matmuls against such windows, taken by
:func:`_windowed_matmul` as a read-only strided view of a C-contiguous
buffer (the op's own copy when the caller's array is not contiguous: a
view of that would read the wrong memory); the few windows that run past
either end are multiplied from their in-range steps alone, so nothing is
padded. :func:`convtranspose1d_time_major_forward` is polyphase (Dumoulin
& Visin, 2016), one matmul per output phase;
:func:`convtranspose1d_time_major_backward` is one matmul against a
stride-``s`` window view of the gradient and returns no parameter
gradients, as a frozen decoder needs none; :func:`gram_band_matmul` is
below.

Each layout serves its own traffic. A fit's hidden layer is small
(``beta``: 10×20 -> 16×40), so per trial its per-tap GEMMs are tiny, and
folding the batch into the columns makes a few large ones. Pretraining,
``decode`` and the encoder run ``(N, C, T)``: at their shapes a
one-GEMM-plus-overlap-add form made the output layer's transposed
convolution 2.6× slower (6.8 -> 17.7 ms at batch 128, 32×200).

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
from numpy.lib.stride_tricks import as_strided, sliding_window_view


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


def _add_conv(out: np.ndarray, padded: np.ndarray, kernels: np.ndarray,
              stride: int) -> np.ndarray:
    """Add the strided cross-correlation of ``padded`` into ``out``, in place.

    Tap ``j`` adds ``kernels[:, :, j] @ padded[:, :, j : j+span : stride]``.
    """
    span = (out.shape[2] - 1) * stride + 1
    for j in range(kernels.shape[2]):
        out += np.matmul(kernels[:, :, j], padded[:, :, j : j + span : stride])
    return out


def _add_transposed_conv(wide: np.ndarray, narrow: np.ndarray, kernels: np.ndarray,
                         stride: int, padding: int) -> np.ndarray:
    """Add the transposed convolution of ``narrow`` into ``wide``, in place.

    Tap ``j`` adds ``kernels[:, :, j].T @ narrow`` at the wide positions it
    reaches. This is convtranspose1d's forward pass (kernels ``(C_in,
    C_out, K)``) and conv1d's input gradient (kernels ``(C_out, C_in, K)``).
    """
    for j in range(kernels.shape[2]):
        taps = _tap_slices(j, narrow.shape[2], wide.shape[2], stride, padding)
        if taps is not None:
            narrow_pos, wide_pos = taps
            wide[:, :, wide_pos] += np.matmul(kernels[:, :, j].T, narrow[:, :, narrow_pos])
    return wide


def _kernel_grads(narrow: np.ndarray, padded: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Kernel gradients ``(narrow.shape[1], padded.shape[1], k)``: tap ``j`` is
    ``narrow @ window.T`` summed over the batch, ``window`` being the slice of
    ``padded`` that :func:`_add_conv` reads for that tap."""
    span = (narrow.shape[2] - 1) * stride + 1
    grads = np.empty((narrow.shape[1], padded.shape[1], k))
    for j in range(k):
        window = padded[:, :, j : j + span : stride]
        grads[:, :, j] = np.matmul(narrow, window.transpose(0, 2, 1)).sum(axis=0)
    return grads


def _check_stride_padding(stride: int, padding: int) -> None:
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")


# ---------------------------------------------------------------------------
# 1D convolution (cross-correlation)
# ---------------------------------------------------------------------------


@dataclass
class Conv1dCtx:
    padded: np.ndarray  # (N, C_in, T + 2p)
    kernels: np.ndarray
    stride: int
    padding: int
    in_len: int
    out_shape: tuple[int, ...]


def conv1d_forward(x, kernels, bias, stride: int = 1, padding: int = 0):
    """Strided 1D cross-correlation.

    x: (N, C_in, T); kernels: (C_out, C_in, K); bias: (C_out,).
    Returns (output, ctx) with output length (T + 2p - K)//stride + 1.
    """
    x = _as_f64(x)
    kernels = _as_f64(kernels)
    bias = _as_f64(bias)
    _check_batch(x, 3, "conv1d")
    if kernels.ndim != 3:
        raise ValueError(f"conv1d: kernels must be (C_out, C_in, K), got shape {kernels.shape}")
    if x.shape[1] != kernels.shape[1]:
        raise ValueError(
            f"conv1d: input has {x.shape[1]} channels (shape {x.shape}) but kernels "
            f"expect {kernels.shape[1]} (shape {kernels.shape})"
        )
    c_out, _, k = kernels.shape
    if bias.shape != (c_out,):
        raise ValueError(f"conv1d: bias shape {bias.shape} != ({c_out},)")
    t = x.shape[2]
    _check_stride_padding(stride, padding)
    if k > t + 2 * padding:
        raise ValueError(f"kernel length {k} exceeds padded input length {t} + 2*{padding}")

    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    y = np.empty((x.shape[0], c_out, conv_output_length(t, k, stride, padding)))
    y[:] = bias[:, None]
    _add_conv(y, padded, kernels, stride)
    return y, Conv1dCtx(padded, kernels, stride, padding, t, y.shape)


def conv1d_backward(ctx: Conv1dCtx, upstream_grad, need_input_grad: bool = True) -> LayerGrad:
    """Gradients of a conv1d_forward call w.r.t. input, kernels and bias.

    With ``need_input_grad=False`` the input gradient is not computed and
    ``input_grad`` is None; the parameter gradients are unchanged.
    """
    g = _match_grad(upstream_grad, ctx.out_shape, "conv1d_backward")
    grad_bias = g.sum(axis=(0, 2))
    grad_kernels = _kernel_grads(g, ctx.padded, ctx.kernels.shape[2], ctx.stride)

    grad_x = None
    if need_input_grad:
        grad_x = _add_transposed_conv(np.zeros(ctx.padded.shape[:2] + (ctx.in_len,)), g,
                                      ctx.kernels, ctx.stride, ctx.padding)
    return LayerGrad(grad_x, {"kernels": grad_kernels, "bias": grad_bias})


# ---------------------------------------------------------------------------
# 1D transposed convolution (exact adjoint of conv1d with the same geometry)
# ---------------------------------------------------------------------------


@dataclass
class ConvTranspose1dCtx:
    x: np.ndarray  # (N, C_in, T)
    kernels: np.ndarray
    stride: int
    padding: int
    out_shape: tuple[int, ...]


def convtranspose1d_forward(x, kernels, bias, stride: int = 1, padding: int = 0):
    """Transposed 1D convolution.

    x: (N, C_in, T); kernels: (C_in, C_out, K); bias: (C_out,).
    Output length is (T-1)*stride + K - 2*padding. With matching geometry this
    operator is the adjoint of :func:`conv1d_forward` under the Frobenius
    inner product.
    """
    x = _as_f64(x)
    kernels = _as_f64(kernels)
    bias = _as_f64(bias)
    _check_batch(x, 3, "convtranspose1d")
    if kernels.ndim != 3:
        raise ValueError(
            f"convtranspose1d: kernels must be (C_in, C_out, K), got shape {kernels.shape}"
        )
    if x.shape[1] != kernels.shape[0]:
        raise ValueError(
            f"convtranspose1d: input has {x.shape[1]} channels (shape {x.shape}) but "
            f"kernels expect {kernels.shape[0]} (shape {kernels.shape})"
        )
    _, c_out, k = kernels.shape
    if bias.shape != (c_out,):
        raise ValueError(f"convtranspose1d: bias shape {bias.shape} != ({c_out},)")
    _check_stride_padding(stride, padding)
    n, _, t = x.shape
    t_out = convtranspose_output_length(t, k, stride, padding)
    if t_out < 1:
        raise ValueError(
            f"convtranspose1d: output length ({t}-1)*{stride} + {k} - 2*{padding} = {t_out} < 1"
        )

    y = np.empty((n, c_out, t_out))
    y[:] = bias[:, None]
    _add_transposed_conv(y, x, kernels, stride, padding)
    return y, ConvTranspose1dCtx(x, kernels, stride, padding, y.shape)


def convtranspose1d_backward(ctx: ConvTranspose1dCtx, upstream_grad) -> LayerGrad:
    """Gradients of a convtranspose1d_forward call w.r.t. input, kernels and bias."""
    g = _match_grad(upstream_grad, ctx.out_shape, "convtranspose1d_backward")
    padded = np.pad(g, ((0, 0), (0, 0), (ctx.padding, ctx.padding)))
    grad_x = _add_conv(np.zeros(ctx.x.shape), padded, ctx.kernels, ctx.stride)
    return LayerGrad(grad_x, {
        "kernels": _kernel_grads(ctx.x, padded, ctx.kernels.shape[2], ctx.stride),
        "bias": g.sum(axis=(0, 2))})


# ---------------------------------------------------------------------------
# Time-major transposed convolution (no parameter gradients)
# ---------------------------------------------------------------------------


@dataclass
class ConvTranspose1dTimeMajorCtx:
    taps: np.ndarray  # (K·C_out, C_in): row j·C_out + o is kernels[:, o, j]
    stride: int
    padding: int
    in_shape: tuple[int, ...]  # (T_in, C_in, N)
    out_shape: tuple[int, ...]  # (T_out, C_out, N)


def _windowed_matmul(mat: np.ndarray, a: np.ndarray, out: np.ndarray, start: int,
                     step: int, length: int) -> np.ndarray:
    """``out[v] = mat_v @ a[start + v·step : start + v·step + length]``, the
    window of ``length`` consecutive time steps of ``a`` read as one
    ``(length·C, N)`` block, steps outside ``a`` as zeros; in place.

    ``a`` is time-major ``(T, C, N)`` and C-contiguous, so a window is one
    contiguous block. ``mat`` is one ``(C_out, length·C)`` matrix or one per
    output step, ``(len(out), C_out, length·C)``. The windows wholly inside
    ``a`` are one matmul on a read-only strided view of it; each of the
    others multiplies the columns of ``mat`` its in-range steps meet.
    """
    t, c, n = a.shape
    count = len(out)
    lo = min(count, max(0, -(start // step)))  # first window starting at or after step 0
    hi = max(lo, min(count, (t - length - start) // step + 1))  # first ending past T
    if hi > lo:
        # strides from the shape: a C-contiguous array may carry any stride on a size-1 axis
        item = a.itemsize
        windows = as_strided(a[start + lo * step :], shape=(hi - lo, length * c, n),
                             strides=(step * c * n * item, n * item, item), writeable=False)
        np.matmul(mat if mat.ndim == 2 else mat[lo:hi], windows, out=out[lo:hi])
    for v in [*range(lo), *range(hi, count)]:
        first = start + v * step
        a_lo, a_hi = max(0, first), min(t, first + length)
        mat_v = mat if mat.ndim == 2 else mat[v]
        if a_hi <= a_lo:
            out[v] = 0.0
        else:
            np.matmul(mat_v[:, (a_lo - first) * c : (a_hi - first) * c],
                      a[a_lo:a_hi].reshape(-1, n), out=out[v])
    return out


def convtranspose1d_time_major_forward(x, kernels, bias, stride: int = 1, padding: int = 0):
    """:func:`convtranspose1d_forward` on time-major ``(T, C_in, N)`` input.

    kernels: (C_in, C_out, K); bias: (C_out,). Returns the ``(T_out, C_out,
    N)`` output and a context for
    :func:`convtranspose1d_time_major_backward`. Output phase ``φ`` (the
    steps ``φ, φ+s, ...``) receives only the taps ``j ≡ φ + padding (mod
    s)``, output step ``u`` of the phase from the consecutive input steps
    ``u-m+1 ... u`` (``m ≤ ⌈K/s⌉`` taps). So a phase is one matmul of its
    taps, ``(C_out, m·C_in)``, against windows of ``x`` (copied first unless
    C-contiguous), written straight into ``y[φ::s]``; a phase with no tap
    (stride > kernel) is zero. The bias is added once, at the end.
    """
    x = _as_f64(x)
    kernels = _as_f64(kernels)
    bias = _as_f64(bias)
    if x.ndim != 3 or kernels.ndim != 3 or x.shape[1] != kernels.shape[0]:
        raise ValueError(f"convtranspose1d_time_major: input {x.shape} and kernels "
                         f"{kernels.shape} are not (T, C_in, N) and (C_in, C_out, K)")
    c_in, c_out, k = kernels.shape
    if bias.shape != (c_out,):
        raise ValueError(f"convtranspose1d_time_major: bias shape {bias.shape} != ({c_out},)")
    _check_stride_padding(stride, padding)
    t, _, n = x.shape
    t_out = convtranspose_output_length(t, k, stride, padding)
    if t_out < 1:
        raise ValueError(f"convtranspose1d_time_major: output length ({t}-1)*{stride} + {k} "
                         f"- 2*{padding} = {t_out} < 1")

    x = np.ascontiguousarray(x)
    y = np.empty((t_out, c_out, n))
    for phase in range(min(stride, t_out)):
        r = (phase + padding) % stride  # the phase's first tap
        m = len(range(r, k, stride))  # and how many it has
        out = y[phase::stride]
        if m == 0:
            out[...] = 0.0
            continue
        # output step u of the phase reads inputs u-m+1 ... u, with taps r+(m-1)s ... r
        taps = kernels[:, :, r + (m - 1) * stride :: -stride]
        _windowed_matmul(taps.transpose(1, 2, 0).reshape(c_out, m * c_in), x, out,
                         (phase + padding) // stride - m + 1, 1, m)
    y += bias[:, None]
    return y, ConvTranspose1dTimeMajorCtx(kernels.transpose(2, 1, 0).reshape(k * c_out, c_in),
                                          stride, padding, x.shape, y.shape)


def convtranspose1d_time_major_backward(ctx: ConvTranspose1dTimeMajorCtx,
                                        upstream_grad) -> LayerGrad:
    """The input gradient ``(T_in, C_in, N)`` of a
    :func:`convtranspose1d_time_major_forward` call, and no parameter gradients.

    Input step ``i`` reads the ``K`` consecutive gradient steps ``i·s - p
    ... i·s - p + K - 1``, so the gradient is one matmul of ``taps.T``
    against a stride-``s`` window view of ``g`` (copied first unless
    C-contiguous); an input step whose taps padding crops multiplies only
    the columns of ``taps.T`` for the gradient steps that exist.
    """
    g = _match_grad(upstream_grad, ctx.out_shape, "convtranspose1d_time_major_backward")
    k = ctx.taps.shape[0] // ctx.out_shape[1]
    grad_x = np.empty(ctx.in_shape)
    _windowed_matmul(ctx.taps.T, np.ascontiguousarray(g), grad_x, -ctx.padding, ctx.stride, k)
    return LayerGrad(grad_x, {})


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
# 1D max pooling
# ---------------------------------------------------------------------------


@dataclass
class MaxPool1dCtx:
    in_shape: tuple[int, ...]
    indices: np.ndarray  # (N, C, T_out), absolute winning positions
    out_shape: tuple[int, ...]
    overlapping: bool  # window > stride: one position can win several windows


def maxpool1d_forward(x, window: int, stride: int):
    """Strided max pooling along time. Ties break to the lowest index.

    Returns (output, ctx); ``ctx.indices`` records winning positions.
    """
    x = _as_f64(x)
    _check_batch(x, 3, "maxpool1d")
    t = x.shape[2]
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if window > t:
        raise ValueError(f"maxpool1d: window {window} exceeds input length {t}")

    views = sliding_window_view(x, window, axis=2)[:, :, ::stride, :]
    rel = views.argmax(axis=-1)  # first occurrence wins ties
    y = np.take_along_axis(views, rel[..., None], axis=-1)[..., 0]
    indices = rel + np.arange(y.shape[2]) * stride
    return y, MaxPool1dCtx(x.shape, indices, y.shape, window > stride)


def maxpool1d_backward(ctx: MaxPool1dCtx, upstream_grad) -> LayerGrad:
    """Route upstream gradient to the argmax positions.

    Windows no longer than the stride have distinct winners, so the gradient
    is assigned; overlapping windows accumulate it.
    """
    g = _match_grad(upstream_grad, ctx.out_shape, "maxpool1d_backward")
    grad_x = np.zeros(ctx.in_shape)
    if ctx.overlapping:
        n, c, _ = ctx.out_shape
        np.add.at(grad_x, (np.arange(n)[:, None, None], np.arange(c)[None, :, None],
                           ctx.indices), g)
    else:
        np.put_along_axis(grad_x, ctx.indices, g, axis=2)
    return LayerGrad(grad_x, {})


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
    """Per-parameter first/second moments plus the learning rate (default 0.001)."""

    lr: float = 0.001
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def adam_init(params: dict[str, np.ndarray], lr: float = 0.001) -> AdamState:
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
