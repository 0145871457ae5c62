"""Independent brute-force oracles used to derive expected test values.

Everything here is written as plain loop-based summation so it shares no code
path with the library implementations it checks, except
:func:`decoded_oracle_bounds`, which checks the Gram form of the oracle
bounds against decoding every trial through the whole library decoder, and
:func:`trial_correlations_per_trial`, the per-trial loop a vectorised
library function replaced, kept to hold it to the same bits.
"""

from __future__ import annotations

import numpy as np


def conv1d_naive(x, kernels, bias, stride=1, padding=0):
    """Direct-summation strided cross-correlation. x: (C_in, T)."""
    x = np.asarray(x, dtype=float)
    kernels = np.asarray(kernels, dtype=float)
    bias = np.asarray(bias, dtype=float)
    c_out, c_in, k = kernels.shape
    t = x.shape[1]
    xp = np.zeros((c_in, t + 2 * padding))
    xp[:, padding : padding + t] = x
    t_out = (t + 2 * padding - k) // stride + 1
    y = np.zeros((c_out, t_out))
    for o in range(c_out):
        for j in range(t_out):
            acc = bias[o]
            for c in range(c_in):
                for kk in range(k):
                    acc += xp[c, j * stride + kk] * kernels[o, c, kk]
            y[o, j] = acc
    return y


def convtranspose1d_naive(x, kernels, bias, stride=1, padding=0):
    """Direct-placement transposed convolution. x: (C_in, T), kernels: (C_in, C_out, K)."""
    x = np.asarray(x, dtype=float)
    kernels = np.asarray(kernels, dtype=float)
    bias = np.asarray(bias, dtype=float)
    c_in, c_out, k = kernels.shape
    t = x.shape[1]
    t_full = (t - 1) * stride + k
    full = np.zeros((c_out, t_full))
    for c in range(c_in):
        for o in range(c_out):
            for j in range(t):
                for kk in range(k):
                    full[o, j * stride + kk] += x[c, j] * kernels[c, o, kk]
    y = full[:, padding : t_full - padding]
    return y + bias[:, None]


def convtranspose1d_kernel_grad_naive(x, g, k, stride=1, padding=0):
    """Kernel gradient of a transposed convolution by direct summation.

    x: (C_in, T) its input, g: (C_out, T_out) the upstream gradient. Input
    position i meets output position i*stride + kk - padding through tap kk;
    partners that padding cropped contribute nothing.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    c_in, t = x.shape
    c_out, t_out = g.shape
    grad = np.zeros((c_in, c_out, k))
    for c in range(c_in):
        for o in range(c_out):
            for kk in range(k):
                for i in range(t):
                    pos = i * stride + kk - padding
                    if 0 <= pos < t_out:
                        grad[c, o, kk] += x[c, i] * g[o, pos]
    return grad


def maxpool1d_naive(x, window, stride):
    x = np.asarray(x, dtype=float)
    c, t = x.shape
    t_out = (t - window) // stride + 1
    y = np.zeros((c, t_out))
    idx = np.zeros((c, t_out), dtype=int)
    for ch in range(c):
        for j in range(t_out):
            seg = x[ch, j * stride : j * stride + window]
            best = 0
            for kk in range(1, window):
                if seg[kk] > seg[best]:
                    best = kk
            y[ch, j] = seg[best]
            idx[ch, j] = j * stride + best
    return y, idx


def maxpool1d_backward_naive(x, window, stride, g):
    """Gradient of max pooling w.r.t. x (C, T): each window's upstream value
    goes to its first maximum, summed where windows overlap."""
    x = np.asarray(x, dtype=float)
    c, t = x.shape
    grad = np.zeros((c, t))
    for ch in range(c):
        for j in range((t - window) // stride + 1):
            best = j * stride
            for pos in range(j * stride + 1, j * stride + window):
                if x[ch, pos] > x[ch, best]:
                    best = pos
            grad[ch, best] += g[ch, j]
    return grad


def transposed_conv_matrix_naive(kernels, stride, padding, length):
    """The dense matrix of a transposed convolution of (C_in, length) inputs:
    column ``c*length + t`` is the output of a unit input at channel c, time t,
    flattened channel-major."""
    c_in, _, _ = np.asarray(kernels).shape
    cols = []
    for c in range(c_in):
        for t in range(length):
            unit = np.zeros((c_in, length))
            unit[c, t] = 1.0
            cols.append(convtranspose1d_naive(unit, kernels, np.zeros(kernels.shape[1]),
                                              stride, padding).ravel())
    return np.array(cols).T


def adam_first_step_naive(param, grad, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Closed-form first Adam step for a scalar parameter."""
    m = (1 - beta1) * grad
    v = (1 - beta2) * grad * grad
    m_hat = m / (1 - beta1)
    v_hat = v / (1 - beta2)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps)


def pearson_naive(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    return float((a * b).sum() / denom)


def trial_correlations_per_trial(preds, actual):
    """Per trial, (Pearson r of its flattened predicted epoch against its actual
    one, whether either has zero variance), r being 0.0 then: the per-trial
    loop that ``metrics.trial_correlations`` replaced, kept as its bitwise
    reference. An epoch whose values are all equal has zero variance."""
    out = []
    for p, y in zip(preds, actual):
        a, b = p.ravel(), y.ravel()
        if any(v[-1] == v[0] and (v == v[0]).all() for v in (a, b)):
            out.append((0.0, True))
            continue
        a = a - a.mean()
        b = b - b.mean()
        denom = np.sqrt((a * a).sum() * (b * b).sum())
        out.append((0.0, True) if denom == 0.0 else (float((a * b).sum() / denom), False))
    return out


def decoded_oracle_bounds(truth, dataset, fit_rows=None, eval_rows=None):
    """``synth.oracle_bounds``' ``mse_floor``, ``mse`` and ``ridge_fallback``,
    each latent set decoded through the whole true decoder
    (``autoencoder.decode``) and its squared error averaged over the eval
    rows' epoch values: no Gram form."""
    from erpcoder.autoencoder import decode

    n = len(truth.latents)
    fit_rows = np.arange(n) if fit_rows is None else np.asarray(fit_rows)
    eval_rows = np.arange(n) if eval_rows is None else np.asarray(eval_rows)
    target = dataset.data[eval_rows]

    def decoded_mse(latents):
        diff = decode(truth.decoder, latents) - target
        return float(np.mean(diff * diff))

    z_flat = truth.latents.reshape(n, -1)
    driving = tuple(truth.driving_columns)
    mse, running, ridge = {}, np.inf, False
    for i in range(len(driving) + 1):
        f = np.hstack([np.ones((n, 1))] + [truth.driving_columns[s] for s in driving[:i]])
        a = f[fit_rows].T @ f[fit_rows]
        if np.linalg.cond(a) > 1e12:
            a, ridge = a + 1e-8 * np.eye(len(a)), True
        beta = np.linalg.solve(a, f[fit_rows].T @ z_flat[fit_rows])
        z_hat = (f[eval_rows] @ beta).reshape(len(eval_rows), *truth.latents.shape[1:])
        running = min(running, decoded_mse(z_hat))
        mse["+".join(driving[:i]) or "intercept"] = running
    return {"mse_floor": decoded_mse(truth.latents[eval_rows]), "mse": mse,
            "ridge_fallback": ridge}
