"""Span tracing of erpcoder from outside the package.

A :class:`Tracer` wraps every public function of the listed erpcoder modules
and patches each module namespace that binds the original, so calls made by
name inside the package (``encoding.train`` from ``run_model_suite``,
``reconstruction_mse`` imported into ``encoding``, ``file_digest`` imported
into ``cli``) are caught too. Each call records a span: name, start, end,
parent span and run id. Spans stay in memory; the caller aggregates them
when the run ends. Wrappers exist only inside :meth:`Tracer.installed` and
the original functions are restored when it exits.

Some calls also record attributes computed from their arguments and results,
such as the floating-point operations and bytes a kernel call computes from
its array shapes. These are computed, not measured: they ignore caches and
temporaries. Formulas (N batch, C channels, T/L lengths, K taps):

- ``conv1d_forward``: 2*N*Cout*L*Cin*K FLOPs; bytes of x, kernels and output.
- ``conv1d_backward``: twice the forward FLOPs (kernel and input gradients);
  bytes of the saved padded input, upstream gradient, kernels, input gradient
  and kernel gradient.
- ``convtranspose1d_forward``: 2*N*Cin*T*Cout*K FLOPs; bytes of x, kernels
  and output.
- ``convtranspose1d_backward``: the forward FLOPs for the input gradient,
  doubled when parameter gradients are requested; bytes of the upstream
  gradient, kernels and input gradient, plus saved input and kernel gradient
  when parameter gradients are requested.
- ``maxpool1d``, ``tanh``, ``mse_loss``: one to three FLOPs per element;
  bytes of inputs, outputs and saved indices.
- ``dense``: 2*N*H*D FLOPs per matrix product (two in the backward pass).
- ``adam_step``: 12 FLOPs and 7 f64 reads or writes per parameter element.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

F64 = 8


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children[i]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.duration - covered)
    return out


def _batch(shape, single_ndim: int):
    return shape[0] if len(shape) == single_ndim + 1 else 1


def _sig(*shapes) -> str:
    return " ".join("x".join(str(d) for d in s) for s in shapes)


def _conv_forward(args, kwargs, result):
    x, kernels = args[0], args[1]
    y = result[0]
    c_out, c_in, k = kernels.shape
    n = _batch(y.shape, 2)
    return {"flops": 2 * n * c_out * y.shape[-1] * c_in * k,
            "bytes": F64 * (x.size + kernels.size + y.size),
            "batch": n, "sig": _sig(x.shape, kernels.shape)}


def _conv_backward(args, kwargs, result):
    ctx = args[0]
    n, c_out, l_out = ctx.out_shape
    _, c_in, k = ctx.kernels.shape
    return {"flops": 4 * n * c_out * l_out * c_in * k,
            "bytes": F64 * (ctx.padded.size + n * c_out * l_out + 2 * ctx.kernels.size
                            + n * c_in * ctx.in_len),
            "batch": n, "sig": _sig(ctx.padded.shape, ctx.kernels.shape)}


def _tconv_forward(args, kwargs, result):
    x, kernels = args[0], args[1]
    y = result[0]
    c_in, c_out, k = kernels.shape
    n = _batch(y.shape, 2)
    return {"flops": 2 * n * c_in * x.shape[-1] * c_out * k,
            "bytes": F64 * (x.size + kernels.size + y.size),
            "batch": n, "sig": _sig(x.shape, kernels.shape)}


def _tconv_backward(args, kwargs, result):
    ctx = args[0]
    need = args[2] if len(args) > 2 else kwargs.get("need_param_grads", True)
    n, c_in, t = ctx.x.shape
    _, c_out, k = ctx.kernels.shape
    passes = 2 if need else 1
    nbytes = math.prod(ctx.out_shape) + ctx.kernels.size + ctx.x.size
    if need:
        nbytes += ctx.x.size + ctx.kernels.size
    return {"flops": passes * 2 * n * c_in * t * c_out * k, "bytes": F64 * nbytes,
            "batch": n, "sig": _sig(ctx.x.shape, ctx.kernels.shape)}


def _pool_forward(args, kwargs, result):
    x, y = args[0], result[0]
    return {"flops": x.size, "bytes": F64 * (x.size + 2 * y.size),
            "batch": _batch(x.shape, 2), "sig": _sig(x.shape)}


def _pool_backward(args, kwargs, result):
    ctx = args[0]
    out = math.prod(ctx.out_shape)
    return {"flops": out, "bytes": F64 * (math.prod(ctx.in_shape) + 2 * out),
            "batch": ctx.in_shape[0], "sig": _sig(ctx.in_shape)}


def _tanh_forward(args, kwargs, result):
    y = result[0]
    return {"flops": y.size, "bytes": F64 * 2 * y.size, "batch": y.shape[0],
            "sig": _sig(y.shape)}


def _tanh_backward(args, kwargs, result):
    y = args[0].y
    return {"flops": 3 * y.size, "bytes": F64 * 3 * y.size, "batch": y.shape[0],
            "sig": _sig(y.shape)}


def _mse(args, kwargs, result):
    grad = result[1]
    return {"flops": 3 * grad.size, "bytes": F64 * 3 * grad.size, "batch": grad.shape[0],
            "sig": _sig(grad.shape)}


def _dense_forward(args, kwargs, result):
    x, w = args[0], args[1]
    n = _batch(x.shape, 1)
    return {"flops": 2 * n * w.size, "bytes": F64 * (x.size + w.size + result[0].size),
            "batch": n, "sig": _sig(x.shape, w.shape)}


def _dense_backward(args, kwargs, result):
    ctx = args[0]
    n = ctx.x.shape[0]
    return {"flops": 4 * n * ctx.weight.size,
            "bytes": F64 * (2 * ctx.x.size + 2 * ctx.weight.size + math.prod(ctx.out_shape)),
            "batch": n, "sig": _sig(ctx.x.shape, ctx.weight.shape)}


def _adam(args, kwargs, result):
    n = sum(p.size for p in args[0].values())
    return {"flops": 12 * n, "bytes": F64 * 7 * n, "batch": None, "sig": f"{n} params"}


def _pretrain(args, kwargs, result):
    return {"arch": args[0].architecture}


def _train(args, kwargs, result):
    history = result[1]
    return {"best_epoch": history.best_epoch, "epochs": len(history.train_mse)}


def _suite(args, kwargs, result):
    return {"kept_fits": result["k"] * len(result["entries"])}


def _load_erp(args, kwargs, result):
    return {"bytes": result[0].data.nbytes}


def _save_erp(args, kwargs, result):
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    return {"bytes": dataset.data.nbytes}


def _cli_main(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"subcommand": str(argv[0]) if argv else ""}


# Attributes recorded per call, keyed by "<module>.<function>".
ATTRIBUTES = {
    "nn.conv1d_forward": _conv_forward,
    "nn.conv1d_backward": _conv_backward,
    "nn.convtranspose1d_forward": _tconv_forward,
    "nn.convtranspose1d_backward": _tconv_backward,
    "nn.maxpool1d_forward": _pool_forward,
    "nn.maxpool1d_backward": _pool_backward,
    "nn.tanh_forward": _tanh_forward,
    "nn.tanh_backward": _tanh_backward,
    "nn.mse_loss": _mse,
    "nn.dense_forward": _dense_forward,
    "nn.dense_backward": _dense_backward,
    "nn.adam_step": _adam,
    "autoencoder.pretrain": _pretrain,
    "encoding.train": _train,
    "encoding.run_model_suite": _suite,
    "data.load_erp": _load_erp,
    "data.save_erp": _save_erp,
    "cli.main": _cli_main,
}


class Tracer:
    """In-memory span recorder for calls into a set of modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attributes=None):
        """A function that calls ``fn`` unchanged and records one span per call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.run_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attributes is not None:
                span.attrs.update(attributes(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap the public functions of ``modules`` ({layer: module}) while inside.

        Every loaded module of the same top-level package that binds one of
        those functions, under any name, is patched; all are restored on exit.
        """
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped[fn] = self.wrap(name, fn, ATTRIBUTES.get(name))
        packages = {m.__name__.split(".")[0] for m in modules.values()}
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and n.split(".")[0] in packages]
        patched = []
        try:
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        setattr(ns, attr, wrapped[value])
                        patched.append((ns, attr, value))
            yield self
        finally:
            for ns, attr, value in reversed(patched):
                setattr(ns, attr, value)
