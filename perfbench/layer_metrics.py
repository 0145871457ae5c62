"""Per-layer metrics and the kernel table, aggregated from a traced run's spans.

Every figure is per traced repetition: sums are divided by the number of
traced repetitions, so call counts repeat exactly from run to run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Span, self_times

KERNELS = ("conv1d_forward", "conv1d_backward", "convtranspose1d_forward",
           "convtranspose1d_backward")
NN_OPS = ("maxpool1d_forward", "maxpool1d_backward", "tanh_forward", "tanh_backward",
          "mse_loss", "adam_step", "dense_forward", "dense_backward")
CHECKPOINT = ("tensor_dict_digest", "file_digest", "save_checkpoint", "load_checkpoint")
ANALYSIS = ("timepoint_correlation_increase", "pooled_timepoint_correlation",
            "per_word_correlations", "moving_average_smooth", "bootstrap_ci", "fold_report")
SUBCOMMANDS = ("synth", "pretrain", "fit", "evaluate", "timecourse", "export-words")

# (name, unit, better): stat names follow <module>.<function>.<stat>
PER_LAYER: list[tuple[str, str, str]] = []
for _op in KERNELS:
    PER_LAYER += [(f"nn.{_op}.calls", "count", "lower"), (f"nn.{_op}.self_s", "s", "lower"),
                  (f"nn.{_op}.ms_per_call", "ms", "lower"),
                  (f"nn.{_op}.gflops_computed", "GFLOP", "lower")]
for _op in NN_OPS:
    PER_LAYER += [(f"nn.{_op}.calls", "count", "lower"), (f"nn.{_op}.self_s", "s", "lower")]
PER_LAYER += [
    ("autoencoder.pretrain.calls", "count", "lower"),
    ("autoencoder.pretrain.self_s", "s", "lower"),
    ("autoencoder.reconstruction_mse.self_s", "s", "lower"),
    ("encoding.train.calls", "count", "lower"),
    ("encoding.train.self_s", "s", "lower"),
    ("encoding.train.s_p50", "s", "lower"),
    ("encoding.train.s_p90", "s", "lower"),
    ("encoding.train.useful_epoch_frac", "ratio", "higher"),
    ("encoding.model_mse.self_s", "s", "lower"),
    ("encoding.predict_erp.self_s", "s", "lower"),
    ("encoding.run_model_suite.kept_fit_frac", "ratio", "higher"),
    ("features.assemble.self_s", "s", "lower"),
    ("features.apply_standardizer.self_s", "s", "lower"),
    ("data.load_erp.self_s", "s", "lower"),
    ("data.load_erp.mb_per_s", "MB/s", "higher"),
    ("data.save_erp.self_s", "s", "lower"),
    ("data.save_erp.mb_per_s", "MB/s", "higher"),
    ("data.filter_artifacts.self_s", "s", "lower"),
]
for _fn in CHECKPOINT:
    PER_LAYER += [(f"checkpoint.{_fn}.calls", "count", "lower"),
                  (f"checkpoint.{_fn}.self_s", "s", "lower")]
PER_LAYER += [(f"metrics.{_fn}.self_s", "s", "lower") for _fn in ANALYSIS]
PER_LAYER.append(("synth.generate.self_s", "s", "lower"))
PER_LAYER += [(f"cli.{_sub}.s", "s", "lower") for _sub in SUBCOMMANDS]
PER_LAYER.append(("trace.overhead_frac", "ratio", "lower"))
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _percentile(values: list[float], q: int) -> float:
    """Linearly interpolated percentile, 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ancestor_attr(spans: list[Span], name: str, key: str) -> list:
    """For each span, ``attrs[key]`` of its nearest enclosing span called ``name``."""
    out: list = []
    for s in spans:  # a parent is recorded before its children
        if s.name == name:
            out.append(s.attrs.get(key))
        else:
            out.append(out[s.parent] if s.parent is not None else None)
    return out


def per_layer(spans: list[Span], n_runs: int, overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric, per traced repetition."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    flops: dict[str, float] = defaultdict(float)
    nbytes: dict[str, float] = defaultdict(float)
    cli_s: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, selfs):
        calls[s.name] += 1
        self_s[s.name] += own
        flops[s.name] += s.attrs.get("flops", 0)
        nbytes[s.name] += s.attrs.get("bytes", 0)
        if s.name == "cli.main":
            cli_s[s.attrs.get("subcommand")] += s.duration

    trains = [s for s in spans if s.name == "encoding.train"]
    kept = sum(s.attrs.get("kept_fits", 0) for s in spans if s.name == "encoding.run_model_suite")
    fits = suite_fits(spans, 1)

    def rate(name):  # MB per second of self time
        return nbytes[name] / self_s[name] / 1e6 if self_s[name] > 0 else 0.0

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        fn, stat = name.rsplit(".", 1)
        if stat == "calls":
            value = calls[fn] / n_runs
        elif stat == "self_s":
            value = self_s[fn] / n_runs
        elif stat == "ms_per_call":
            value = 1e3 * self_s[fn] / calls[fn] if calls[fn] else 0.0
        elif stat == "gflops_computed":
            value = flops[fn] / 1e9 / n_runs
        elif stat == "mb_per_s":
            value = rate(fn)
        elif stat in ("s_p50", "s_p90"):
            value = _percentile([s.duration for s in trains], int(stat[3:]))
        elif stat == "useful_epoch_frac":
            useful = [(s.attrs["best_epoch"] + 1) / s.attrs["epochs"]
                      for s in trains if s.attrs]
            value = statistics.fmean(useful) if useful else 0.0
        elif stat == "kept_fit_frac":
            value = kept / fits if fits else 0.0
        elif fn.startswith("cli."):
            value = cli_s[fn[4:]] / n_runs
        else:  # trace.overhead_frac
            value = overhead_frac
        out[name] = value
    return out


def suite_fits(spans: list[Span], n_runs: int) -> float:
    """encoding.train calls made inside run_model_suite, per traced repetition."""
    suite_of = _ancestor_attr(spans, "encoding.run_model_suite", "kept_fits")
    return sum(1 for s, k in zip(spans, suite_of)
               if s.name == "encoding.train" and k is not None) / n_runs


def kernel_table(spans: list[Span], n_runs: int, batch: int) -> list[dict]:
    """Per (architecture, nn op, shapes) at the given batch size: median ms per
    call and the FLOPs and bytes each call computes from its shapes."""
    selfs = self_times(spans)
    arch_of = _ancestor_attr(spans, "autoencoder.pretrain", "arch")
    groups: dict[tuple, list[tuple[float, Span]]] = defaultdict(list)
    for s, own, arch in zip(spans, selfs, arch_of):
        if s.name.startswith("nn.") and arch and s.attrs.get("batch") in (batch, None) \
                and "flops" in s.attrs:
            groups[(arch, s.name[3:], s.attrs["sig"])].append((own, s))
    rows = []
    for (arch, op, sig), items in sorted(groups.items()):
        ms = statistics.median(own for own, _ in items) * 1e3
        gflop = items[0][1].attrs["flops"] / 1e9
        rows.append({"arch": arch, "op": op, "shapes": sig, "calls": len(items) / n_runs,
                     "ms_per_call": ms, "gflop_computed": gflop,
                     "mb_computed": items[0][1].attrs["bytes"] / 1e6,
                     "gflop_per_s": gflop / ms * 1e3 if ms > 0 else 0.0})
    return rows
