"""Self-tests of the benchmark's tracer and metric definitions.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layer_metrics  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import Rep, Tally, import_package  # noqa: E402


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 2.0, 5.0, 0, 1),  # overlaps a: covered once
        Span("c", 8.0, 12.0, 0, 1),  # clipped to the parent's end
        Span("leaf", 1.5, 2.5, 1, 1),  # a grandchild does not count for root
        Span("other", 20.0, 21.0, None, 2),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 2.0, 1.0, 3.0, 4.0, 1.0, 1.0])


def test_per_layer_counts_are_per_traced_repetition():
    spans = []
    for run_id in (1, 2):
        t = 100.0 * run_id
        spans.append(Span("nn.conv1d_forward", t, t + 2.0, None, run_id,
                          {"flops": 3e9, "bytes": 8}))
        spans.append(Span("nn.conv1d_forward", t + 2.0, t + 3.0, None, run_id,
                          {"flops": 1e9, "bytes": 8}))
    values = layer_metrics.per_layer(spans, 2, 0.01)
    assert values["nn.conv1d_forward.calls"] == 2
    assert values["nn.conv1d_forward.self_s"] == pytest.approx(3.0)
    assert values["nn.conv1d_forward.ms_per_call"] == pytest.approx(1500.0)
    assert values["nn.conv1d_forward.gflops_computed"] == pytest.approx(4.0)
    assert values["nn.conv1d_backward.calls"] == 0
    assert values["trace.overhead_frac"] == 0.01
    assert list(values) == [name for name, _, _ in layer_metrics.PER_LAYER]


def test_wrapped_calls_pass_results_and_exceptions_through():
    tracer = Tracer()
    payload = object()
    error = KeyError("boom")

    def give(x, *, y):
        return payload, x, y

    def fail():
        raise error

    give_t, fail_t = tracer.wrap("m.give", give), tracer.wrap("m.fail", fail)
    assert give_t(1, y=2) == (payload, 1, 2)
    assert give_t(1, y=2)[0] is payload
    with pytest.raises(KeyError) as caught:
        fail_t()
    assert caught.value is error
    assert give_t.__name__ == "give" and give_t.__wrapped__ is give
    assert [s.name for s in tracer.spans] == ["m.give", "m.give", "m.fail"]
    assert all(s.parent is None and s.end >= s.start for s in tracer.spans)


def test_nested_calls_record_their_parent():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda: 1)
    outer = tracer.wrap("m.outer", lambda: inner() + inner())
    assert outer() == 2
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("m.outer", None), ("m.inner", 0), ("m.inner", 0)]


def test_wrappers_exist_only_inside_installed_and_cover_every_binding():
    mods = import_package(fresh=False)
    enc, ae, nn = mods["encoding"], mods["autoencoder"], mods["nn"]
    train, recon, conv = enc.train, ae.reconstruction_mse, nn.conv1d_forward
    assert enc.reconstruction_mse is recon
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(mods):
            assert enc.train is not train and enc.train.__wrapped__ is train
            # the name imported into encoding is wrapped as well as the original
            assert enc.reconstruction_mse is ae.reconstruction_mse is not recon
            assert nn.conv1d_forward.__wrapped__ is conv
            assert mods["cli"].file_digest is mods["checkpoint"].file_digest
            raise RuntimeError("leave the block early")
    assert (enc.train, enc.reconstruction_mse, ae.reconstruction_mse,
            nn.conv1d_forward) == (train, recon, recon, conv)


class _Probe:
    """A workload that records whether nn.conv1d_forward is wrapped when it runs."""

    name = "probe"
    min_reps = 1

    def __init__(self, nn):
        self.nn, self.original, self.seen = nn, nn.conv1d_forward, []

    def run(self, ld, seed, tally, rep: Rep, work):
        self.seen.append(self.nn.conv1d_forward is not self.original)

    def check(self, ld, tally, outputs):
        pass


class _Loaded:
    def __init__(self, mods):
        self.mods = mods


@pytest.mark.parametrize("traced", [False, True])
def test_only_the_traced_run_installs_wrappers(traced, tmp_path):
    mods = import_package(fresh=False)
    probe = _Probe(mods["nn"])
    tracer = Tracer() if traced else None
    plain, spanned = run.measure(probe, _Loaded(mods), 0, 0.0, Tally(), tmp_path, tracer)
    assert probe.seen == ([False, True] if traced else [False])
    assert (len(plain), len(spanned)) == ((1, 1) if traced else (1, 0))
    assert mods["nn"].conv1d_forward is probe.original


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layer_metrics.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == ["pipeline", "pretrain", "suite"]
