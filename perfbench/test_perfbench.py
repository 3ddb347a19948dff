"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    wl = workloads.WORKLOADS[name]()
    model = wl.model()
    a, b, c = wl.inputs(3, model), wl.inputs(3, model), wl.inputs(4, model)
    assert a == b
    assert a != c


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
    # c [9, 12] (sticking out of root); a has a child [2, 3]
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = tracer.self_times(start, end, parent)
    # root: 10 - |[1, 6] u [9, 10]| = 4; a: 3 - 1; b, c, leaf: whole span
    np.testing.assert_allclose(got, [4.0, 2.0, 3.0, 3.0, 1.0])


def test_self_time_of_nested_spans_sums_children():
    start = [0.0, 0.5, 2.0, 2.5, 5.0]
    end = [6.0, 1.5, 4.0, 3.0, 5.5]
    parent = [-1, 0, 0, 2, 0]
    got = tracer.self_times(start, end, parent)
    np.testing.assert_allclose(got, [6.0 - 1.0 - 2.0 - 0.5, 1.0, 1.5, 0.5, 0.5])


def test_metric_names_are_valid_and_match_the_runner():
    e2e = BENCHMARK["end_to_end"]
    per_layer = BENCHMARK["per_layer"]
    for m in e2e + per_layer:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m["name"]
    assert [(m["name"], m["unit"], m["better"]) for m in per_layer] == \
        layers.per_layer_metrics()
    fake = run.Run()
    fake.op_scaled_s, fake.op_tokens = [1.0, 2.0], [4, 6]
    produced = run.end_to_end(fake, 2, 0.5, [1.0])
    assert {m["name"]: m["unit"] for m in e2e} == \
        {k: v["unit"] for k, v in produced.items()}


def _bindings():
    """Every attribute of every quantlab module and wrapped class."""
    mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "quantlab"]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for t in layers.TARGETS:
        owner, _, attr = t.qualname.rpartition(".")
        if owner:
            cls = getattr(sys.modules[f"quantlab.{t.module}"], owner)
            out[(cls.__qualname__, attr)] = vars(cls).get(attr)
    return out


def test_wrappers_restore_the_originals():
    from quantlab import numerics, quantcore, weightquant
    before = _bindings()
    original = quantcore.fake_quant
    with pytest.raises(RuntimeError):
        with tracer.Tracer(layers.TARGETS) as tr:
            # every namespace binding the function sees the wrapper
            assert weightquant.fake_quant is quantcore.fake_quant
            assert quantcore.fake_quant is not original
            assert weightquant.invert_spd is numerics.invert_spd
            assert "quantlab.toymodel.Session.step" in \
                tracer.leftover_wrappers()
            with tr.op_span(0, "op.test", {"plan": "p", "method": "m"}):
                quantcore.fake_quant(np.ones((2, 4)),
                                     weightquant.default_weight_spec(4))
            raise RuntimeError("leave the block early")
    assert not tracer.leftover_wrappers()
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed
    spans = tr.arrays()
    names = [tr.names[i] for i in spans["name"]]
    assert names == ["op.test", "quantcore.fake_quant", "quantcore.quantize",
                     "quantcore.dequantize"]
    assert spans["parent"].tolist() == [-1, 0, 1, 1]
    assert tr.counters["quantcore.fake_quant.elements"] == 8


def test_derived_layer_counts_on_synthetic_spans():
    names = ["weightquant.gptq_quantize", "numerics.invert_spd",
             "weightquant.awq_search", "quantcore.fake_quant",
             "transforms.flat_train", "transforms.flat_objective"]
    # (name index, parent span): two GPTQ calls, one retrying its inverse;
    # an AWQ search with three fake_quant calls and one fake_quant outside it;
    # a FlatQuant training with four objective evaluations
    tree = [(0, -1), (1, 0), (1, 0), (0, -1), (1, 3),
            (2, -1), (3, 5), (3, 5), (3, 5), (3, -1),
            (4, -1), (5, 10), (5, 10), (5, 10), (5, 10)]
    n = len(tree)
    spans = {"name": np.array([t[0] for t in tree]),
             "parent": np.array([t[1] for t in tree]),
             "start": np.zeros(n), "end": np.ones(n)}
    counters = {"transforms.flat_train.accepted": 1}
    got = layers.layer_metrics(names, spans, np.zeros(n), counters)
    assert got["weightquant.gptq_quantize.calls"] == 2
    assert got["weightquant.gptq_quantize.damping_retries"] == 1
    assert got["weightquant.awq_search.fake_quant_calls"] == 3
    assert got["quantcore.fake_quant.calls"] == 4
    assert got["transforms.flat_train.accept_ratio"] == 0.25
    assert got["toymodel.Session.step.calls"] == 0


def test_kind_p50_takes_the_median_of_per_kind_medians():
    # two kinds alternating; the plain median would average 9.0 and 10.0
    ops = [1.0, 10.0, 2.0, 11.0, 9.0, 12.0]
    assert run.kind_p50(ops, 2) == 6.5


def test_rates_come_from_per_kind_medians():
    # kind 0: 1 s ops of 10 tokens, one stalled to 9 s; kind 1: 2 s ops of
    # 30 tokens
    ops, tokens = [1.0, 2.0, 9.0, 2.0, 1.0, 2.0], [10, 30, 10, 30, 10, 30]
    ops_per_s, tokens_per_s = run.rates(ops, tokens, 2)
    assert ops_per_s == pytest.approx(2 / 3)
    assert tokens_per_s == pytest.approx(40 / 3)


def test_host_scaling_uses_the_probes_around_and_inside_the_work():
    nominal = run.PROBE_NOMINAL_S
    host = run.HostSpeed()
    # probes at CPU times 0, 10, 20 and 30: the host ran at nominal speed
    # before 10 s and at half speed after
    host.start = [0.0, 10.0, 20.0, 30.0]
    host.took = [nominal, nominal, 2 * nominal, 2 * nominal]
    # work from 1 to 9 s saw only the probes at 0 and 10
    assert host.scaled(1.0, 9.0) == pytest.approx(8.0)
    # work from 11 to 29 s ran the probe at 20 inside it, which is not its
    # own time; the probes at 10, 20 and 30 average 5/3 of nominal
    assert host.scaled(11.0, 29.0) == pytest.approx(
        (18.0 - 2 * nominal) * nominal / (5 * nominal / 3))


def test_probe_calls_nothing_of_the_library():
    with tracer.Tracer(layers.TARGETS) as tr:
        assert run.probe() > 0
    assert len(tr.name_idx) == 0


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(99)]) is None
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
