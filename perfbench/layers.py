"""The layers the traced run measures, and what each is expected to move.

Each target is a public function (or ``Class.method``) of a ``quantlab``
module. The traced run wraps it in every module namespace that binds it and
reports ``<module>.<function>.calls``, ``.s`` (inclusive seconds) and
``.self_s`` (inclusive seconds minus the time covered by child spans).
``moves`` is the prediction written down before any optimisation: the
end-to-end metrics, as ``workload:metric``, that a change to this layer
should move. Every other pairing is predicted not to move.
"""

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str
    moves: tuple
    # optional extra count: (suffix, fn(args, kwargs, result) -> number)
    counter: Optional[tuple] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


def _size_of_first(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 0, "x")))


def _calibration_tokens(args, kwargs, result):
    return sum(len(s) for s in _arg(args, kwargs, 1, "sequences"))


def _accepted_steps(args, kwargs, result):
    # the trace holds the initial objective plus one entry per accepted step
    return len(result.objective_trace) - 1


DRIFT_TOK = "drift:tokens_per_s"
DECODE_TOK = "decode:tokens_per_s"
CALIB_OPS = "calibrate:ops_per_s"

TARGETS = (
    Target("toymodel", "Session.step", (DRIFT_TOK, DECODE_TOK)),
    Target("toymodel", "rope_heads", (DRIFT_TOK,)),
    Target("toymodel", "forward_reference", (DRIFT_TOK,)),
    Target("toymodel", "sample_token", (DECODE_TOK,)),
    Target("quantrun", "prepare_runtime", (CALIB_OPS,)),
    Target("quantrun", "capture_activations", (CALIB_OPS,),
           ("tokens", _calibration_tokens)),
    Target("quantrun", "forward_quantized", (DRIFT_TOK,)),
    Target("quantrun", "Runtime.kv_write", (DRIFT_TOK, DECODE_TOK)),
    Target("quantrun", "FakeQuantLinear.pre_bias", (DRIFT_TOK, DECODE_TOK)),
    Target("quantrun", "RotatedLinear.pre_bias", (DRIFT_TOK, DECODE_TOK)),
    Target("quantrun", "FlatLinear.pre_bias", (DRIFT_TOK, DECODE_TOK)),
    Target("quantrun", "Mxfp4Linear.pre_bias", (DRIFT_TOK, DECODE_TOK)),
    Target("quantcore", "fake_quant", (DRIFT_TOK, DECODE_TOK, CALIB_OPS),
           ("elements", _size_of_first)),
    Target("quantcore", "quantize", (DRIFT_TOK, DECODE_TOK, CALIB_OPS)),
    Target("quantcore", "dequantize", (DRIFT_TOK, DECODE_TOK, CALIB_OPS)),
    Target("mxfp4", "mxfp4_fake_quant", (DRIFT_TOK,),
           ("elements", _size_of_first)),
    Target("kvquant", "rope_apply", (DRIFT_TOK, DECODE_TOK)),
    Target("kvquant", "k_stage_tensor", (CALIB_OPS,)),
    Target("kvquant", "calibrate_k_channels", (CALIB_OPS,)),
    Target("weightquant", "gptq_quantize", (CALIB_OPS,)),
    Target("weightquant", "awq_search", (CALIB_OPS,)),
    Target("weightquant", "rtn_quantize_weights", (CALIB_OPS,)),
    Target("transforms", "flat_train", (CALIB_OPS),
           ("accepted", _accepted_steps)),
    Target("transforms", "flat_objective", (CALIB_OPS)),
    Target("transforms", "smooth_fit", (CALIB_OPS,)),
    Target("transforms", "kron_apply_right", (CALIB_OPS)),
    Target("numerics", "hadamard", ("drift:ops_per_s", "decode:setup_s")),
    Target("numerics", "cholesky", (CALIB_OPS,)),
    Target("numerics", "invert_spd", (CALIB_OPS,)),
    Target("calibration", "self_generate", ("calibrate:setup_s",)),
    Target("harness", "run_drift", ("drift:ops_per_s",)),
    Target("harness", "generate_with_length_control", ("decode:ops_per_s",)),
)


@dataclass(frozen=True)
class ChildCount:
    """A per-layer count read off the span tree: spans named ``child`` whose
    parent is named ``parent``, less ``per_parent`` for each parent span
    (clamped at zero per parent)."""

    metric: str
    parent: str
    child: str
    per_parent: int = 0


CHILD_COUNTS = (
    ChildCount("weightquant.gptq_quantize.damping_retries",
               "weightquant.gptq_quantize", "numerics.invert_spd", 1),
    ChildCount("weightquant.awq_search.fake_quant_calls",
               "weightquant.awq_search", "quantcore.fake_quant"),
)

# accepted line-search steps over objective evaluations inside flat_train
ACCEPT_RATIO = "transforms.flat_train.accept_ratio"
FLAT_EVALUATIONS = ChildCount("", "transforms.flat_train", "transforms.flat_objective")

TRACE_METRICS = (
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer_metrics() -> list:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for t in TARGETS:
        out += [(f"{t.name}.calls", "count", "lower"),
                (f"{t.name}.s", "s", "lower"),
                (f"{t.name}.self_s", "s", "lower")]
        if t.counter is not None:
            out.append((f"{t.name}.{t.counter[0]}", "count", "lower"))
    out += [(c.metric, "count", "lower") for c in CHILD_COUNTS]
    out.append((ACCEPT_RATIO, "ratio", "higher"))
    out += list(TRACE_METRICS)
    return out


def layer_metrics(names, spans: dict, self_s, counters) -> dict:
    """Per-layer metric values from a traced run's spans (see ``Tracer``)."""
    ids = {n: i for i, n in enumerate(names)}
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    k = len(names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_s, minlength=k)
    out = {}
    for t in TARGETS:
        i = ids.get(t.name)
        out[f"{t.name}.calls"] = int(calls[i]) if i is not None else 0
        out[f"{t.name}.s"] = float(incl[i]) if i is not None else 0.0
        out[f"{t.name}.self_s"] = float(own[i]) if i is not None else 0.0
        if t.counter is not None:
            key = f"{t.name}.{t.counter[0]}"
            out[key] = int(counters.get(key, 0))
    for c in CHILD_COUNTS:
        out[c.metric] = _child_count(ids, name, parent, c)
    evaluations = _child_count(ids, name, parent, FLAT_EVALUATIONS)
    accepted = out["transforms.flat_train.accepted"]
    out[ACCEPT_RATIO] = accepted / evaluations if evaluations else 0.0
    return out


def _child_count(ids, name, parent, c: ChildCount) -> int:
    pid, cid = ids.get(c.parent), ids.get(c.child)
    if pid is None or cid is None:
        return 0
    kids = (name == cid) & (parent >= 0)
    kids[kids] = name[parent[kids]] == pid
    per_parent = np.bincount(parent[kids], minlength=len(name))
    per_parent = per_parent[name == pid]
    return int(np.sum(np.maximum(per_parent - c.per_parent, 0)))


STEP = "toymodel.Session.step"
REFERENCE = "toymodel.forward_reference"
PREPARE = "quantrun.prepare_runtime"


def recent_table(names, spans: dict, op_attrs: dict) -> list:
    """Rows of the ROADMAP "Recent" table from one traced run:
    µs per ``Session.step`` by plan and calling function, and seconds per
    ``prepare_runtime`` by method. Each row is a dict."""
    ids = {n: i for i, n in enumerate(names)}
    name, parent, op = spans["name"], spans["parent"], spans["op"]
    dur = spans["end"] - spans["start"]
    rows = []
    if STEP in ids:
        m = name == ids[STEP]
        caller = np.where(parent[m] >= 0, name[np.maximum(parent[m], 0)], -1)
        agg = defaultdict(list)
        for c, o, d in zip(caller.tolist(), op[m].tolist(), dur[m].tolist()):
            who = names[c] if c >= 0 else "-"
            plan = "reference" if who == REFERENCE else op_attrs[o]["plan"]
            agg[(who, plan)].append(d)
        for (c, plan), ds in sorted(agg.items()):
            rows.append({"what": "step", "caller": c, "plan": plan,
                         "calls": len(ds), "us_per_token": 1e6 * float(np.mean(ds))})
    if PREPARE in ids:
        m = name == ids[PREPARE]
        agg = defaultdict(list)
        for o, d in zip(op[m].tolist(), dur[m].tolist()):
            agg[op_attrs[o]["method"]].append(d)
        for method, ds in sorted(agg.items()):
            rows.append({"what": "prepare", "method": method, "calls": len(ds),
                         "s_per_call": float(np.mean(ds))})
    return rows
