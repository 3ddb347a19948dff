"""The benchmark workloads: inputs made from the seed, one op, and the checks
on each op's outputs.

Every workload runs on the default ``ToyConfig`` (2 layers, d_model 64) with
model weights from seed 0, as ``quantlab init-model`` makes them; the
benchmark seed drives the probes, the calibration sampling and the decode
sampling. Ops cycle through a fixed list of plans, and the runner times whole
cycles, so every run has the same op mix.

Library functions are always called through their module (``harness.run_drift``
rather than a bare ``run_drift``) so that the traced run sees the calls.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from quantlab import calibration, harness, quantcore, quantrun, toymodel, weightquant
from quantlab.harness import ExperimentConfig, LengthControl
from quantlab.quantrun import QuantPlan
from quantlab.rng import make_rng
from quantlab.toymodel import BOS_ID, N_RESERVED, THINK_END_ID, WAIT_ID, ToyConfig

MODEL_SEED = 0
K_BIAS_OUTLIER = (0, 5, 400.0)   # `quantlab init-model --inject-k-bias 0:5:400`


@dataclass
class OpResult:
    tokens: int                      # model token positions processed
    agree: Optional[float] = None    # top-1 agreement with the reference
    failures: list = field(default_factory=list)


def _probe(rng, length: int, vocab: int) -> list:
    return [BOS_ID] + [int(t) for t in rng.integers(N_RESERVED, vocab, length - 1)]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _tensor_digest(model) -> str:
    h = hashlib.sha256()
    for name in sorted(model.tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.tensors[name]).tobytes())
    return h.hexdigest()


def _agreement(ref: np.ndarray, q: np.ndarray) -> float:
    return float(np.mean(np.argmax(ref, axis=1) == np.argmax(q, axis=1)))


# --- drift ----------------------------------------------------------------------


class Drift:
    """``harness.run_drift`` over a 512-token teacher-forced probe, cycling
    through the calibration-free plan families."""

    name = "drift"
    PROBE_LEN = 512
    PLANS = (
        ("16-16-16", "none", QuantPlan()),
        ("4-16-16", "rtn", QuantPlan(w_bits=4)),
        ("16-16-4", "per_token", QuantPlan(kv_bits=4)),
        ("16-16-4", "rotated_per_token",
         QuantPlan(kv_bits=4, kv_method="rotated_per_token")),
        ("4-4-16", "rotate", QuantPlan(w_bits=4, a_bits=4, wa_method="rotate")),
        ("4-4-16", "mxfp4", QuantPlan(w_bits=4, a_bits=4, wa_method="mxfp4")),
    )
    cycle_len = len(PLANS)

    def model(self):
        return toymodel.init_model(ToyConfig(), make_rng(MODEL_SEED))

    def inputs(self, seed: int, model) -> dict:
        vocab = model.config.vocab_size
        return {"probe": _probe(make_rng(seed), self.PROBE_LEN, vocab)}

    def setup(self, seed: int):
        model = self.model()
        state = {"model": model, **self.inputs(seed, model), "digests": {}}
        self.run_op(state, 0)  # warm-up
        return state

    def attrs(self, i: int) -> dict:
        bits, method, _ = self.PLANS[i % self.cycle_len]
        return {"plan": f"{bits} {method}", "method": method}

    def run_op(self, state, i: int) -> OpResult:
        bits, method, plan = self.PLANS[i % self.cycle_len]
        rep = harness.run_drift(state["model"], ExperimentConfig(
            plan=plan, probe_tokens=state["probe"]))
        arrays = (rep.max_abs_err, rep.mse, rep.top1_agree)
        res = OpResult(tokens=2 * len(state["probe"]),
                       agree=float(np.mean(rep.top1_agree)))
        if not all(np.all(np.isfinite(a)) for a in arrays):
            res.failures.append(f"{bits} {method}: non-finite drift report")
        if plan.passthrough and (np.any(rep.max_abs_err != 0)
                                 or rep.first_divergence != -1):
            res.failures.append("16-16-16 sentinel differs from the reference")
        digest = _digest(*arrays)
        if state["digests"].setdefault(i % self.cycle_len, digest) != digest:
            res.failures.append(f"{bits} {method}: report differs from an "
                                "earlier op of the same plan")
        return res

    def finish(self, state) -> list:
        return []


# --- calibrate ------------------------------------------------------------------


class Calibrate:
    """``prepare_runtime`` plus ``forward_quantized`` on a 64-token probe, on
    the K-bias-outlier model with an 8x64 self-generated calibration set,
    cycling through the calibration-driven methods."""

    name = "calibrate"
    PROBE_LEN = 64
    CALIB_LEN = 64
    CALIB_COUNT = 8
    PLANS = (
        ("4-16-16", "gptq", QuantPlan(w_bits=4, w_method="gptq")),
        ("4-16-16", "awq", QuantPlan(w_bits=4, w_method="awq")),
        ("8-8-16", "smoothquant",
         QuantPlan(w_bits=8, a_bits=8, wa_method="smoothquant")),
        ("16-16-4", "kvquant_star", QuantPlan(kv_bits=4, kv_method="kvquant_star")),
        ("4-4-16", "flatquant",
         QuantPlan(w_bits=4, a_bits=4, wa_method="flatquant", flat_steps=1)),
    )
    cycle_len = len(PLANS)
    WARMUP_OP = 3  # kvquant_star: the cheapest op that captures activations

    def model(self):
        return toymodel.init_model(ToyConfig(), make_rng(MODEL_SEED),
                                   k_bias_outlier=K_BIAS_OUTLIER)

    def inputs(self, seed: int, model) -> dict:
        """The probe, then the calibration set the model self-generates
        (`quantlab calib` defaults), from one seeded stream."""
        rng = make_rng(seed)
        probe = _probe(rng, self.PROBE_LEN, model.config.vocab_size)
        calib = calibration.self_generate(model, [[BOS_ID]], self.CALIB_LEN,
                                          self.CALIB_COUNT, rng)
        return {"probe": probe, "calib": calib.sequences}

    def setup(self, seed: int):
        model = self.model()
        inp = self.inputs(seed, model)
        state = {
            "model": model,
            **inp,
            "ref": toymodel.forward_reference(model, inp["probe"]),
            "rtn_loss": self._rtn_losses(model, inp["calib"]),
            "tensors": _tensor_digest(model),
        }
        self.run_op(state, self.WARMUP_OP)
        return state

    @staticmethod
    def _rtn_losses(model, sequences) -> dict:
        """RTN W4 proxy loss per linear, the bound AWQ must never exceed."""
        rec = quantrun.capture_activations(model, sequences)
        spec = weightquant.default_weight_spec(4)
        out = {}
        for name in model.tensors:
            site = quantrun.linear_input_site(name)
            if site is None:  # not a linear
                continue
            w = model.tensors[name].astype(np.float64)
            x = rec.matrix(site).T
            w_hat = quantcore.dequantize(weightquant.rtn_quantize_weights(w, spec))
            out[name] = weightquant.proxy_loss(w, w_hat, x)
        return out

    def attrs(self, i: int) -> dict:
        bits, method, _ = self.PLANS[i % self.cycle_len]
        return {"plan": f"{bits} {method}", "method": method}

    def run_op(self, state, i: int) -> OpResult:
        bits, method, plan = self.PLANS[i % self.cycle_len]
        model = state["model"]
        rt = quantrun.prepare_runtime(model, plan, state["calib"])
        logits = quantrun.forward_quantized(model, state["probe"], plan, runtime=rt)
        res = OpResult(tokens=sum(len(s) for s in state["calib"]) + len(state["probe"]),
                       agree=_agreement(state["ref"], logits))
        if not np.all(np.isfinite(logits)):
            res.failures.append(f"{method}: non-finite logits")
        if method == "awq":
            for name, loss in rt.proxy_losses.items():
                # relative slack for summation order; the s = 1 grid point
                # reproduces RTN exactly
                if loss > state["rtn_loss"][name] * (1 + 1e-9):
                    res.failures.append(f"awq {name}: proxy loss {loss!r} above "
                                        f"RTN {state['rtn_loss'][name]!r}")
        if method == "flatquant":
            for name, lin in rt.linears.items():
                trace = np.asarray(lin.t.objective_trace)
                if np.any(np.diff(trace) > 0):
                    res.failures.append(f"flatquant {name}: objective increased")
        if _tensor_digest(model) != state["tensors"]:
            res.failures.append(f"{method}: model.tensors changed")
        return res

    def finish(self, state) -> list:
        return []


# --- decode ---------------------------------------------------------------------


class Decode:
    """``harness.generate_with_length_control`` from prompt [0], one op per
    (plan, mode), with every runtime prepared at set-up."""

    name = "decode"
    PROMPT = (BOS_ID,)
    PLANS = (
        ("16-16-16", "none", QuantPlan()),
        ("16-16-4", "per_token", QuantPlan(kv_bits=4)),
        ("4-4-4", "rotate+rotated_per_token",
         QuantPlan(w_bits=4, a_bits=4, kv_bits=4, wa_method="rotate",
                   kv_method="rotated_per_token")),
    )
    MODES = (LengthControl(mode="suppress", budget=32),
             LengthControl(mode="promote", budget=64, max_waits=8))
    cycle_len = len(PLANS) * len(MODES)
    REPLAY_OPS = 2 * cycle_len  # ops whose sequences are replayed for agreement

    def model(self):
        return toymodel.init_model(ToyConfig(), make_rng(MODEL_SEED))

    def inputs(self, seed: int, model) -> dict:
        # op i samples from its own stream, seeded op_seed_base + i
        return {"prompt": list(self.PROMPT), "op_seed_base": seed * 1_000_003}

    def setup(self, seed: int):
        model = self.model()
        runtimes = [None if plan.passthrough else quantrun.prepare_runtime(model, plan)
                    for _, _, plan in self.PLANS]
        state = {"model": model, "runtimes": runtimes, "replay": {},
                 **self.inputs(seed, model)}
        self.run_op(state, 0)  # warm-up
        state["replay"].clear()
        return state

    def _plan_mode(self, i: int):
        k = i % self.cycle_len
        return k // len(self.MODES), self.MODES[k % len(self.MODES)]

    def attrs(self, i: int) -> dict:
        p, lc = self._plan_mode(i)
        bits, method, _ = self.PLANS[p]
        return {"plan": f"{bits} {method}", "method": method, "mode": lc.mode}

    def run_op(self, state, i: int) -> OpResult:
        p, lc = self._plan_mode(i)
        _, _, plan = self.PLANS[p]
        model, prompt = state["model"], state["prompt"]
        seq, thinking, total = harness.generate_with_length_control(
            model, prompt, plan, lc, make_rng(state["op_seed_base"] + i),
            runtime=state["runtimes"][p])
        res = OpResult(tokens=len(prompt) + total)
        if i < self.REPLAY_OPS:
            state["replay"][i] = (p, seq)
        if len(seq) != len(prompt) + total or not all(
                0 <= t < model.config.vocab_size for t in seq):
            res.failures.append(f"op {i}: malformed sequence")
        end = len(prompt) + thinking
        if end < len(seq) and seq[end] != THINK_END_ID:
            res.failures.append(f"op {i}: thinking does not end in THINK_END")
        if lc.mode == "suppress" and thinking > lc.budget:
            res.failures.append(f"op {i}: suppression cap broken ({thinking})")
        if lc.mode == "promote":
            room = model.config.max_seq_len - len(prompt)
            waits = seq[len(prompt):end].count(WAIT_ID)
            if thinking < min(lc.budget, room) and waits < lc.max_waits:
                res.failures.append(f"op {i}: promotion floor broken ({thinking})")
        return res

    def finish(self, state) -> list:
        """Top-1 agreement of each replayed decode with the reference,
        teacher-forced over the generated sequence; run off the clock."""
        model = state["model"]
        out = []
        for i in sorted(state["replay"]):
            p, seq = state["replay"][i]
            plan = self.PLANS[p][2]
            ref = toymodel.forward_reference(model, seq)
            q = quantrun.forward_quantized(model, seq, plan,
                                           runtime=state["runtimes"][p])
            out.append(_agreement(ref, q))
        return out


WORKLOADS = {w.name: w for w in (Drift, Calibrate, Decode)}
