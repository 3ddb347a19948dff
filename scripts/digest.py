"""Print one SHA-256 per output of the quantlab library in a source tree, so
that two trees can be checked for byte-identical results:

    python scripts/digest.py path/to/tree > digests.txt
    python scripts/digest.py path/to/tree-a path/to/tree-b

Given two trees, the script digests each in its own Python process (both
import a ``quantlab``), prints only the lines that differ as ``name
digest-a digest-b`` (``-`` where a tree has no such line), reports the
count on stderr and exits 1 if any line differs, 0 if none does.

The library is imported from ``<tree>/src``; the plans and inputs are those
of the benchmark workloads in ``perfbench/workloads.py`` beside this script,
so both trees run the same inputs. BLAS is pinned to one thread. Covered:

* the logits of the six ``drift`` plans on a 512-token probe;
* for calibration seeds 11 and 12, the logits of the five ``calibrate``
  plans on their 64-token probe, the GPTQ and AWQ proxy losses of every
  linear, and each FlatQuant linear's ``p1``, ``p2``, clips and
  ``objective_trace``;
* for the same seeds, model and probe, GPTQ weights under each input map:
  rotate 4-4-16, SmoothQuant 4-8-16 and FlatQuant 4-4-16 with one training
  step, the logits and every linear's proxy loss;
* the logits of every ``kvquant_star`` plan (2, 3, 4 and 8 bits × K stage ×
  bias mode) on the default and the K-bias-outlier model, calibrated;
* calibrated on three sequences of unequal lengths (3, 40 and 64 tokens),
  on the default and the K-bias-outlier model: ``capture_channel_stats``
  with position buckets at ``layer0.k_post_rope`` and ``layer1.attn_in``,
  and the logits of the ``kvquant_star`` plans that quantize K after RoPE
  and bias (``post_rope``/``post_bias``) at 2, 3, 4 and 8 bits: outputs
  that read each calibration row's position;
* on a model without QKV biases (``qkv_bias=False``, ``ffn_mult=4``): its
  TQM1 bytes, and the logits of seven plans on a 128-token probe (16-16-16,
  RTN 4-16-16, rotate 4-4-16, rotated per-token 16-16-4, and, calibrated on
  eight fixed 64-token sequences, GPTQ 4-16-16, ``kvquant_star`` 16-16-4 and
  SmoothQuant 8-8-16);
* for five plans whose stacked quantizer calls must be row-local (4-4-4
  rotate with rotated per-token KV at group sizes 32 and 24, 3-bit
  per-token KV at group size 32, and, calibrated on eight fixed 64-token
  sequences, SmoothQuant 8-8-16 at group size 32 and FlatQuant 4-4-16 with
  one training step): the logits of a 128-token probe and of a 3-row
  session, fed a block and then stepped;
* the logits of the three ``decode`` plans on a 128-token probe, and the
  sequence each generates under each length-control mode;
* ``toymodel.generate`` under each ``decode`` plan: greedy, sampled, and
  with ``max_new=0``;
* the calibration set ``calibration.self_generate`` makes for each
  ``calibrate`` seed;
* the thinking and total counts of ``harness.run_length_control`` with 16
  runs for each ``decode`` plan under each length-control mode, and the
  calibration set ``calibration.self_generate`` makes from prompts
  ``[[0], [0, 5, 9]]`` (six sequences, at temperature 0.6 and 0) with the
  rng's next draw: the paths that decode many sequences at once;
* the sequences and ``thinking`` counts of acceptance criterion 10 (200
  suppressed runs, 50 promoted runs at each of four budgets), and of every
  length-control mode over 200 seeds on a 12-token context, where thinking
  is cut off by the context;
* the 100 ``awq_search`` results of acceptance criterion 4: alpha, beta,
  scales and proxy loss;
* the quantization primitives on their own: for each shape in
  ``PRIMITIVE_SHAPES`` and each input kind of ``primitive_input``, one line
  each for ``fit_params`` (scales and zero points), ``quantize`` (codes),
  ``dequantize`` and ``fake_quant``, over every spec of ``primitive_specs``.
  A change inside ``quantcore`` shows here at the primitive, not only through
  the model logits above;
* ``weightquant.gptq_quantize`` on its own: one line (codes, scales and zero
  points) per case of ``gptq_cases``, 2,592 in all.
"""

import argparse
import hashlib
import itertools
import os
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (11, 12)
PRIMITIVE_SHAPES = ((1, 64), (1, 7), (3, 64), (32, 64), (64, 64), (5, 33), (512, 128))
PRIMITIVE_KINDS = ("normal", "zeros", "constant", "negative", "subnormal", "ties")
GPTQ_SEEDS = range(6)
GPTQ_SHAPES = ((8, 16), (5, 33), (16, 64), (3, 7))


def sha(*parts) -> str:
    """SHA-256 over arrays (C-order bytes), floats and ints (packed),
    strings and bytes, in order."""
    import numpy as np  # loaded by main, after it pins BLAS to one thread

    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, str):
            h.update(p.encode())
        elif isinstance(p, bytes):
            h.update(p)
        elif isinstance(p, float):
            h.update(struct.pack("<d", p))
        elif isinstance(p, int):
            h.update(struct.pack("<q", p))
        else:
            h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def drift_lines(workloads, quantrun):
    wl = workloads.Drift()
    model = wl.model()
    probe = wl.inputs(SEEDS[0], model)["probe"]
    for bits, method, plan in wl.PLANS:
        yield f"drift/{bits}/{method}/logits", sha(
            quantrun.forward_quantized(model, probe, plan))


def proxy_losses_sha(rt) -> str:
    return sha(*(part for name in sorted(rt.proxy_losses)
                 for part in (name, float(rt.proxy_losses[name]))))


def calibrate_lines(workloads, quantrun):
    wl = workloads.Calibrate()
    model = wl.model()
    for seed in SEEDS:
        inp = wl.inputs(seed, model)
        for bits, method, plan in wl.PLANS:
            tag = f"calibrate/{seed}/{bits}/{method}"
            rt = quantrun.prepare_runtime(model, plan, inp["calib"])
            yield f"{tag}/logits", sha(
                quantrun.forward_quantized(model, inp["probe"], plan, runtime=rt))
            if rt.proxy_losses:
                yield f"{tag}/proxy_losses", proxy_losses_sha(rt)
            if method == "flatquant":
                for name in sorted(rt.linears):
                    t = rt.linears[name].t
                    yield f"{tag}/{name}/flat_train", sha(
                        t.p1, t.p2, float(t.act_clip), float(t.weight_clip),
                        *(float(v) for v in t.objective_trace))


def gptq_map_lines(workloads, quantrun):
    """GPTQ weights under each weight-activation input map, on the
    ``calibrate`` model and calibration sets: the probe's logits and every
    linear's proxy loss. A tree whose ``QuantPlan`` rejects the pair prints
    one ``rejected`` line per plan instead."""
    wl = workloads.Calibrate()
    model = wl.model()
    plans = (("4-4-16", "rotate", {}), ("4-8-16", "smoothquant", {}),
             ("4-4-16", "flatquant", {"flat_steps": 1}))
    for seed in SEEDS:
        inp = wl.inputs(seed, model)
        for bits, method, extra in plans:
            tag = f"gptq_map/{seed}/{bits}/{method}"
            try:
                plan = quantrun.QuantPlan.from_bits_string(
                    bits, wa_method=method, w_method="gptq", **extra)
            except ValueError as e:
                yield f"{tag}/rejected", sha(str(e))
                continue
            rt = quantrun.prepare_runtime(model, plan, inp["calib"])
            yield f"{tag}/logits", sha(
                quantrun.forward_quantized(model, inp["probe"], plan, runtime=rt))
            yield f"{tag}/proxy_losses", proxy_losses_sha(rt)


def static_k_lines(workloads, quantrun, toymodel, make_rng):
    """Every ``kvquant_star`` plan (2, 3, 4 and 8 bits, each K stage and bias
    mode) on the default model and on the ``calibrate`` K-bias-outlier model,
    calibrated on the ``calibrate`` set of the first seed."""
    wl = workloads.Calibrate()
    outlier = wl.model()
    inp = wl.inputs(SEEDS[0], outlier)
    models = (("plain", toymodel.init_model(toymodel.ToyConfig(),
                                            make_rng(workloads.MODEL_SEED))),
              ("outlier", outlier))
    for (kind, model), bits, stage, mode in itertools.product(
            models, (2, 3, 4, 8), ("pre_rope", "post_rope"), ("pre_bias", "post_bias")):
        plan = quantrun.QuantPlan(kv_bits=bits, kv_method="kvquant_star",
                                  k_stage=stage, k_bias_mode=mode)
        yield f"static_k/{kind}/{bits}/{stage}/{mode}/logits", sha(
            quantrun.forward_quantized(model, inp["probe"], plan,
                                       calib_sequences=inp["calib"]))


def position_lines(workloads, quantrun, toymodel, calibration, make_rng):
    """Outputs that read the positions of calibration rows, from sequences
    of unequal lengths, two crossing the 32-position block."""
    wl = workloads.Calibrate()
    outlier = wl.model()
    probe = wl.inputs(SEEDS[0], outlier)["probe"]
    models = (("plain", toymodel.init_model(toymodel.ToyConfig(),
                                            make_rng(workloads.MODEL_SEED))),
              ("outlier", outlier))
    rng = make_rng(SEEDS[0])
    calib = [workloads._probe(rng, n, outlier.config.vocab_size) for n in (3, 40, 64)]
    for kind, model in models:
        stats = calibration.capture_channel_stats(
            model, calibration.CalibrationSet(calib),
            ["layer0.k_post_rope", "layer1.attn_in"],
            pos_buckets=[(0, 2), (2, 32), (32, 40), (40, 64)])
        for st in stats:
            yield f"positions/{kind}/stats/{st.site}/{st.pos_bucket}", sha(
                st.tokens, st.mean_abs, st.max_abs)
        for bits in (2, 3, 4, 8):
            plan = quantrun.QuantPlan(kv_bits=bits, kv_method="kvquant_star",
                                      k_stage="post_rope", k_bias_mode="post_bias")
            yield f"positions/{kind}/{bits}/post_rope/post_bias/logits", sha(
                quantrun.forward_quantized(model, probe, plan, calib_sequences=calib))


def no_bias_lines(workloads, quantrun, toymodel, make_rng):
    """A model without QKV biases: its TQM1 file and seven plans' logits."""
    import tempfile

    model = toymodel.init_model(toymodel.ToyConfig(qkv_bias=False, ffn_mult=4),
                                make_rng(workloads.MODEL_SEED))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.tqm"
        toymodel.save_model(model, path)
        yield "no_bias/tqm1", sha(path.read_bytes())
    rng = make_rng(SEEDS[0])
    vocab = model.config.vocab_size
    probe = workloads._probe(rng, 128, vocab)
    calib = [workloads._probe(rng, 64, vocab) for _ in range(8)]
    QP = quantrun.QuantPlan
    plans = (("16-16-16", QP()),
             ("rtn-4-16-16", QP(w_bits=4)),
             ("rotate-4-4-16", QP(w_bits=4, a_bits=4, wa_method="rotate")),
             ("rotated_per_token-16-16-4",
              QP(kv_bits=4, kv_method="rotated_per_token")),
             ("gptq-4-16-16", QP(w_bits=4, w_method="gptq")),
             ("kvquant_star-16-16-4", QP(kv_bits=4, kv_method="kvquant_star")),
             ("smoothquant-8-8-16", QP(w_bits=8, a_bits=8, wa_method="smoothquant")))
    for tag, plan in plans:
        yield f"no_bias/{tag}/logits", sha(quantrun.forward_quantized(
            model, probe, plan, calib_sequences=calib if plan.needs_calibration else None))


def row_local_lines(workloads, quantrun, toymodel, make_rng):
    """Plans whose linears of one input site, or whose K and V, can share a
    quantizer call over stacked rows, at group sizes that split a row into
    several groups, ragged ones included: each plan's logits on a 128-token
    probe, and those of a 3-row session fed a 40-token block, then stepped
    8 tokens. A stacking that is not row-local changes these."""
    model = toymodel.init_model(toymodel.ToyConfig(), make_rng(workloads.MODEL_SEED))
    rng = make_rng(SEEDS[0])
    vocab = model.config.vocab_size
    probe = workloads._probe(rng, 128, vocab)
    calib = [workloads._probe(rng, 64, vocab) for _ in range(8)]
    rows = [workloads._probe(rng, 48, vocab) for _ in range(3)]
    QP = quantrun.QuantPlan
    rotate = dict(w_bits=4, a_bits=4, kv_bits=4, wa_method="rotate",
                  kv_method="rotated_per_token")
    plans = (("rotate-4-4-4/g32", QP(group_size=32, **rotate)),
             ("rotate-4-4-4/g24", QP(group_size=24, **rotate)),
             ("per_token-16-16-3/g32", QP(kv_bits=3, group_size=32)),
             ("smoothquant-8-8-16/g32",
              QP(w_bits=8, a_bits=8, wa_method="smoothquant", group_size=32)),
             ("flatquant-4-4-16/steps1",
              QP(w_bits=4, a_bits=4, wa_method="flatquant", flat_steps=1)))
    for tag, plan in plans:
        rt = quantrun.prepare_runtime(
            model, plan, calib if plan.needs_calibration else None)
        yield f"row_local/{tag}/logits", sha(
            toymodel.Session(model, runtime=rt).forward(probe))
        sess = toymodel.Session(model, runtime=rt, rows=3)
        prefill = sess.forward([r[:40] for r in rows])
        stepped = [sess.step([r[t] for r in rows]) for t in range(40, 48)]
        yield f"row_local/{tag}/three_rows", sha(prefill, *stepped)


def decode_lines(workloads, quantrun, harness, make_rng):
    wl = workloads.Decode()
    model = wl.model()
    probe = workloads._probe(make_rng(SEEDS[0]), 128, model.config.vocab_size)
    for bits, method, plan in wl.PLANS:
        tag = f"decode/{bits}/{method}"
        rt = quantrun.prepare_runtime(model, plan)
        yield f"{tag}/logits", sha(
            quantrun.forward_quantized(model, probe, plan, runtime=rt))
        for lc in wl.MODES:
            seq, thinking, total = harness.generate_with_length_control(
                model, list(wl.PROMPT), plan, lc, make_rng(SEEDS[0]), runtime=rt)
            yield f"{tag}/{lc.mode}/sequence", sha(*seq, thinking, total)


def generate_lines(workloads, quantrun, toymodel, make_rng):
    wl = workloads.Decode()
    model = wl.model()
    for bits, method, plan in wl.PLANS:
        tag = f"generate/{bits}/{method}"
        rt = quantrun.prepare_runtime(model, plan)
        for kind, max_new, temperature in (("greedy", 64, 0.0), ("sampled", 64, 0.6),
                                           ("max_new_0", 0, 0.6)):
            yield f"{tag}/{kind}", sha(*toymodel.generate(
                model, list(wl.PROMPT), max_new, temperature=temperature,
                rng=make_rng(SEEDS[0]), runtime=rt))


def self_generate_lines(workloads):
    wl = workloads.Calibrate()
    model = wl.model()
    for seed in SEEDS:
        yield f"self_generate/{seed}", sha(
            *(t for s in wl.inputs(seed, model)["calib"] for t in (*s, -1)))


def batch_lines(workloads, harness, calibration, make_rng):
    """``run_length_control`` and ``self_generate``, which decode many
    sequences in one batch."""
    wl = workloads.Decode()
    model = wl.model()
    for (bits, method, plan), lc in itertools.product(wl.PLANS, wl.MODES):
        rep = harness.run_length_control(model, harness.ExperimentConfig(
            plan=plan, length_control=lc, seed=SEEDS[0], n_runs=16))
        tag = f"run_length_control/{bits}/{method}/{lc.mode}"
        yield f"{tag}/thinking", sha(*rep.thinking_tokens)
        yield f"{tag}/total", sha(*rep.total_tokens)
    model = workloads.Calibrate().model()
    for temperature in (0.6, 0.0):
        rng = make_rng(SEEDS[0])
        cs = calibration.self_generate(model, [[0], [0, 5, 9]],
                                       workloads.Calibrate.CALIB_LEN, 6, rng,
                                       temperature=temperature)
        yield f"self_generate/two_prompts/{temperature}", sha(
            *(t for s in cs.sequences for t in (*s, -1)), float(rng.random()))


def length_control_lines(tag, harness, quantrun, model, modes, seeds, make_rng):
    """For each mode, one line over the sequences of ``seeds`` from prompt [0]
    on the reference plan, and one over their ``thinking`` counts."""
    plan = quantrun.QuantPlan()
    rt = quantrun.prepare_runtime(model, plan)
    for lc in modes:
        seqs, thinking = [], []
        for seed in seeds:
            seq, think, _ = harness.generate_with_length_control(
                model, [0], plan, lc, make_rng(seed), runtime=rt)
            seqs += [*seq, -1]
            thinking.append(think)
        name = f"{tag}/{lc.mode}/{lc.budget}"
        yield f"{name}/sequences", sha(*seqs)
        yield f"{name}/thinking", sha(*thinking)


def criterion10_lines(harness, quantrun, toymodel, make_rng):
    """The runs of ``tests/test_acceptance.py::test_criterion_10_length_control``,
    then every mode on a 12-token context."""
    LC = harness.LengthControl
    model = toymodel.init_model(toymodel.ToyConfig(), make_rng(0))
    yield from length_control_lines(
        "criterion10", harness, quantrun, model, [LC(mode="suppress", budget=16)],
        range(200), make_rng)
    yield from length_control_lines(
        "criterion10", harness, quantrun, model,
        [LC(mode="promote", budget=b, max_waits=10**9) for b in (8, 16, 32, 64)],
        range(50), make_rng)
    short = toymodel.init_model(toymodel.ToyConfig(max_seq_len=12), make_rng(0))
    yield from length_control_lines(
        "short_context", harness, quantrun, short,
        [LC(mode="off"), LC(mode="suppress", budget=16),
         LC(mode="promote", budget=16, max_waits=10**9)], range(200), make_rng)


def criterion4_lines(weightquant, make_rng):
    """The loop of ``tests/test_acceptance.py::test_criterion_4_awq_dominance``."""
    spec = weightquant.default_weight_spec(4, 8)
    for seed in range(100):
        rng = make_rng(seed)
        w = rng.standard_normal((4, 8))
        x = rng.standard_normal((8, 32))
        if seed % 3 == 0:
            x[seed % 8] *= 50.0
        res = weightquant.awq_search(w, x, spec, grid_step=0.25)
        yield f"criterion4/{seed}/awq_search", sha(
            float(res.alpha), float(res.beta), res.scales, float(res.proxy_loss))


def primitive_specs(quantcore):
    """2/3/4/8 bits, symmetric and asymmetric, every granularity along both
    axes (groups of 8), clip ratio 1.0 and 0.7."""
    granularities = (quantcore.PER_TENSOR, quantcore.PER_CHANNEL,
                     quantcore.PER_TOKEN, quantcore.PER_GROUP)
    for bits, symmetric, granularity, axis, clip in itertools.product(
            (2, 3, 4, 8), (False, True), granularities, (0, 1), (1.0, 0.7)):
        yield quantcore.QuantSpec(bits=bits, symmetric=symmetric,
                                  granularity=granularity, axis=axis,
                                  group_size=8, clip_ratio=clip)


def primitive_input(kind, shape, rng):
    """Gaussian; all-zero with signed zeros; one constant; negative-only;
    subnormal; or (k + 0.5) / 4, rounding ties whenever the fitted scale is
    1/4 (a group spanning -1.875 .. 1.875 at 4 bits asymmetric)."""
    import numpy as np

    if kind == "normal":
        return rng.standard_normal(shape) * 3.0
    if kind == "zeros":
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    if kind == "constant":
        return np.full(shape, 2.7)
    if kind == "negative":
        return -np.abs(rng.standard_normal(shape))
    if kind == "subnormal":
        return rng.integers(-1000, 1000, shape) * 5e-324
    return (rng.integers(-8, 8, shape) + 0.5) * 0.25


def primitive_lines(quantcore, make_rng):
    specs = list(primitive_specs(quantcore))
    for shape in PRIMITIVE_SHAPES:
        rng = make_rng(shape[0] * 1000 + shape[1])
        for kind in PRIMITIVE_KINDS:
            x = primitive_input(kind, shape, rng)
            parts = {"fit_params": [], "quantize": [], "dequantize": [],
                     "fake_quant": []}
            for spec in specs:
                params = quantcore.fit_params(x, spec)
                z = params.zero_points
                parts["fit_params"] += [params.scales, "none" if z is None else z]
                qt = quantcore.quantize(x, params)
                parts["quantize"].append(qt.codes)
                parts["dequantize"].append(quantcore.dequantize(qt))
                parts["fake_quant"].append(quantcore.fake_quant(x, spec))
            tag = f"primitive/{shape[0]}x{shape[1]}/{kind}"
            for name, arrays in parts.items():
                yield f"{tag}/{name}", sha(*arrays)


def gptq_cases(quantcore, weightquant):
    """(name, spec, column order) over per-tensor, per-token, per-channel on
    both axes, per-group of 4, 5 and 128 on axis 1 and of 3 and 128 on axis
    0; both symmetries; 2, 4 and 8 bits; natural and activation order."""
    grids = [(quantcore.PER_TENSOR, 1, 128), (quantcore.PER_TOKEN, 1, 128),
             (quantcore.PER_CHANNEL, 0, 128), (quantcore.PER_CHANNEL, 1, 128)]
    grids += [(quantcore.PER_GROUP, 1, g) for g in (4, 5, 128)]
    grids += [(quantcore.PER_GROUP, 0, g) for g in (3, 128)]
    for (granularity, axis, group), symmetric, bits, order in itertools.product(
            grids, (False, True), (2, 4, 8),
            (weightquant.NATURAL, weightquant.ACTIVATION_ORDER)):
        spec = quantcore.QuantSpec(bits=bits, symmetric=symmetric,
                                   granularity=granularity, axis=axis,
                                   group_size=group)
        name = (f"{granularity}/axis{axis}/g{group}/"
                f"{'sym' if symmetric else 'asym'}/{bits}bit/{order}")
        yield name, spec, order


def gptq_lines(quantcore, weightquant, make_rng):
    """Weights N(0, 1) and calibration columns whose channels are scaled
    from 0.2 to 3, so activation order differs from natural order; 48
    tokens, fewer than the 64 inputs of the widest shape, so damping is
    what keeps that Hessian invertible."""
    cases = list(gptq_cases(quantcore, weightquant))
    for seed, (n_out, n_in) in itertools.product(GPTQ_SEEDS, GPTQ_SHAPES):
        rng = make_rng(seed * 1000 + n_out * 100 + n_in)
        w = rng.standard_normal((n_out, n_in))
        x = rng.standard_normal((n_in, 48)) * rng.uniform(0.2, 3.0, (n_in, 1))
        for name, spec, order in cases:
            qt = weightquant.gptq_quantize(
                w, x, weightquant.GptqConfig(spec=spec, column_order=order))
            z = qt.params.zero_points
            yield f"gptq/{seed}/{n_out}x{n_in}/{name}", sha(
                qt.codes, qt.params.scales, "none" if z is None else z)


def compare(tree_a: Path, tree_b: Path) -> int:
    """Digest both trees side by side, one process each; print the lines
    that differ. Returns 1 if any does, 0 if none, 2 if a digest failed."""
    procs = [subprocess.Popen([sys.executable, __file__, str(tree)],
                              stdout=subprocess.PIPE, text=True)
             for tree in (tree_a, tree_b)]
    outs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print("digest: a tree's digest failed", file=sys.stderr)
        return 2
    a, b = (dict(line.rsplit(" ", 1) for line in out.splitlines()) for out in outs)
    names = list(a) + [name for name in b if name not in a]
    differ = [name for name in names if a.get(name) != b.get(name)]
    for name in differ:
        print(name, a.get(name, "-"), b.get(name, "-"))
    print(f"digest: {len(differ)} of {len(names)} lines differ", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", type=Path, help="source tree holding src/quantlab")
    ap.add_argument("other", type=Path, nargs="?",
                    help="a second tree: print only the lines that differ")
    args = ap.parse_args(argv)
    if args.other is not None:
        return compare(args.tree, args.other)
    src = args.tree.resolve() / "src"
    if not (src / "quantlab" / "__init__.py").is_file():
        print(f"digest: no library at {src / 'quantlab'}", file=sys.stderr)
        return 2
    for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[v] = "1"  # before numpy loads
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]

    import workloads
    from quantlab import calibration, harness, quantcore, quantrun, toymodel, weightquant
    from quantlab.rng import make_rng

    for gen in (drift_lines(workloads, quantrun),
                calibrate_lines(workloads, quantrun),
                gptq_map_lines(workloads, quantrun),
                static_k_lines(workloads, quantrun, toymodel, make_rng),
                position_lines(workloads, quantrun, toymodel, calibration, make_rng),
                no_bias_lines(workloads, quantrun, toymodel, make_rng),
                row_local_lines(workloads, quantrun, toymodel, make_rng),
                decode_lines(workloads, quantrun, harness, make_rng),
                generate_lines(workloads, quantrun, toymodel, make_rng),
                self_generate_lines(workloads),
                batch_lines(workloads, harness, calibration, make_rng),
                criterion10_lines(harness, quantrun, toymodel, make_rng),
                criterion4_lines(weightquant, make_rng),
                primitive_lines(quantcore, make_rng),
                gptq_lines(quantcore, weightquant, make_rng)):
        for name, digest in gen:
            print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
