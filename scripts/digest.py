"""Print one SHA-256 per output of the quantlab library in a source tree, so
that two trees can be checked for byte-identical results:

    python scripts/digest.py path/to/tree > digests.txt
    python scripts/digest.py path/to/tree-a path/to/tree-b
    python scripts/digest.py --reach path/to/tree

Given one tree, the first line is a header, ``# sha256 <hex> of ...``: the
SHA-256 of the files the digest runs (``source_hash``), and the numpy and
BLAS versions, on which float64 results also depend. ``DIGEST.txt`` at the
repository root is this output for the repository itself; a test checks
its recorded hash against the tree, so an edit to any hashed file needs
``python scripts/digest.py . > DIGEST.txt``, whose ``git diff`` then lists
the digest lines the edit changed.

Given two trees, the script digests each in its own Python process (both
import a ``quantlab``), prints only the lines that differ as ``name
digest-a digest-b`` (``-`` where a tree has no such line), reports the
count on stderr and exits 1 if any line differs, 0 if none does.

With ``--reach``, the script runs the digest of one tree under a line
tracer (``sys.settrace`` over the files of ``src/quantlab``, only in this
mode) and prints, in place of the digests, each line of a function body in
``src/quantlab`` that it never runs, as ``module.function:line: source``.
Module and class bodies run at import and are not counted, nor are the
lines of ``raise`` statements and ``except`` handlers. It exits 0 if the
lines are exactly ``NEVER_RUN``, each listed by its function and source
text with the reason it does not run, and 1 otherwise, naming each line
that differs. Any other line the digest misses needs a digest line here,
or goes; code that only tests call belongs in ``tests/``.

The library is imported from ``<tree>/src``; the plans and inputs are those
of the benchmark workloads in ``perfbench/workloads.py`` beside this script,
so both trees run the same inputs. BLAS is pinned to one thread. Covered:

* the logits of the six ``drift`` plans on a 512-token probe;
* for calibration seeds 11 and 12, the logits of the five ``calibrate``
  plans on their 64-token probe, the GPTQ and AWQ proxy losses of every
  linear, and each FlatQuant linear's ``p1``, ``p2``, clips and
  ``objective_trace``, read from its ``t`` as the workload reads them;
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
  TQM1 bytes, and the logits of nine plans on a 128-token probe (16-16-16,
  RTN 4-16-16, rotate 4-4-16, rotate 4-16-16, whose activations pass
  through, rotated per-token 16-16-4, and, calibrated on eight fixed
  64-token sequences, GPTQ 4-16-16, ``kvquant_star`` 16-16-4, SmoothQuant
  8-8-16 and FlatQuant 16-4-16 with one training step, whose weights pass
  through);
* for five plans whose stacked quantizer calls must be row-local (4-4-4
  rotate with rotated per-token KV at group sizes 32 and 24, 3-bit
  per-token KV at group size 32, and, calibrated on eight fixed 64-token
  sequences, SmoothQuant 8-8-16 at group size 32 and FlatQuant 4-4-16 with
  one training step): the logits of a 128-token probe and of a 3-row
  session, fed 40 tokens in one forward and then stepped 8;
* MXFP4 4-4-16 on a model of ``d_model`` 48 (3 heads of 16), whose
  48-wide rows fill one and a half 32-element blocks, without and with
  ``include_lm_head``: the logits of a 128-token probe and of a 3-row
  session, as for the row-local plans above;
* a 3-row session over more than one block, on the default model: each row
  270 tokens, fed 262 in one forward (several blocks at ``BLOCK`` 64 or
  128), then stepped 8, under 16-16-16, per-token 16-16-4 and
  rotate 4-4-4 with rotated per-token KV. The lengths are fixed, so trees
  with different ``toymodel.BLOCK`` run the same inputs;
* ``mxfp4_fake_quant``, the MXT4 bytes ``encode_tensor`` writes and what
  ``decode_tensor`` reads back from them, on the E2M1 rounding midpoints
  within 2 ulp, both signs, at block scales 2^-130 (below the smallest
  scale), 1 and 2^120, in rows of 32, 33 and 48;
* ``quantlab quantize`` run in-process (``cli.main``) in a temporary
  directory, on the default model and on one without QKV biases
  (``qkv_bias=False``, ``ffn_mult=4``): RTN 4-16-16 at group sizes 128 and
  32, and GPTQ and AWQ calibrated on a ``quantlab calib`` file of that
  model. For each, the TQQ1 bytes, the exit code and stdout with the
  directory's path replaced, and on a 64-token probe the logits of the
  runtime ``load_checkpoint`` returns and of the in-memory runtime for the
  same plan and calibration windows (the two lines are equal);
* ``init-model --inject-k-bias``: its exit code, stdout and TQM1 bytes;
* the other commands through ``cli.main`` on the default model, as
  ``CLI_RUNS`` lists them: ``calib``, ``drift`` for five plans (its stdout
  and CSV of ``run_drift``'s report arrays), ``generate``,
  ``length-control``, ``stats`` with and without ``--calib``, and
  ``sweep`` to CSV and JSON with a ``"calib"`` key, two of its runs rotate
  4-4-16 at rotation seeds 0 and 7. For each, the exit code, stdout and
  output file;
* the calibration windows ``cli._load_calib`` takes from a ``quantlab calib
  --count 12`` file (eight of its twelve lines, drawn at random), and the
  ``FileTooSmall`` message for a file of one 64-token line and fourteen
  32-token lines (no window spans two lines, so it holds one);
* the logits of the three ``decode`` plans on a 128-token probe, those of
  a one-row session stepped one token at a time through a 130-token probe
  (past ``BLOCK``), and the sequence each plan generates under each
  length-control mode, 16-16-16 with no runtime, as the workload runs it;
* ``toymodel.generate`` under each ``decode`` plan: greedy, sampled, and
  with ``max_new=0``;
* the calibration set ``calibration.self_generate`` makes for each
  ``calibrate`` seed;
* the thinking and total counts of ``harness.run_length_control`` with 16
  runs for each ``decode`` plan under each length-control mode, and the
  calibration set ``calibration.self_generate`` makes from prompts
  ``[[0], [0, 5, 9]]`` (six sequences, at temperature 0.6 and 0) with the
  rng's next draw: the paths that decode many sequences at once;
* one more ``run_length_control`` under a soft address-space limit
  (``ulimit -v``) of 1 TiB, set and restored in the process unless one is
  set already, so that ``check_batch`` subtracts what the process maps;
* ``check_batch``'s cgroup room (``toymodel.cgroup_room``) on fake
  cgroup v1 and v2 trees in a temporary directory, so that its lines run
  whatever cgroups the host has;
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
  the model logits above. A spec that fits a scale that is not finite
  (every spec, on the ``nonfinite`` input) hashes its ``NonFiniteInput``
  message in place of the four arrays;
* ``weightquant.gptq_quantize`` on its own: one line (codes, scales and zero
  points) per case of ``gptq_cases``, 1,296 in all.
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
# (function, stripped line, why): the body lines --reach expects never to run
MESSAGE = "the message of the raise on the next line"
CONSTRUCTOR = "an exception constructor: only error paths run it"
NEVER_RUN = (
    ("checkpoint.load_checkpoint",
     'need = f"of shape [{shape[1]}]" if awq else "absent"', MESSAGE),
    ("checkpoint.load_checkpoint",
     'state = "quantized" if odd[0] in linears else "in full precision"', MESSAGE),
    ("toymodel.Session.forward",
     "bad = next(t for t in ids if not 0 <= t < cfg.vocab_size)", MESSAGE),
    ("errors.NotPositiveDefinite.__init__", "self.pivot = pivot", CONSTRUCTOR),
    ("errors.NotPositiveDefinite.__init__",
     'super().__init__(message or f"matrix not positive definite at pivot {pivot}")',
     CONSTRUCTOR),
    ("errors.TruncatedFile.__init__", "self.offset = offset", CONSTRUCTOR),
    ("errors.TruncatedFile.__init__",
     'super().__init__(message or f"file truncated at offset {offset}")',
     CONSTRUCTOR),
    ("checkpoint.pack_codes", "flat = flat + (2 ** (bits - 1) - 1)",
     "symmetric codes: no plan saves a symmetric weight spec yet (ROADMAP item 4)"),
    ("checkpoint.unpack_codes", "vals = vals - (2 ** (bits - 1) - 1)",
     "symmetric codes: no plan saves a symmetric weight spec yet (ROADMAP item 4)"),
    *(("harness._sweep_one", text,
       "a sweep row without a probe, which cmd_sweep never makes (ROADMAP item 7)")
      for text in ("rep = run_length_control(model, cfg)", "row.update({",
                   '"status": "ok",', '"mean_thinking": rep.mean_thinking,',
                   '"median_thinking": rep.median_thinking,')),
    ("quantcore.grid_shape", "return (1, 1)",
     "an input edge case: a per-tensor spec, in a TQQ1 file that no command writes"),
    ("quantcore._group_minmax", "x = np.zeros(grid_shape(x.shape, spec))",
     "an input edge case: a zero extent along the grouped axis"),
    ("quantcore._fit_cells", "return None",
     "an input edge case: a finite range whose width overflows float64"),
    ("transforms.flat_train.<locals>.evaluate", "return np.inf",
     "an input edge case: a factor conditioned worse than FLAT_MAX_CONDITION"),
    ("transforms.flat_train", "break",
     "an input edge case: a gradient estimate that is zero or not finite"),
    ("weightquant.gptq_quantize", "lam = GPTQ_DAMPING",
     "an input edge case: a Hessian whose diagonal is zero"),
    ("quantrun.linear_input_site", "return None",
     "a tensor that is not a linear, which perfbench's calibrate set-up asks about"),
)
COMPREHENSIONS = ("<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>")
SEEDS = (11, 12)
# (1, 72) in groups of 8 is one cell more than quantcore.SMALL_GRID, the
# largest grid fitted on Python floats
PRIMITIVE_SHAPES = ((1, 64), (1, 7), (3, 64), (32, 64), (64, 64), (5, 33), (512, 128),
                    (1, 72))
PRIMITIVE_KINDS = ("normal", "zeros", "constant", "negative", "subnormal", "ties",
                   "nonfinite")
GPTQ_SEEDS = range(6)
GPTQ_SHAPES = ((8, 16), (5, 33), (16, 64), (3, 7))


def source_hash(tree: Path, lab: Path = ROOT) -> str:
    """SHA-256 over the name, length and bytes of each file a digest of
    ``tree`` runs: ``src/quantlab/*.py`` of ``tree``, then
    ``scripts/digest.py`` and ``perfbench/workloads.py`` of ``lab``, the
    tree this script is in."""
    files = [(tree, p.relative_to(tree))
             for p in sorted((tree / "src" / "quantlab").glob("*.py"))]
    files += [(lab, Path("scripts/digest.py")), (lab, Path("perfbench/workloads.py"))]
    h = hashlib.sha256()
    for root, name in files:
        data = (root / name).read_bytes()
        h.update(f"{name.as_posix()} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def header(tree: Path) -> str:
    """The first line of a one-tree digest: ``source_hash`` of ``tree``, and
    the numpy and BLAS versions."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# sha256 {source_hash(tree)} of src/quantlab/*.py, scripts/digest.py, "
            f"perfbench/workloads.py; numpy {np.__version__}; "
            f"BLAS {blas['name']} {blas['version']}")


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
    of unequal lengths (3, 40 and 64 tokens)."""
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


def no_bias_lines(quantlab, workloads, quantrun, toymodel, make_rng):
    """A model without QKV biases: its TQM1 file and nine plans' logits."""
    import tempfile

    model = toymodel.init_model(toymodel.ToyConfig(qkv_bias=False, ffn_mult=4),
                                make_rng(workloads.MODEL_SEED))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.tqm"
        quantlab.save_model(model, path)
        yield "no_bias/tqm1", sha(path.read_bytes())
    rng = make_rng(SEEDS[0])
    vocab = model.config.vocab_size
    probe = workloads._probe(rng, 128, vocab)
    calib = [workloads._probe(rng, 64, vocab) for _ in range(8)]
    QP = quantrun.QuantPlan
    plans = (("16-16-16", QP()),
             ("rtn-4-16-16", QP(w_bits=4)),
             ("rotate-4-4-16", QP(w_bits=4, a_bits=4, wa_method="rotate")),
             ("rotate-4-16-16", QP(w_bits=4, wa_method="rotate")),
             ("rotated_per_token-16-16-4",
              QP(kv_bits=4, kv_method="rotated_per_token")),
             ("gptq-4-16-16", QP(w_bits=4, w_method="gptq")),
             ("kvquant_star-16-16-4", QP(kv_bits=4, kv_method="kvquant_star")),
             ("smoothquant-8-8-16", QP(w_bits=8, a_bits=8, wa_method="smoothquant")),
             ("flatquant-16-4-16/steps1",
              QP(a_bits=4, wa_method="flatquant", flat_steps=1)))
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
        yield f"row_local/{tag}/three_rows", three_rows_sha(
            toymodel, model, rt, rows, 40)


def ragged_mxfp4_lines(workloads, quantrun, toymodel, make_rng):
    """MXFP4 on rows that end inside a block: ``d_model`` 48."""
    model = toymodel.init_model(toymodel.ToyConfig(d_model=48, n_heads=3, head_dim=16),
                                make_rng(workloads.MODEL_SEED))
    rng = make_rng(SEEDS[0])
    vocab = model.config.vocab_size
    probe = workloads._probe(rng, 128, vocab)
    rows = [workloads._probe(rng, 48, vocab) for _ in range(3)]
    for lm_head in (False, True):
        tag = f"mxfp4_d48/{'lm_head' if lm_head else 'layers'}"
        rt = quantrun.prepare_runtime(model, quantrun.QuantPlan(
            w_bits=4, a_bits=4, wa_method="mxfp4", include_lm_head=lm_head))
        yield f"{tag}/logits", sha(toymodel.Session(model, runtime=rt).forward(probe))
        yield f"{tag}/three_rows", three_rows_sha(toymodel, model, rt, rows, 40)


def multi_block_lines(workloads, quantrun, toymodel, make_rng):
    """A 3-row session over more than one block: 270-token rows, fed 262
    tokens in one forward, then stepped 8. The lengths are fixed rather
    than read from ``toymodel.BLOCK``, so that two trees with different
    block sizes run the same inputs."""
    model = toymodel.init_model(toymodel.ToyConfig(), make_rng(workloads.MODEL_SEED))
    rng = make_rng(SEEDS[1])
    rows = [workloads._probe(rng, 270, model.config.vocab_size) for _ in range(3)]
    QP = quantrun.QuantPlan
    plans = (("16-16-16", QP()),
             ("per_token-16-16-4", QP(kv_bits=4)),
             ("rotate-4-4-4", QP(w_bits=4, a_bits=4, kv_bits=4, wa_method="rotate",
                                 kv_method="rotated_per_token")))
    for tag, plan in plans:
        rt = quantrun.prepare_runtime(model, plan)
        yield f"multi_block/{tag}/three_rows", three_rows_sha(
            toymodel, model, rt, rows, 262)


def three_rows_sha(toymodel, model, rt, rows, fed) -> str:
    """The digest of a 3-row session's logits, fed the first ``fed`` tokens
    of ``rows`` in one forward, then stepped through the rest."""
    sess = toymodel.Session(model, runtime=rt, rows=3)
    prefill = sess.forward([r[:fed] for r in rows])
    stepped = [sess.step([r[t] for r in rows]) for t in range(fed, len(rows[0]))]
    return sha(prefill, *stepped)


def mxfp4_edge_lines(mxfp4):
    """``mxfp4_fake_quant``, ``encode_tensor`` and ``decode_tensor`` of its
    bytes on the E2M1 rounding midpoints nudged by -2 to +2 ulp, both
    signs, with each block's first element 6 so that a scale of 1 puts them
    on the ties, scaled by 2^-130, 1 and 2^120, in rows of 32, 33 and 48."""
    import numpy as np

    def nudged(v, k):  # v moved k ulps
        for _ in range(abs(k)):
            v = np.nextafter(v, np.copysign(np.inf, k))
        return v

    mids = (mxfp4.E2M1_VALUES[:-1] + mxfp4.E2M1_VALUES[1:]) / 2.0
    grid = np.array([nudged(mid, k) for mid in mids for k in range(-2, 3)])
    grid = np.concatenate([grid, -grid])
    for width in (32, 33, 48):
        free = np.arange(width) % mxfp4.BLOCK_SIZE != 0
        rows = -(-len(grid) // free.sum())
        base = np.full((rows, width), 6.0)
        base[:, free] = np.resize(grid, (rows, free.sum()))
        for exp in (-130, 0, 120):
            x = base * 2.0**exp
            tag = f"mxfp4/edges/w{width}/2^{exp}"
            raw = mxfp4.encode_tensor(x)
            yield f"{tag}/fake_quant", sha(mxfp4.mxfp4_fake_quant(x))
            yield f"{tag}/encode_tensor", sha(raw)
            yield f"{tag}/decode_tensor", sha(mxfp4.decode_tensor(raw))


def run_cli(cli, tmp, *argv):
    """``cli.main(argv)`` in-process: its exit code and its stdout with the
    directory ``tmp`` replaced by ``<tmp>``."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue().replace(tmp, "<tmp>")


def quantize_lines(quantlab, workloads, cli, checkpoint, quantrun, toymodel, make_rng):
    """``quantlab quantize`` for four weight-only plans, through ``cli.main``,
    on the default model and on one without QKV biases: the file, stdout,
    the loaded checkpoint's logits and the in-memory runtime's."""
    import json
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for prefix, config, d in (("quantize", {}, tmp),
                                  ("quantize_no_bias", {"qkv_bias": False, "ffn_mult": 4},
                                   f"{tmp}/no_bias")):
            os.makedirs(d, exist_ok=True)
            model_path, calib_path = f"{d}/model.tqm", f"{d}/calib.txt"
            Path(f"{d}/config.json").write_text(json.dumps(config))
            run_cli(cli, tmp, "init-model", "--config", f"{d}/config.json",
                    "--out", model_path)
            run_cli(cli, tmp, "calib", "--model", model_path, "--out", calib_path)
            model = quantlab.load_model(model_path)
            probe = workloads._probe(make_rng(SEEDS[0]), 64, model.config.vocab_size)
            for tag, extra in (("rtn/g128", ()), ("rtn/g32", ("--group-size", "32")),
                               ("gptq", ("--method", "gptq", "--calib", calib_path)),
                               ("awq", ("--method", "awq", "--calib", calib_path))):
                out = f"{d}/{tag.replace('/', '_')}.tqq"
                argv = ("quantize", "--model", model_path, "--plan", "4-16-16",
                        "--out", out, *extra)
                code, stdout = run_cli(cli, tmp, *argv)
                yield f"{prefix}/{tag}/stdout", sha(code, stdout)
                yield f"{prefix}/{tag}/tqq1", sha(Path(out).read_bytes())
                loaded = checkpoint.load_checkpoint(out)
                if len(loaded) == 2:  # (model, runtime)
                    logits = toymodel.Session(loaded[0], runtime=loaded[1]).forward(probe)
                else:  # a loader that returns a materialized model, plan, tensors
                    logits = toymodel.forward_reference(loaded[0], probe)
                yield f"{prefix}/{tag}/logits", sha(logits)
                args = cli.build_parser().parse_args(list(argv))
                calib = cli._load_calib(args.calib, args.seed, args.calib_len)
                rt = quantrun.prepare_runtime(model, cli._plan_from_args(args), calib)
                yield f"{prefix}/{tag}/runtime_logits", sha(
                    toymodel.Session(model, runtime=rt).forward(probe))


CLI_RUNS = (  # (tag, command and options), each run with --model and --out
    ("calib", ("calib",)),
    ("drift/16-16-16", ("drift", "--plan", "16-16-16")),
    ("drift/4-16-16/rtn", ("drift", "--plan", "4-16-16", "--group-size", "32")),
    ("drift/16-16-4/kvquant_star", ("drift", "--plan", "16-16-4", "--method",
                                    "kvquant_star", "--calib", "<calib>")),
    ("drift/4-4-16/rotate", ("drift", "--plan", "4-4-16", "--method", "rotate")),
    ("drift/4-4-16/mxfp4", ("drift", "--plan", "4-4-16", "--method", "mxfp4")),
    ("generate/16-16-16", ("generate", "--prompt", "0 5 9")),
    ("generate/4-4-4/rotate", ("generate", "--plan", "4-4-4", "--method", "rotate")),
    ("length-control/suppress", ("length-control", "--runs", "4")),
    ("length-control/promote", ("length-control", "--plan", "16-16-4", "--mode",
                                "promote", "--budget", "8", "--runs", "4")),
    ("stats/random", ("stats", "--site", "layer0.attn_in")),
    ("stats/calib", ("stats", "--site", "layer1.k_pre_bias", "--calib", "<calib>")),
    ("sweep/csv", ("sweep", "--config", "<sweep>")),
    ("sweep/json", ("sweep", "--config", "<sweep>", "--format", "json")),
)
SWEEP_RUNS = ({"plan": "16-16-16"}, {"plan": "4-16-16", "w_method": "gptq"},
              {"plan": "8-8-16", "wa_method": "smoothquant"},
              {"plan": "16-16-3", "kv_method": "kvquant_star", "k_stage": "post_rope"},
              # two runs told apart only by a field outside the bit string
              {"plan": "4-4-16", "wa_method": "rotate", "rotation_seed": 0},
              {"plan": "4-4-16", "wa_method": "rotate", "rotation_seed": 7})


def cli_lines(cli):
    """The other ``quantlab`` commands through ``cli.main`` on the default
    model: each run's exit code, stdout and output file, ``<calib>`` the
    file of the ``calib`` run and ``<sweep>`` a config of ``SWEEP_RUNS``
    with a ``"calib"`` key."""
    import json
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        model, calib, sweep = f"{tmp}/model.tqm", f"{tmp}/calib.out", f"{tmp}/sweep.json"
        code, stdout = run_cli(cli, tmp, "init-model", "--inject-k-bias", "1:5:8.0",
                               "--out", f"{tmp}/outlier.tqm")
        yield "cli/init-model/inject-k-bias", sha(code, stdout,
                                                  Path(f"{tmp}/outlier.tqm").read_bytes())
        run_cli(cli, tmp, "init-model", "--out", model)
        Path(sweep).write_text(json.dumps({"runs": SWEEP_RUNS, "probe_len": 32,
                                           "calib": calib}))
        for tag, (command, *options) in CLI_RUNS:
            out = f"{tmp}/{tag.replace('/', '_')}.out"
            options = [{"<calib>": calib, "<sweep>": sweep}.get(o, o) for o in options]
            code, stdout = run_cli(cli, tmp, command, "--model", model, *options,
                                   "--out", out)
            yield f"cli/{tag}", sha(code, stdout, Path(out).read_bytes())


def load_calib_lines(cli, calibration, make_rng):
    """``cli._load_calib``'s eight 64-token windows under seed 0 from a
    ``quantlab calib --count 12`` file, which holds more tokens than the
    windows and so is cropped at random, and from a file of one 64-token
    line and fourteen 32-token lines, exactly eight windows' worth of which
    only the first line can give one. A tree that raises ``FileTooSmall``
    hashes its message in place of the windows."""
    import tempfile

    from quantlab.errors import FileTooSmall

    with tempfile.TemporaryDirectory() as tmp:
        model, counted, mixed = f"{tmp}/model.tqm", f"{tmp}/count12", f"{tmp}/mixed"
        run_cli(cli, tmp, "init-model", "--out", model)
        run_cli(cli, tmp, "calib", "--model", model, "--count", "12", "--out", counted)
        rng = make_rng(SEEDS[0])
        calibration.write_sequences(
            [rng.integers(0, 64, size=n).tolist() for n in (64, *(32,) * 14)], mixed)
        for tag, path in (("count12", counted), ("mixed", mixed)):
            try:
                windows = cli._load_calib(path, 0)
            except FileTooSmall as e:
                yield f"load_calib/{tag}", sha(f"FileTooSmall: {e}")
                continue
            yield f"load_calib/{tag}", sha(*(t for s in windows for t in (*s, -1)))


def decode_lines(workloads, quantrun, toymodel, harness, make_rng):
    wl = workloads.Decode()
    model = wl.model()
    probe = workloads._probe(make_rng(SEEDS[0]), 128, model.config.vocab_size)
    stepped = workloads._probe(make_rng(SEEDS[1]), 130, model.config.vocab_size)
    for bits, method, plan in wl.PLANS:
        tag = f"decode/{bits}/{method}"
        rt = quantrun.prepare_runtime(model, plan)
        yield f"{tag}/logits", sha(
            quantrun.forward_quantized(model, probe, plan, runtime=rt))
        sess = toymodel.Session(model, runtime=rt)
        yield f"{tag}/one_row_stepped", sha(*(sess.step(t) for t in stepped))
        for lc in wl.MODES:  # as the workload, with no runtime for 16-16-16
            seq, thinking, total = harness.generate_with_length_control(
                model, list(wl.PROMPT), plan, lc, make_rng(SEEDS[0]),
                runtime=None if plan.passthrough else rt)
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


def rlimit_lines(workloads, harness):
    """``run_length_control``, 16 runs of the first ``decode`` plan and mode,
    under a soft address-space limit (``ulimit -v``) of 1 TiB unless one is
    set, restored after: ``check_batch`` then subtracts what the process
    maps on every host."""
    import resource

    wl = workloads.Decode()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY:
        resource.setrlimit(resource.RLIMIT_AS, (2**40, hard))
    try:
        rep = harness.run_length_control(wl.model(), harness.ExperimentConfig(
            plan=wl.PLANS[0][2], length_control=wl.MODES[0], seed=SEEDS[0], n_runs=16))
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    yield "run_length_control/rlimit_as", sha(*rep.thinking_tokens, *rep.total_tokens)


def cgroup_lines(toymodel):
    """``toymodel.cgroup_room`` on fake cgroup trees, in a temporary
    directory: a v2 limit, a v2 ``max``, a v1 limit beside a v2 line with no
    files, and both, so that every line of it runs on every host."""
    import tempfile

    if not hasattr(toymodel, "cgroup_room"):  # a tree from before it: no line
        return
    trees = (("0::/a", {"a/memory.max": "5000", "a/memory.current": "1200"}),
             ("0::/a", {"a/memory.max": "max", "a/memory.current": "1200"}),
             ("4:memory:/b\n0::/", {"memory/b/memory.limit_in_bytes": "9000",
                                    "memory/b/memory.usage_in_bytes": "500"}),
             ("3:cpu,memory:/b\n0::/a", {"memory/b/memory.limit_in_bytes": "9000",
                                         "memory/b/memory.usage_in_bytes": "500",
                                         "a/memory.max": "5000",
                                         "a/memory.current": "1200"}))
    rooms = []
    for proc, files in trees:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                (Path(tmp) / name).parent.mkdir(parents=True, exist_ok=True)
                (Path(tmp) / name).write_text(text)
            (Path(tmp) / "cgroup").write_text(proc)
            rooms.append(float(toymodel.cgroup_room(str(Path(tmp) / "cgroup"), tmp)))
    yield "check_batch/cgroup_room", sha(*rooms)


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
    subnormal; (k + 0.5) / 4, rounding ties whenever the fitted scale is
    1/4 (a group spanning -1.875 .. 1.875 at 4 bits asymmetric); or
    Gaussian with NaN, +Inf and -Inf in its last row."""
    import numpy as np

    if kind == "nonfinite":
        x = rng.standard_normal(shape) * 3.0
        x[-1, [0, shape[1] // 2, -1]] = np.nan, np.inf, -np.inf
        return x

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
    import numpy as np
    from quantlab.errors import NonFiniteInput

    specs = list(primitive_specs(quantcore))
    for shape in PRIMITIVE_SHAPES:
        rng = make_rng(shape[0] * 1000 + shape[1])
        for kind in PRIMITIVE_KINDS:
            x = primitive_input(kind, shape, rng)
            parts = {"fit_params": [], "quantize": [], "dequantize": [],
                     "fake_quant": []}
            for spec in specs:
                with np.errstate(invalid="ignore"):  # NaN and Inf: see nonfinite
                    try:
                        params = quantcore.fit_params(x, spec)
                    except NonFiniteInput as e:  # a group's scale is not finite
                        for arrays in parts.values():
                            arrays.append(f"NonFiniteInput: {e}")
                        continue
                    qt = quantcore.quantize(x, params)
                    parts["dequantize"].append(quantcore.dequantize(qt))
                    parts["fake_quant"].append(quantcore.fake_quant(x, spec))
                z = params.zero_points
                parts["fit_params"] += [params.scales, "none" if z is None else z]
                parts["quantize"].append(qt.codes)
            tag = f"primitive/{shape[0]}x{shape[1]}/{kind}"
            for name, arrays in parts.items():
                yield f"{tag}/{name}", sha(*arrays)


def gptq_cases(quantcore):
    """(name, spec) over per-tensor, per-token, per-channel on both axes,
    per-group of 4, 5 and 128 on axis 1 and of 3 and 128 on axis 0; both
    symmetries; 2, 4 and 8 bits."""
    grids = [(quantcore.PER_TENSOR, 1, 128), (quantcore.PER_TOKEN, 1, 128),
             (quantcore.PER_CHANNEL, 0, 128), (quantcore.PER_CHANNEL, 1, 128)]
    grids += [(quantcore.PER_GROUP, 1, g) for g in (4, 5, 128)]
    grids += [(quantcore.PER_GROUP, 0, g) for g in (3, 128)]
    for (granularity, axis, group), symmetric, bits in itertools.product(
            grids, (False, True), (2, 4, 8)):
        spec = quantcore.QuantSpec(bits=bits, symmetric=symmetric,
                                   granularity=granularity, axis=axis,
                                   group_size=group)
        name = (f"{granularity}/axis{axis}/g{group}/"
                f"{'sym' if symmetric else 'asym'}/{bits}bit")
        yield name, spec


def gptq_lines(quantcore, weightquant, make_rng):
    """Weights N(0, 1) and calibration columns whose channels are scaled
    from 0.2 to 3, so the Hessian's diagonal is far from constant; 48
    tokens, fewer than the 64 inputs of the widest shape, so damping is
    what keeps that Hessian invertible."""
    cases = list(gptq_cases(quantcore))
    for seed, (n_out, n_in) in itertools.product(GPTQ_SEEDS, GPTQ_SHAPES):
        rng = make_rng(seed * 1000 + n_out * 100 + n_in)
        w = rng.standard_normal((n_out, n_in))
        x = rng.standard_normal((n_in, 48)) * rng.uniform(0.2, 3.0, (n_in, 1))
        for name, spec in cases:
            qt = weightquant.gptq_quantize(w, x, weightquant.GptqConfig(spec=spec))
            z = qt.params.zero_points
            yield f"gptq/{seed}/{n_out}x{n_in}/{name}", sha(
                qt.codes, qt.params.scales, "none" if z is None else z)


def compare(tree_a: Path, tree_b: Path) -> int:
    """Digest both trees side by side, one process each; print the lines,
    headers aside, that differ. Returns 1 if any does, 0 if none, 2 if a digest failed."""
    procs = [subprocess.Popen([sys.executable, __file__, str(tree)],
                              stdout=subprocess.PIPE, text=True)
             for tree in (tree_a, tree_b)]
    outs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print("digest: a tree's digest failed", file=sys.stderr)
        return 2
    a, b = (dict(line.rsplit(" ", 1) for line in out.splitlines()
                 if not line.startswith("#")) for out in outs)
    names = list(a) + [name for name in b if name not in a]
    differ = [name for name in names if a.get(name) != b.get(name)]
    for name in differ:
        print(name, a.get(name, "-"), b.get(name, "-"))
    print(f"digest: {len(differ)} of {len(names)} lines differ", file=sys.stderr)
    return 1 if differ else 0


def code_lines(code) -> set:
    """The lines of code object ``code`` that a line tracer sees: those of
    its instructions after the prologue, which ends at the RESUME on the
    ``def`` line and traces no line."""
    import dis

    resume = next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
    return {line for start, _, line in code.co_lines()
            if start > resume and line is not None}


def body_lines(src: Path) -> dict:
    """(file, line) -> (``module.qualname``, stripped source) for every line
    of a function body in the modules of ``src`` that holds code, nested
    functions, lambdas and comprehensions included, named for the outermost.
    Module and class bodies, and the comprehensions in them, run at import
    and are left out, as are the lines of ``raise`` statements and
    ``except`` handlers."""
    import ast
    import inspect

    found = {}
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        errors = {line for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.Raise, ast.ExceptHandler))
                  for line in range(node.lineno, node.end_lineno + 1)}
        todo = [(compile(text, str(path), "exec"), True)]  # (code, runs at import)
        while todo:  # a code object's parent comes first
            code, at_import = todo.pop()
            # a comprehension runs where it stands, a function when called
            todo += [(c, not c.co_flags & inspect.CO_NEWLOCALS
                      or at_import and c.co_name in COMPREHENSIONS)
                     for c in code.co_consts if inspect.iscode(c)]
            if not at_import:
                for line in sorted(code_lines(code) - errors):
                    found.setdefault((code.co_filename, line), (
                        f"{path.stem}.{code.co_qualname}", source[line - 1].strip()))
    return found


def reach(generators, src: Path) -> int:
    """Run the digest under a line tracer over the files of ``src`` and print
    the body lines (see ``body_lines``) it never runs; 0 if they are exactly
    ``NEVER_RUN``. A code object is traced only until each of its body
    lines has run."""
    import collections

    body = body_lines(src)
    files = {file for file, _ in body}
    left = {}  # by id, as a code object hashes its whole body: (it, lines not yet run)

    def lines(frame, event, arg):
        if event == "line":
            left[id(frame.f_code)][1].discard(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        if id(code) not in left:
            left[id(code)] = code, {line for line in code_lines(code)
                                    if (code.co_filename, line) in body}
        return lines if left[id(code)][1] else None

    sys.settrace(calls)
    try:
        for gen in generators:
            for _ in gen:
                pass
    finally:
        sys.settrace(None)
    ran = {(code.co_filename, line) for code, rest in left.values()
           for line in code_lines(code) - rest}
    never = sorted((name, line, text) for (file, line), (name, text) in body.items()
                   if (file, line) not in ran)
    for name, line, text in never:
        print(f"{name}:{line}: {text}")
    found = collections.Counter((name, text) for name, _, text in never)
    documented = collections.Counter((name, text) for name, text, _ in NEVER_RUN)
    odd = ([f"not documented: {name}: {text}" for name, text in (found - documented).elements()]
           + [f"documented, but ran: {name}: {text}"
              for name, text in (documented - found).elements()])
    print(f"digest: {len(never)} lines never run"
          + "".join(f"\n  {o}" for o in odd), file=sys.stderr)
    return 1 if odd else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", type=Path, help="source tree holding src/quantlab")
    ap.add_argument("other", type=Path, nargs="?",
                    help="a second tree: print only the lines that differ")
    ap.add_argument("--reach", action="store_true",
                    help="print the library lines the digest never runs")
    args = ap.parse_args(argv)
    if args.other is not None:
        if args.reach:
            ap.error("--reach takes one tree")
        return compare(args.tree, args.other)
    src = args.tree.resolve() / "src"
    if not (src / "quantlab" / "__init__.py").is_file():
        print(f"digest: no library at {src / 'quantlab'}", file=sys.stderr)
        return 2
    for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[v] = "1"  # before numpy loads
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]

    import quantlab
    import workloads
    from quantlab import (calibration, checkpoint, cli, harness, mxfp4, quantcore,
                          quantrun, toymodel, weightquant)
    from quantlab.rng import make_rng

    generators = (drift_lines(workloads, quantrun),
                  calibrate_lines(workloads, quantrun),
                  gptq_map_lines(workloads, quantrun),
                  static_k_lines(workloads, quantrun, toymodel, make_rng),
                  position_lines(workloads, quantrun, toymodel, calibration, make_rng),
                  no_bias_lines(quantlab, workloads, quantrun, toymodel, make_rng),
                  row_local_lines(workloads, quantrun, toymodel, make_rng),
                  ragged_mxfp4_lines(workloads, quantrun, toymodel, make_rng),
                  multi_block_lines(workloads, quantrun, toymodel, make_rng),
                  mxfp4_edge_lines(mxfp4),
                  quantize_lines(quantlab, workloads, cli, checkpoint, quantrun, toymodel,
                                 make_rng),
                  cli_lines(cli),
                  load_calib_lines(cli, calibration, make_rng),
                  decode_lines(workloads, quantrun, toymodel, harness, make_rng),
                  generate_lines(workloads, quantrun, toymodel, make_rng),
                  self_generate_lines(workloads),
                  batch_lines(workloads, harness, calibration, make_rng),
                  rlimit_lines(workloads, harness),
                  cgroup_lines(toymodel),
                  criterion10_lines(harness, quantrun, toymodel, make_rng),
                  criterion4_lines(weightquant, make_rng),
                  primitive_lines(quantcore, make_rng),
                  gptq_lines(quantcore, weightquant, make_rng))
    if args.reach:
        return reach(generators, src / "quantlab")
    print(header(args.tree.resolve()), flush=True)
    for gen in generators:
        for name, digest in gen:
            print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
