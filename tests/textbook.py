"""A textbook decoder: the toy model's full-precision forward pass written
out from its definition, one position and one head at a time, as an oracle
for ``toymodel.Session.forward``.

It reads only the model's tensors and config and shares no code with the
library's forward: not ``Session``, ``rope_apply``, ``softmax`` nor
``rmsnorm``. Each layer is pre-norm:

    h = rmsnorm(x) * norm1;  q, k, v = Wq h + bq, Wk h + bk, Wv h + bv
    q, k = RoPE(q, t), RoPE(k, t)                  (per head, position t)
    x = x + Wo concat_heads(sum_s softmax_s(q . k_s / sqrt(head_dim)) v_s)
    h = rmsnorm(x) * norm2;  x = x + Wdown (silu(Wgate h) * (Wup h))

over the keys s <= t, with rmsnorm(x) = x / sqrt(mean(x^2) + 1e-6) and
RoPE rotating each interleaved pair (x_2i, x_2i+1) of a head by the angle
t * base^(-2i / head_dim). The logits are lm_head (rmsnorm(x) * norm_f).
"""

import math

import numpy as np

EPS = 1e-6


def _norm(x, gain):
    return x / math.sqrt(sum(v * v for v in x) / len(x) + EPS) * gain


def _rotate(x, t, cfg):
    """RoPE at position ``t`` on every head of ``x``, pair by pair."""
    out = np.empty_like(x)
    for head in range(cfg.n_heads):
        for i in range(cfg.head_dim // 2):
            a = head * cfg.head_dim + 2 * i
            theta = t * cfg.rope_base ** (-2 * i / cfg.head_dim)
            c, s = math.cos(theta), math.sin(theta)
            out[a] = x[a] * c - x[a + 1] * s
            out[a + 1] = x[a] * s + x[a + 1] * c
    return out


def _attend(q, keys, values, t, cfg):
    """Head by head, position ``t``'s query over the keys at 0..t, with
    ``keys`` and ``values`` one row per position."""
    out = np.empty(cfg.d_model)
    for head in range(cfg.n_heads):
        cols = slice(head * cfg.head_dim, (head + 1) * cfg.head_dim)
        scores = keys[: t + 1, cols] @ q[cols] / math.sqrt(cfg.head_dim)
        weights = np.exp(scores - scores.max())
        out[cols] = weights / weights.sum() @ values[: t + 1, cols]
    return out


def forward(model, tokens) -> np.ndarray:
    """(positions, vocab) full-precision logits of one token sequence."""
    cfg = model.config
    w = {name: t.astype(np.float64) for name, t in model.tensors.items()}

    def bias(name):
        return w.get(name, 0.0)

    xs = [w["embed"][tok] for tok in tokens]
    for layer in range(cfg.n_layers):
        p = f"layers.{layer}."
        queries, keys, values = [], [], []
        for t, x in enumerate(xs):
            h = _norm(x, w[p + "norm1"])
            queries.append(_rotate(w[p + "wq"] @ h + bias(p + "bq"), t, cfg))
            keys.append(_rotate(w[p + "wk"] @ h + bias(p + "bk"), t, cfg))
            values.append(w[p + "wv"] @ h + bias(p + "bv"))
        keys, values = np.array(keys), np.array(values)
        out = []
        for t, x in enumerate(xs):
            x = x + w[p + "wo"] @ _attend(queries[t], keys, values, t, cfg)
            h = _norm(x, w[p + "norm2"])
            gate = w[p + "w_gate"] @ h
            x = x + w[p + "w_down"] @ (gate / (1.0 + np.exp(-gate)) * (w[p + "w_up"] @ h))
            out.append(x)
        xs = out
    return np.array([w["lm_head"] @ _norm(x, w["norm_f"]) for x in xs])
