"""Span tracing from outside the program under test.

``Tracer`` wraps each target function in every module namespace of the
package that binds it (methods are wrapped on their class), records one span
per call in compact in-memory arrays, and restores every original on exit,
so code run outside the ``with`` block is unpatched. Spans carry a name,
start, end, parent span and op id; op spans also carry attributes (plan,
method). Nothing is written until the caller asks, after the run.
"""

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "quantlab"
_ORIGINAL = "__perfbench_original__"


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def leftover_wrappers() -> list:
    """Every module or class attribute of the package still bound to a
    tracing wrapper; empty once a ``Tracer`` has exited."""
    out = []
    for m in _package_modules():
        for key, value in vars(m).items():
            if hasattr(value, _ORIGINAL):
                out.append(f"{m.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                out += [f"{m.__name__}.{key}.{k}" for k, v in vars(value).items()
                        if hasattr(v, _ORIGINAL)]
    return out


class Tracer:
    def __init__(self, targets):
        self.targets = targets
        self.names = []          # span name table; spans store indices
        self._ids = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_attrs = {}       # op id -> attribute dict
        self.counters = defaultdict(int)
        self._stack = []
        self._op = -1
        self._patches = []       # (owner, attr, original) for restore

    # --- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        i = len(self.name_idx)
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self, op_id: int, name: str, attrs: dict):
        """One benchmark op: the root of its spans."""
        self._op = op_id
        self.op_attrs[op_id] = dict(attrs)
        i = self._begin(self._intern(name))
        try:
            yield
        finally:
            self._finish(i)
            self._op = -1

    def _wrapper(self, fn, name: str, counter):
        nid = self._intern(name)
        begin, finish, counters = self._begin, self._finish, self.counters
        cname = None if counter is None else f"{name}.{counter[0]}"
        count = None if counter is None else counter[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if count is not None:
                counters[cname] += count(args, kwargs, result)
            return result

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    # --- patching ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        for t in self.targets:
            importlib.import_module(f"{PACKAGE}.{t.module}")
        modules = _package_modules()
        try:
            for t in self.targets:
                mod = sys.modules[f"{PACKAGE}.{t.module}"]
                owner_path, _, attr = t.qualname.rpartition(".")
                if owner_path:  # a method: wrap it once, on its class
                    owner = getattr(mod, owner_path)
                    self._patch(owner, attr, self._wrapper(
                        getattr(owner, attr), t.name, t.counter))
                    continue
                fn = getattr(mod, attr)
                wrapped = self._wrapper(fn, t.name, t.counter)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- analysis ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span (column arrays) plus the name table and op
        attributes to one ``.npz`` file."""
        np.savez(path, names=np.array(self.names, dtype=object).astype(str),
                 op_attrs=np.array(json.dumps(
                     {str(k): v for k, v in self.op_attrs.items()})),
                 **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the length of the union of its direct
    children's intervals, clipped to the span itself."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent)
    dur = end - start
    covered = np.zeros(len(dur))
    kids = np.nonzero(parent >= 0)[0]
    order = kids[np.lexsort((start[kids], parent[kids]))].tolist()
    st, en, par = start.tolist(), end.tolist(), parent.tolist()
    cur, lo, hi, acc = -1, 0.0, 0.0, 0.0
    for c in order:
        p = par[c]
        s, e = max(st[c], st[p]), min(en[c], en[p])
        if e <= s:
            continue
        if p != cur:
            if cur >= 0:
                covered[cur] = acc + (hi - lo)
            cur, lo, hi, acc = p, s, e, 0.0
        elif s > hi:
            acc += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if cur >= 0:
        covered[cur] = acc + (hi - lo)
    return dur - covered


def call_tree(names, name, parent, dur, self_s) -> list:
    """Aggregate spans by call path (root to span). Returns rows
    ``(path, calls, inclusive_s, self_s)`` in depth-first order, children
    sorted by inclusive time."""
    path_of = {}
    path_ids = []
    paths = []
    for n, p in zip(np.asarray(name).tolist(), np.asarray(parent).tolist()):
        key = (path_ids[p] if p >= 0 else -1, n)
        pid = path_of.get(key)
        if pid is None:
            pid = path_of[key] = len(paths)
            paths.append(key)
        path_ids.append(pid)
    path_ids = np.asarray(path_ids, dtype=np.int64)
    k = len(paths)
    calls = np.bincount(path_ids, minlength=k)
    incl = np.bincount(path_ids, weights=dur, minlength=k)
    own = np.bincount(path_ids, weights=self_s, minlength=k)
    children = defaultdict(list)
    for pid, (up, _) in enumerate(paths):
        children[up].append(pid)
    rows = []

    def walk(up, prefix):
        for pid in sorted(children[up], key=lambda c: -incl[c]):
            path = prefix + (names[paths[pid][1]],)
            rows.append((path, int(calls[pid]), float(incl[pid]), float(own[pid])))
            walk(pid, path)

    walk(-1, ())
    return rows
