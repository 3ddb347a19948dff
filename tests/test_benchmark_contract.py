"""The names the benchmark traces exist in the library.

``perfbench/layers.py`` lists its trace targets as ``quantlab`` module and
function (or ``Class.method``) names. A change that deletes or renames one
fails here, not only when the traced benchmark runs.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_resolves():
    targets = _load_layers().TARGETS
    assert targets
    for t in targets:
        mod = importlib.import_module(f"quantlab.{t.module}")
        owner, _, attr = t.qualname.rpartition(".")
        if owner:  # the tracer wraps a method on its class, in the class's dict
            cls = getattr(mod, owner, None)
            assert inspect.isclass(cls), t.name
            fn = vars(cls).get(attr)
        else:
            fn = getattr(mod, attr, None)
        assert inspect.isfunction(fn), t.name
        assert fn.__module__.startswith("quantlab."), t.name
