"""The benchmark's tracer (perfbench/tracing.py) names library functions
by string and reads a total for each of them; a name that no longer
resolves would make every traced run fail with a KeyError."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_public_callables():
    """Each traced name is a public method listed in METHODS or COUNTED, or
    a public function of its layer defined in that layer's module, the only
    functions the tracer wraps."""
    tracing = _tracing()
    methods = {}
    for layer, cls_name, meth in tracing.METHODS + tracing.COUNTED:
        cls = getattr(importlib.import_module(f"tropabel.{layer}"), cls_name)
        assert not meth.startswith("_") and callable(vars(cls).get(meth)), (cls_name, meth)
        methods[f"{layer}.{meth}"] = vars(cls)[meth]
    for layer, cls_name, meth in tracing.METHODS:
        assert isinstance(methods[f"{layer}.{meth}"], staticmethod), (cls_name, meth)
    for name in tracing.SELF + tracing.CALLS:
        if name in methods:
            continue
        layer, attr = name.split(".")
        module = importlib.import_module(f"tropabel.{layer}")
        fn = getattr(module, attr, None)
        assert layer in tracing.LAYERS and not attr.startswith("_"), name
        assert callable(fn) and not isinstance(fn, type), name
        assert fn.__module__ == module.__name__ and attr not in tracing.UNWRAPPED, name


def test_installed_tracer_has_a_total_for_every_name():
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert set(tracing.SELF) <= set(tracer.self_s)
        assert set(tracing.CALLS) <= set(tracer.calls)
        assert {f"{layer}.{meth}" for layer, _, meth in tracing.COUNTED} <= set(tracer.calls)
    finally:
        tracer.uninstall()
