"""The benchmark's tracer (``bench/tracer.py``) wraps library functions,
methods and modules by name.  This installs it on the current library
and uninstalls it again, so that a renamed or deleted name it needs
fails here instead of only when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_object():
    tracer = load_tracer()
    modules = {layer: importlib.import_module(f"demchar.{layer}") for layer in tracer.LAYERS}
    classes = [getattr(modules[layer], cls_name) for layer, cls_name, _ in tracer.METHODS]
    before = {owner: dict(vars(owner)) for owner in [*modules.values(), *classes]}
    onedsums, formulas = modules["onedsums"], modules["formulas"]
    g_recursive = onedsums.g_recursive
    trace = tracer.Tracer()
    try:
        trace.install()
        for cls, (_, _, method) in zip(classes, tracer.METHODS):
            assert vars(cls)[method] is not before[cls][method], (cls, method)
        assert formulas.g_recursive is onedsums.g_recursive is not g_recursive
    finally:
        trace.uninstall()
    for owner, saved in before.items():
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert all(now[name] is value for name, value in saved.items()), owner
