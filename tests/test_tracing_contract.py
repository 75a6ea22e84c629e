"""The benchmark's tracer wraps progmix functions by name (perfbench/tracing.py).

Renaming or deleting a traced function would otherwise break only the traced
benchmark run, so this checks that every traced name resolves, that install()
puts a span on each, and that uninstall() restores every original.
"""

import importlib.util
from pathlib import Path

import numpy as np

import progmix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_originals(tracing, modules):
    """(owner, name) -> the object the tracer replaces, for every traced name."""
    out = {(modules["budget"], "charge"): modules["budget"].charge}
    for mod_name, names in tracing.SPANS.items():
        for name in names:
            assert hasattr(modules[mod_name], name), f"{mod_name}.{name} is gone"
            out[modules[mod_name], name] = getattr(modules[mod_name], name)
    for (mod_name, cls_name), names in tracing.METHODS.items():
        cls = getattr(modules[mod_name], cls_name)
        for name in names:
            assert name in cls.__dict__, f"{mod_name}.{cls_name}.{name} is gone"
            out[cls, name] = cls.__dict__[name]
    return out


def test_tracer_spans_resolve_and_uninstall_restores():
    tracing = load_tracing()
    modules = tracing.progmix_modules(progmix)
    originals = traced_originals(tracing, modules)
    # Modules import each other's functions by name; every such binding is wrapped.
    traced = {id(value) for value in originals.values()}
    bindings = {(mod, name): value for mod in modules.values()
                for name, value in vars(mod).items() if id(value) in traced}
    bindings.update(originals)
    tracer = tracing.Tracer(progmix)
    tracer.install()
    try:
        for (owner, name), original in bindings.items():
            assert vars(owner)[name] is not original, f"{name} was not wrapped"
        table = modules["groups"].special_linear_group(2, 3)
        modules["spectral"].spectral_norm(table, np.ones(table.size))
        assert tracer.calls["spectral.spectral_norm"] == 1
        assert tracer.units["op"] > 0
    finally:
        tracer.uninstall()
    for (owner, name), original in bindings.items():
        assert vars(owner)[name] is original, f"{name} was not restored"
