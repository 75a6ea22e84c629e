"""The benchmark reaches progmix functions by name: its tracer wraps them
(perfbench/tracing.py), and its set-up builds the tables that perfbench/spec.json
names (perfbench/run.py).

Renaming or deleting such a function would otherwise break only a benchmark
run, so this checks that every traced name resolves, that install() puts a
span on each, and that uninstall() restores every original; and that every
set-up constructor resolves and runs in the benchmark's own set-up child.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import progmix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


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


def test_setup_constructors_resolve_and_run_at_their_smallest_arguments():
    # SETUP_CHILD looks each name up in progmix.groups, then progmix.borel,
    # and calls it with every listed argument tuple; here it gets the
    # smallest tuple of each name, over every workload.
    run = load_perfbench("run")
    spec = json.loads((PERFBENCH / "spec.json").read_text())
    smallest = {}
    for workload in spec["workloads"].values():
        for name, calls in workload["setup"].items():
            smallest[name] = min(smallest.get(name, min(calls)), min(calls))
    assert {"special_linear_group", "diagonalisable_set", "borel_context",
            "borel_subgroup"} <= smallest.keys()
    setup = {name: [args] for name, args in smallest.items()}
    env = {k: v for k, v in os.environ.items() if k != "PROGMIX_BUDGET"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    child = subprocess.run([sys.executable, "-c", run.SETUP_CHILD, str(run.SRC), json.dumps(setup)],
                           cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
