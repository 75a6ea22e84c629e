"""progmix benchmark: fixed workloads of CLI subcommands, with a reference check.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-sweep --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36 --trace 0

A run imports progmix from ./src, builds the workload's group tables, and then
runs passes in a closed loop, one step after another in this process, until
the next pass would end after --seconds (at least spec.json's min_passes).
Each step is `progmix.cli.main(argv)` or a direct library call.  Every pass's
CSV is checked against the rows in perfbench/reference/ for its progmix seed,
and byte for byte against earlier passes with the same seed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median pass
wall and CPU time, the median set-up time of fresh interpreters, and peak RSS;
pass i takes progmix seed pool[(seed + i) % len(pool)] from spec.json.
--trace 1 holds one progmix seed, alternates untraced and traced passes, and
reports the per-layer metrics from perfbench/tracing.py, averaged over the
traced passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Without ./src/progmix the run exits with a
nonzero status and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1

# Builds the workload's tables in a fresh interpreter; argv: src, setup JSON.
SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import progmix
from progmix import borel, groups
if not progmix.__file__.startswith(sys.argv[1]):
    sys.exit(f"progmix imported from {progmix.__file__}, not {sys.argv[1]}")
for name, calls in json.loads(sys.argv[2]).items():
    fn = getattr(groups, name, None) or getattr(borel, name)
    for args in calls:
        fn(*args)
"""


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def prepare_environment() -> dict:
    """Fix what the environment could change, before numpy is imported."""
    os.environ.pop("PROGMIX_BUDGET", None)  # a stray override would change which steps refuse
    # Compile from source in every interpreter, whatever the caller's setting:
    # set-up times stay comparable, and nothing is written outside the checkout.
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    nproc = len(os.sched_getaffinity(0))
    # One BLAS thread: on a small shared machine a threaded SVD's wall time
    # follows whatever else runs on the other cores.
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    return {
        "nproc": nproc,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "loadavg_start": os.getloadavg(),
    }


def import_program():
    """Import progmix from ./src of this checkout, never from elsewhere."""
    if not (SRC / "progmix" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'progmix'} not found; run from a progmix checkout")
    sys.path.insert(0, str(SRC))
    import progmix

    if not Path(progmix.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: progmix imported from {progmix.__file__}, not {SRC}")
    return progmix


def measure_setup(setup: dict, runs: int) -> list[float]:
    """Wall times of `runs` fresh interpreters that import progmix and build
    the tables."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(setup)]
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # quantise the times; a timer kills a hung child instead.
        timer = threading.Timer(120, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
    return times


def build_tables(setup: dict, tracer=None) -> dict:
    """Build the workload's tables in this process; with a tracer, return
    the cold (cache-missing) time of each cached constructor."""
    from progmix import borel, groups

    if tracer:
        tracer.install()
    for name, calls in setup.items():
        fn = getattr(groups, name, None) or getattr(borel, name)
        for args in calls:
            fn(*args)
    if not tracer:
        return {}
    tracer.uninstall()
    return {k: v for k, v in tracer.metrics(0.0).items() if k.endswith(".cold_s")}


def sheared_rows(primes, seed: int) -> int:
    """Both sheared four-term averages on seeded +-1 inputs, as CSV rows."""
    import numpy as np
    from progmix import borel, mixing
    from progmix.report import ExperimentReport

    report = ExperimentReport()
    for p in primes:
        ctx = borel.borel_context(p)
        rng = np.random.default_rng([seed, p, 0])
        fs = [mixing.random_sign_function(ctx.group, rng) for _ in range(4)]
        common = dict(p=p, d=2, group_order=ctx.group.size, seed=seed)
        report.add("sheared", "sheared_average", borel.sheared_average(ctx, fs), **common)
        report.add("sheared", "sheared_average_exact",
                   borel.sheared_average_exact(ctx, fs), **common)
    sys.stdout.write(report.render("csv"))
    return 0


def run_step(step: dict, seed: int) -> tuple[int, str, str]:
    """Run one step; return its exit code, standard output and standard error."""
    from progmix import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if "cli" in step:
                code = cli.main(step["cli"].split() + ["--seed", str(seed)])
            else:
                code = sheared_rows(step["primes"], seed)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_pass(steps: list, seed: int) -> dict:
    outputs = []
    wall = cpu = 0.0
    for step in steps:
        w0, c0 = time.perf_counter(), time.process_time()
        code, out, err = run_step(step, seed)
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        if code != 0:
            print(f"step {step_name(step)!r} exited {code}: {err.strip()[-500:]}")
        outputs.append((code, out))
    return {"wall": wall, "cpu": cpu, "outputs": outputs}


def step_name(step: dict) -> str:
    return step.get("cli") or f"{step['library']} {step['primes']}"


def rows_of(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def failed_rows(step: dict, code: int, out: str, reference: str, rtol: float) -> int:
    """Rows of the reference that this step's output does not reproduce."""
    expected = rows_of(reference)
    if code != 0:
        return len(expected)
    got = rows_of(out)
    floats = set(step["float"])
    failed = abs(len(got) - len(expected))
    for row, ref in zip(got, expected):
        if row == ref:
            continue
        same_key = row[:5] + row[6:] == ref[:5] + ref[6:]
        if not (same_key and ref[4] in floats and close(row[5], ref[5], rtol)):
            failed += 1
    return min(failed, len(expected))


def close(a: str, b: str, rtol: float) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def check_pass(result: dict, steps: list, reference: list[str], rtol: float) -> tuple[int, int]:
    """Return (rows attempted, rows failed) of one pass against its reference."""
    attempted = failed = 0
    for step, (code, out), ref in zip(steps, result["outputs"], reference):
        attempted += len(rows_of(ref))
        failed += failed_rows(step, code, out, ref, rtol)
    return attempted, failed


def run_passes(args, spec: dict, workload: dict, reference: dict, tracer):
    """Run passes until the next one would end after args.seconds, checking
    each against the reference and against earlier passes of its seed.
    Untraced runs time a few fresh-interpreter set-ups after each pass, so
    that set-up samples span the same stretch of time as the passes.

    Untraced runs take pass i's input from pool[(seed + i) % len(pool)], so a
    run's median spans inputs of unequal cost (mu-scan's centralizers).
    Traced runs hold one input and alternate untraced and traced passes.
    """
    pool = spec["seed_pool"]
    steps = workload["steps"]
    passes, traced = [], []
    attempted = failed = 0
    identical = True
    first_outputs = {}
    start = time.perf_counter()
    while True:
        i = len(passes)
        seed = pool[(args.seed + (0 if tracer else i)) % len(pool)]
        traced_pass = tracer is not None and i % 2 == 1
        if traced_pass:
            tracer.reset()
            tracer.install()
        result = run_pass(steps, seed)
        if traced_pass:
            tracer.uninstall()
            traced.append(tracer.metrics(result["wall"]))
        result["traced"] = traced_pass
        result["setup"] = [] if tracer else measure_setup(workload["setup"], spec["setup_per_pass"])
        a, f = check_pass(result, steps, reference[str(seed)], spec["float_rtol"])
        same = first_outputs.setdefault(seed, result["outputs"]) == result["outputs"]
        attempted, failed, identical = attempted + a, failed + f, identical and same
        passes.append(result)
        print(f"pass {i + 1} seed {seed}{' traced' if traced_pass else ''}: "
              f"wall {result['wall']:.4f} s, cpu {result['cpu']:.4f} s, rows {a}, "
              f"failed {f}, identical {same}")
        elapsed = time.perf_counter() - start
        if i + 1 >= spec["min_passes"] and elapsed * (i + 2) / (i + 1) > args.seconds:
            return passes, traced, attempted, failed, identical


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f})"


def run_workload(args, spec: dict, bench: dict) -> dict:
    env = prepare_environment()
    workload = spec["workloads"][args.workload]
    steps = workload["steps"]
    progmix = import_program()
    import numpy as np

    env["numpy"] = np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas['name']} {blas['version']}"
    print("environment:", json.dumps(env))
    print(f"workload {args.workload}: {len(steps)} steps, trace {args.trace}")
    reference = load_json(HERE / "reference" / f"{args.workload}.json")["seeds"]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(progmix)
    else:
        measure_setup(workload["setup"], 1)  # warms the file cache; not recorded
    cold = build_tables(workload["setup"], tracer)
    passes, traced, attempted, failed, identical = run_passes(
        args, spec, workload, reference, tracer)

    print(f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted} rows)")
    if not identical:
        print("determinism check failed: a pass differs from an earlier pass with the same seed")
    if args.trace:
        metrics = layer_metrics(passes, traced, cold)
    else:
        metrics = end_to_end_metrics(passes)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    values = {name: metrics.get(name, 0) for name in units}  # layers never entered read 0
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    return {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def end_to_end_metrics(passes: list[dict]) -> dict:
    setup_times = [t for p in passes for t in p["setup"]]
    walls = [p["wall"] for p in passes]
    cpus = [p["cpu"] for p in passes]
    print(f"wall_s over {len(walls)} passes: {quartiles(walls)}")
    print(f"cpu_s over {len(cpus)} passes: {quartiles(cpus)}")
    print(f"setup_s over {len(setup_times)} interpreters: {quartiles(setup_times)}")
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(passes: list[dict], traced: list[dict], cold: dict) -> dict:
    """Per-layer values averaged over the traced passes, so that the self
    times plus trace.untraced_s still add up to trace.wall_s."""
    names = set().union(*traced)
    metrics = {name: average([t.get(name, 0) for t in traced]) for name in names}
    metrics.update(cold)
    untraced = [p["wall"] for p in passes if not p["traced"]]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(untraced)
    print(f"traced passes {len(traced)}, untraced passes {len(untraced)}")
    return metrics


def average(values: list):
    """Mean of per-pass values; a count that repeats exactly stays an integer."""
    if len(set(values)) == 1:
        return values[0]
    return statistics.fmean(values)


def run_all(args, spec: dict) -> dict:
    """Every workload in its own process; metrics are prefixed by workload."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        one = json.loads(lines[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = value
    return result


def main(argv=None) -> int:
    spec = load_json(HERE / "spec.json")
    bench = load_json(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*spec["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args, spec)
    else:
        result = run_workload(args, spec, bench)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
