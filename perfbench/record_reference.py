"""Record the reference rows that perfbench/run.py checks every pass against.

    python3 perfbench/record_reference.py [workload ...]

Runs one pass of each workload (all by default) for every seed of spec.json's
seed_pool and writes perfbench/reference/<workload>.json.  Record only at a
commit whose rows are known to be right: the reference is what later changes
are checked against, and a change that re-records it must say why.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def main(argv: list[str]) -> int:
    spec = run.load_json(run.HERE / "spec.json")
    run.prepare_environment()
    run.import_program()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    for name in argv or list(spec["workloads"]):
        workload = spec["workloads"][name]
        run.build_tables(workload["setup"])
        seeds = {}
        for seed in spec["seed_pool"]:
            result = run.run_pass(workload["steps"], seed)
            if any(code != 0 for code, _ in result["outputs"]):
                sys.exit(f"error: {name} seed {seed} has a failing step; nothing recorded")
            seeds[str(seed)] = [out for _, out in result["outputs"]]
            print(f"{name} seed {seed}: {result['wall']:.2f} s")
        with open(run.HERE / "reference" / f"{name}.json", "w") as fh:
            json.dump({"commit": commit, "seeds": seeds}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
