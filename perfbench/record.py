"""Run the benchmark over several seeds and write a baseline record.

    python3 perfbench/record.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/record.py --seeds 10 --workloads cli      # an ungated workload

For every workload: one untraced run per seed (seeds 1..N), the median
and quartiles of each end-to-end metric with its spread (quartile
distance over median) against the bound in BENCHMARK.json, the op and
outcome mix of every run, and one traced run (seed 1) for the per-layer
metrics.  The record also holds the environment and size block: commit,
Python version, CPU count, the interpreter floor and src/ line counts.
Run from the root of a checkout; exits 1 if any run was incorrect.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MEASUREMENT_NOTE = (
    "Only the benchmark's own processes are timed, with perf_counter and "
    "getrusage: no system-wide tracing, no hardware counters, no cache dropping."
)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} printed nothing: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report = next(json.loads(line[len("report: "):]) for line in lines if line.startswith("report: "))
    return {"seed": seed, "exit": proc.returncode, "result": result, "report": report}


def spread_table(runs: list, bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else float("inf")
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_bound": spread <= bound, "within_third": spread < bound / 3,
            "values": values,
        }
    return out


def src_lines() -> dict:
    per_module = {
        path.name: sum(1 for _ in path.open(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "quadliaison").glob("*.py"))
    }
    return {"total": sum(per_module.values()), "per_module": per_module}


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: the workloads in BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {
        "environment": {
            "commit_measured": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "measurement": MEASUREMENT_NOTE,
            "src.lines": src_lines(),
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    all_correct = True
    for name in names:
        runs = []
        for seed in range(1, args.seeds + 1):
            run = run_once(name, seed, seconds, 0)
            all_correct &= run["result"]["correct"]
            runs.append(run)
            metrics = {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
            print(f"{name} seed {seed}: {metrics}", flush=True)
        entry = {
            "end_to_end": spread_table(runs, bounds),
            "runs": [
                {"seed": r["seed"], "attempted": r["result"]["attempted"],
                 "failed": r["result"]["failed"], "op_mix": r["report"]["op_mix"],
                 "outcome_mix": r["report"]["outcome_mix"],
                 "tail_percentile": r["report"]["tail_percentile"],
                 "counted_ops": r["report"]["counted_ops"]}
                for r in runs
            ],
        }
        traced = run_once(name, 1, seconds, 1)
        all_correct &= traced["result"]["correct"]
        entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        entry["traced_outcome_mix"] = traced["report"]["outcome_mix"]
        record["environment"]["python.floor_ms"] = entry["per_layer_seed1"]["python.floor_ms"]
        record["workloads"][name] = entry
        for metric, row in entry["end_to_end"].items():
            print(f"  {name:8} {metric:16} median {row['median']:.4g} {row['unit']:4} "
                  f"spread {row['spread']:.3f} (bound {row['bound']})", flush=True)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
