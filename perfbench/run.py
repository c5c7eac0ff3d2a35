"""quadliaison benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tables|resolve|cli|all --seed N \
        --seconds S --trace 0|1 [--quick]

Run from the root of a checkout.  ``--trace 0`` runs a closed loop with
one client for S seconds and prints every end-to-end metric; ``--trace 1``
replays a fixed op list untraced and then traced, adds a traced sweep of
the README commands and the one-shot probes, and prints every per-layer
metric.  ``--workload all`` runs the three workloads in turn and prints
one table.  The last stdout line is the JSON result; the exit code is 0
only when every output agreed with the oracle.  See perfbench/README.md.
"""

import time


def machine_probe() -> int:
    """Nanoseconds of a fixed pure-Python loop that allocates nothing.

    The shared machine drifts between a normal state and slower ones
    (1.5x to 2.5x) within seconds.  This probe sees those states but
    nothing the program does, so it tells which ops started on a machine
    at normal speed.
    """
    start = time.perf_counter_ns()
    total = 0
    for i in range(5_000):
        total += i & 7
    return time.perf_counter_ns() - start


# a set-up probe process reports the machine's speed just before its set-up
_PROBE0 = machine_probe()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 15
MIN_NORMAL_SETUPS = 5
SUBPROCESS_PROBES = 7
SCALE_BOUNDS = [(-6, 3), (-16, 3)]
SCALE_WIDTHS = [10, 1000, 100_000]
README_REPEATS = 3
QUICK_OPS = 8
NORMAL_SLACK = 1.1
MIN_NORMAL_OPS = 50


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench_names(key: str) -> dict:
    return {m["name"]: m["unit"] for m in _spec()[key]}


# -- the closed loop -------------------------------------------------------

def closed_loop(workload, ops, seconds=None, tracer=None, side_task=None):
    """Run ops with one client: each op starts when the last returns.

    ``ops`` is an iterable.  With ``seconds`` the loop stops after the
    first op that ends once ``seconds`` have passed, so an endless
    generator gives fresh inputs all the way.  Only the op is timed; a
    machine probe runs just before each op, and the oracle checks each
    op's output after it.  ``side_task``, if given, runs between ops
    SETUP_PROBES times, spread evenly over ``seconds``.  Returns each op's
    latency with the probe taken just before it.
    """
    samples, outcomes, mix = [], Counter(), Counter()
    failed = 0
    deadline = None if seconds is None else time.perf_counter() + seconds
    side_every = None if seconds is None or side_task is None else seconds / SETUP_PROBES
    next_side = None if side_every is None else time.perf_counter() + side_every / 2
    for op_id, op in enumerate(ops):
        probe = machine_probe()
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                result = workload.run(op)
            else:
                result = tracer.run_op(op_id, op["kind"], workload.run, op)
            crashed = None
        except Exception:  # an uncaught error is a failed op, never the harness's
            crashed = traceback.format_exc()
        samples.append((time.perf_counter_ns() - start, probe))
        mix[op.get("mix", op["kind"])] += 1
        if crashed is not None:
            ok, outcome = False, "crash"
        else:
            ok, outcome = workload.check(op, result)
        outcomes[outcome] += 1
        if not ok:
            failed += 1
            if failed <= 3:
                print(f"FAILED op {op_id}: {json.dumps(op, default=str)}\n"
                      f"  -> {crashed or repr(result)[:2000]}", file=sys.stderr)
        if next_side is not None and time.perf_counter() >= next_side:
            side_task()
            next_side += side_every
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return {"samples": samples, "failed": failed, "outcomes": outcomes, "mix": mix}


def normal_limit(samples) -> float:
    """Probe time up to which the machine counts as at normal speed:
    NORMAL_SLACK times the run's 10th-percentile probe."""
    probes = sorted(probe for _, probe in samples)
    return probes[len(probes) // 10] * NORMAL_SLACK


def summarize(loop) -> dict:
    """End-to-end statistics of one closed loop.

    They are taken over the ops that started on a machine at normal
    speed (see ``normal_limit``), or over every op if fewer than
    MIN_NORMAL_OPS did.  Whether an op counts is settled before it starts,
    so the op mix of the counted ops is that of the run.
    """
    samples = loop["samples"]
    limit = normal_limit(samples)
    everything = [latency for latency, _ in samples]
    normal = [latency for latency, probe in samples if probe <= limit]
    ordered = sorted(normal if len(normal) >= MIN_NORMAL_OPS else everything)
    n = len(ordered)
    # the highest percentile with at least 10 samples beyond it: the 11th largest
    beyond = min(10, n - 1)
    return {
        "attempted": len(everything),
        "failed": loop["failed"],
        "fail_ratio": loop["failed"] / len(everything),
        "ops_per_s": n / (sum(ordered) / 1e9),
        "latency_p50_ms": statistics.median(ordered) / 1e6,
        "latency_tail_ms": ordered[n - 1 - beyond] / 1e6,
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_samples": n,
        "tail_samples_beyond": beyond,
        "counted_ops": n,
        "normal_speed_ops": len(normal),
        "normal_probe_limit_ns": limit,
        "every_op_ops_per_s": len(everything) / (sum(everything) / 1e9),
        "every_op_latency_p50_ms": statistics.median(everything) / 1e6,
        "op_mix": dict(sorted(loop["mix"].items())),
        "outcome_mix": dict(sorted(loop["outcomes"].items())),
    }


# -- probes in fresh processes ---------------------------------------------

def _probe(args, timeout=170) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_child.py"), *map(str, args)],
        env=workloads.child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_time(name: str, seed: int) -> tuple:
    """Set-up seconds of a fresh harness process, up to its first op, with
    the machine probe that process took just before its set-up."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    return record["setup_s"], record["probe"]


def floor_ms() -> float:
    times = []
    for _ in range(SUBPROCESS_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def scale_probes() -> dict:
    out = {}
    for lo, hi in SCALE_BOUNDS:
        rec = _probe(["classify", lo, hi])
        key = f"scale.classify.b{lo}_{hi}"
        out[f"{key}.ms"] = rec["ms"]
        out[f"{key}.capped"] = rec["capped"]
        out[f"{key}.candidates"] = rec["candidates"]
    for width in SCALE_WIDTHS:
        rec = _probe(["tables", width])
        for part in ("ideal_ms", "full_ms", "render_ms"):
            out[f"scale.tables.w{width}.{part}"] = rec[part]
    return out


# -- workloads -------------------------------------------------------------

def make_workload(name: str, seed: int):
    workload = workloads.WORKLOADS[name](seed)
    if hasattr(workload, "warm_up"):
        workload.warm_up()
    return workload


def check_reference() -> list:
    """The oracle against the 40 frozen values of ``ql verify`` (golden text)."""
    golden = workloads.GOLDEN / "verify.txt"
    if not golden.is_file():
        raise workloads.SetupError(f"missing {golden}")
    return oracle.cross_check_reference(golden.read_text())


def untraced_run(args, workload, setup_main_s):
    setups = []
    if args.quick:
        loop = closed_loop(workload, islice(workload.ops(), QUICK_OPS), seconds=args.seconds)
        setups.append((setup_main_s, 0))
    else:
        loop = closed_loop(workload, workload.ops(), seconds=args.seconds,
                           side_task=lambda: setups.append(setup_time(args.workload, args.seed)))
    if args.workload == "cli":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stats = summarize(loop)
    # like the ops, the set-ups count when measured at normal machine speed
    limit = stats["normal_probe_limit_ns"]
    normal = [value for value, probe in setups if probe <= limit]
    samples = normal if len(normal) >= MIN_NORMAL_SETUPS else [value for value, _ in setups]
    stats["setup_s"] = statistics.median(samples)
    stats["setup_samples"] = samples
    stats["peak_rss_mb"] = peak / 1024.0
    return stats


class _ChildTraces:
    """The cli workload with traced ``ql`` children; merges their dumps."""

    def __init__(self, cli):
        OUT.mkdir(exist_ok=True)
        self.cli = cli
        self.path = OUT / f"child-{os.getpid()}.json"
        cli.launcher = [sys.executable, str(HERE / "cli_child.py")]
        cli.env_extra = {"PERFBENCH_TRACE_OUT": str(self.path)}
        self.total: dict = {}
        self.kinds: dict = {}
        self.main_ms: dict = {}
        self.stdout_bytes = 0
        self.ops = 0

    def check(self, op, result):
        return self.cli.check(op, result)

    def run(self, op):
        result = self.cli.run(op)
        part = json.loads(self.path.read_text())
        self.path.unlink()
        tracing.merge(self.total, part, self.ops)
        kind = op["kind"]
        self.kinds[self.ops] = kind
        main = sum(s[3] - s[2] for s in part["spans"] if s[1] == "cli.main")
        self.main_ms.setdefault(kind, []).append(main / 1e6)
        self.stdout_bytes += len(result[1])
        self.ops += 1
        return result


def traced_run(args, workload):
    """Fixed ops untraced, the same ops traced, then the README sweep and probes."""
    workloads.load_package()
    tracing.require_names()
    ops = list(islice(workload.ops(), QUICK_OPS if args.quick else workload.list_ops))
    untraced = summarize(closed_loop(workload, ops))
    failed = untraced["failed"]
    tracer = tracing.Tracer()
    if args.workload == "cli":
        children = _ChildTraces(workload)
        traced = summarize(closed_loop(children, ops))
    else:
        tracing.install(tracer)
        traced = summarize(closed_loop(workload, ops, tracer=tracer))
        cli = workloads.Cli(args.seed)
        children = _ChildTraces(cli)
    failed += traced["failed"]
    kinds = {i: op["kind"] for i, op in enumerate(ops)} if args.workload != "cli" else {}

    # the README commands, traced, so every layer is present in every run
    sweep = [{"kind": kind, "argv": argv, "golden": name}
             for kind, name, argv in workloads.GOLDEN_COMMANDS if name.endswith(".txt")]
    sweep.append({"kind": "link", "argv": ["link", "-d", "8", "-g", "4", "--ci", "2,2,3"],
                  "fmt": "text", "spec": {"d": 8, "g": 4, "degrees": (2, 2, 3)}})
    repeats = 1 if args.quick else README_REPEATS
    sweep_loop = closed_loop(children, sweep * repeats)
    failed += sweep_loop["failed"]

    total: dict = {}
    tracing.merge(total, tracer.dump(), 0)
    offset = len(ops) + 1
    tracing.merge(total, children.total, offset)
    for op_id, kind in children.kinds.items():
        kinds[op_id + offset] = kind

    layers = layer_metrics(total, kinds, children)
    layers["python.floor_ms"] = floor_ms()
    layers["quadliaison.import_ms"] = statistics.median(
        _probe(["import"])["ms"] for _ in range(3 if args.quick else SUBPROCESS_PROBES))
    layers.update(scale_probes())
    layers["trace.ops_per_s_untraced"] = untraced["ops_per_s"]
    layers["trace.ops_per_s_traced"] = traced["ops_per_s"]
    layers["trace.overhead_pct"] = 100.0 * (1 - traced["ops_per_s"] / untraced["ops_per_s"])

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_file, "w", encoding="utf-8") as handle:
        for span_id, name, start, end, parent, op_id in total["spans"]:
            handle.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op_id,
                                     "kind": kinds.get(op_id)}) + "\n")
    stats = dict(traced)
    swept = len(sweep_loop["samples"])
    stats["attempted"] = untraced["attempted"] + traced["attempted"] + swept
    stats["failed"] = failed
    stats["layers"] = layers
    stats["spans_file"] = str(spans_file.relative_to(ROOT))
    return stats


def layer_metrics(total, kinds, children) -> dict:
    calls, self_ns, counts = total["calls"], total["self_ns"], total["counts"]

    def ms(name):
        return self_ns.get(name, 0) / 1e6

    tested = counts.get("classify.candidates_tested", 0)
    out = {
        "cli.main.self_ms": ms("cli.main"),
        "cli.stdout_bytes": children.stdout_bytes,
        "classify.enumerate.cold_ms": counts.get("classify.enumerate.cold_ns", 0) / 1e6,
        "classify.enumerate.calls": calls.get("classify.enumerate", 0),
        "classify.candidates_built": counts.get("classify.candidates_built", 0),
        "classify.candidates_tested": tested,
        "classify.match.self_ms": ms("classify.match"),
        "classify.match_ratio": counts.get("classify.matches", 0) / tested if tested else 0.0,
        "classify.generator_estimate.self_ms": ms("classify.generator_estimate"),
        "classify.share_pct": tracing.share_pct(total["spans"], kinds, "classify.etype", "resolve"),
        "classify.enumerate.share_pct": tracing.share_pct(
            total["spans"], kinds, "classify.enumerate", "resolve"),
        "sheaves.h0.calls": calls.get("sheaves.h0", 0),
        "sheaves.h0.self_ms": ms("sheaves.h0"),
        "sheaves.exprs_built": counts.get("sheaves.exprs_built", 0),
        "hilbert.calls": calls.get("hilbert", 0),
        "hilbert.self_ms": ms("hilbert"),
        "curves.tables.self_ms": ms("curves.tables"),
        "curves.cells": counts.get("curves.cells", 0),
        "curves.render.self_ms": ms("curves.render"),
        "curves.render.bytes": counts.get("curves.render.bytes", 0),
        "curves.regularity.self_ms": ms("curves.regularity"),
        "curves.obstruction.self_ms": ms("curves.obstruction"),
        "curves.nonspecial_threshold.self_ms": ms("curves.nonspecial_threshold"),
        "liaison.ci_residual.self_ms": ms("liaison.ci_residual"),
        "liaison.mapping_cone.self_ms": ms("liaison.mapping_cone"),
        "liaison.audit.self_ms": ms("liaison.audit"),
        "liaison.audit.cells": counts.get("liaison.audit.cells", 0),
        "verify.self_ms": ms("verify"),
        "verify.checks": counts.get("verify.checks", 0),
        "verify.fail": counts.get("verify.fail", 0),
    }
    for outcome in ("unique", "ambiguous", "none", "audit_fail", "capped"):
        out[f"classify.outcome.{outcome}"] = counts.get(f"classify.outcome.{outcome}", 0)
    for outcome in ("ok", "inconsistent"):
        out[f"liaison.outcome.{outcome}"] = counts.get(f"liaison.outcome.{outcome}", 0)
    for kind in workloads.README_KINDS:
        samples = children.main_ms.get(kind, [])
        out[f"cli.cmd.{kind}.p50_ms"] = statistics.median(samples) if samples else 0.0
    return out


# -- output ----------------------------------------------------------------

def print_report(name, args, stats, metrics, units) -> None:
    mode = "traced" if args.trace else f"closed loop, 1 client, {args.seconds} s"
    print(f"workload {name}  seed {args.seed}  ({mode})")
    for key, value in metrics.items():
        note = ""
        if key == "latency_tail_ms":
            note = (f"p{stats['tail_percentile']:.2f} of {stats['tail_samples']} samples, "
                    f"{stats['tail_samples_beyond']} beyond")
        elif key in ("ops_per_s", "latency_p50_ms"):
            note = (f"over {stats['counted_ops']} of {stats['attempted']} ops; "
                    f"{stats['normal_speed_ops']} started at normal machine speed")
        elif key == "setup_s":
            note = f"median of {len(stats['setup_samples'])} fresh set-ups"
        print(f"  {key:<40} {value:>14.6g} {units[key]:<6} {note}")
    print(f"  {'fail_ratio':<40} {stats['fail_ratio']:>14.6g} {'ratio':<6} "
          f"{stats['failed']} failed / {stats['attempted']} attempted")
    for key, unit in (("ops_per_s", "1/s"), ("latency_p50_ms", "ms")):
        print(f"  {'every op: ' + key:<40} {stats['every_op_' + key]:>14.6g} {unit:<6}")
    print(f"  op mix: {json.dumps(stats['op_mix'])}")
    print(f"  outcome mix: {json.dumps(stats['outcome_mix'])}")


def run_all(args) -> int:
    correct, attempted, failed, merged = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"workload {name} did not finish (exit {proc.returncode})", file=sys.stderr)
            return 2
        print("\n".join(line for line in lines[:-1] if not line.startswith("report: ")))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in result["metrics"].items():
            merged[f"{name}.{key}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny run for the self-test: fewer ops, probes and set-ups")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        workload = make_workload(args.workload, args.seed)
        setup_main_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main_s, "probe": _PROBE0}))
            return 0
        reference = check_reference()
    except (workloads.SetupError, OSError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    if reference:
        print(f"oracle disagrees with ql verify's frozen values: {reference}", file=sys.stderr)

    if args.trace:
        try:
            stats = traced_run(args, workload)
        except LookupError as exc:
            print(f"perfbench: cannot trace: {exc}", file=sys.stderr)
            return 2
        units = _bench_names("per_layer")
        source = stats["layers"]
    else:
        stats = untraced_run(args, workload, setup_main_s)
        units = _bench_names("end_to_end")
        source = stats
    metrics = {key: source[key] for key in units}
    correct = stats["failed"] == 0 and not reference
    print_report(args.workload, args, stats, metrics, units)
    report = {k: v for k, v in stats.items() if k not in ("layers",)}
    print("report: " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
