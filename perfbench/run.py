"""Run one seisrate benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stage2-cli --seed 1 --seconds 10 --trace 0

The load is a closed loop with one caller: the workload's fixed list of
operations runs in order, one at a time, and the list repeats until
--seconds have passed (at least once).  Answers are checked outside the
timed region.  With --trace 0 the run reports the end-to-end metrics.
With --trace 1 untraced passes alternate with passes in which every layer
boundary is wrapped in a span recorder, and the run reports the per-layer
metrics instead.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it give every figure with its unit and sample count, and the
provenance of the run.  Work files go to .perfbench_work/ under the
checkout; the program is imported from src/ of the same checkout.
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread: the benchmark measures a single caller
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
PROGRAM_MODULES = ("seisrate", "seisrate.cli", "seisrate.experiments")


def _import_program():
    """Import seisrate from src/ of this checkout."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    origin = Path(sys.modules["seisrate"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"seisrate was imported from {origin}, not from {src}")


def _import_seconds():
    """Time to import seisrate in a fresh interpreter (started and waited
    for here, so that each repeat pays the whole import)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); "
            f"[__import__(m) for m in {PROGRAM_MODULES!r}]; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _one_pass(ops, tracer, pass_no):
    """Run every operation once; only `op.run` is inside the timer.
    Returns (latency_s, answer, error) per operation."""
    rows = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.pass_no, tracer.solve = pass_no, f"{pass_no}:{index}"
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            rows.append((time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"))
            continue
        latency = time.perf_counter() - t0
        try:
            rows.append((latency, op.collect(raw), None))
        except Exception as exc:
            rows.append((latency, None, f"{type(exc).__name__}: {exc}"))
    if tracer is not None:
        tracer.pass_no = tracer.solve = None
    return rows


def measure(ops, seconds, tracer=None):
    """Repeat the operation list until `seconds` have passed (at least once).

    With a tracer, untraced and traced passes alternate for twice as long,
    so that both see the same drifts in machine speed.  Returns the
    untraced passes and the traced passes.
    """
    sides = (None,) if tracer is None else (None, tracer)
    runs = tuple([] for _ in sides)
    start = time.perf_counter()
    while not runs[0] or time.perf_counter() - start < seconds * len(sides):
        for passes, recorder in zip(runs, sides):
            if recorder is None:
                passes.append(_one_pass(ops, None, len(passes)))
                continue
            recorder.install()
            try:
                passes.append(_one_pass(ops, recorder, len(passes)))
            finally:
                recorder.uninstall()
    return runs[0], (runs[1] if tracer is not None else [])


def judge(ops, passes):
    """Check the first pass's answers with the oracles and every later
    answer against the first.  Returns (failures, problems by op name)."""
    failed = 0
    problems = {}
    reference = []
    for op, (_, answer, error) in zip(ops, passes[0]):
        if error is None:
            try:
                found = op.check(answer)
            except Exception as exc:  # a checker that cannot run is a failed check
                found = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            found = [error]
        reference.append(None if error else op.fingerprint(answer))
        if found:
            failed += 1
            problems[op.name] = found
    for rows in passes[1:]:
        for op, ref, (_, answer, error) in zip(ops, reference, rows):
            if error is not None or ref is None or op.fingerprint(answer) != ref:
                failed += 1
                problems.setdefault(op.name, []).append(
                    error or "answer differs from the first pass")
    return failed, problems


def _pass_walls(passes):
    return [sum(latency for latency, _, _ in rows) for rows in passes]


def end_to_end(setup_times, passes, rss_mb, bench):
    latencies = [latency for rows in passes for latency, _, _ in rows]
    walls = _pass_walls(passes)
    values = {
        "setup_s": (median(setup_times), len(setup_times)),
        # the mean, not the median: it averages the slow drifts in machine
        # speed over the whole run instead of picking one of them
        "wall_s": (fmean(walls), len(walls)),
        "solve_ms_p50": (1e3 * _percentile(latencies, 0.5), len(latencies)),
        "solve_ms_p90": (1e3 * _percentile(latencies, 0.9), len(latencies)),
        "peak_rss_mb": (rss_mb, 1),
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    return {name: {"value": v, "unit": units[name], "samples": n}
            for name, (v, n) in values.items()}


def per_layer(tracer, traced, untraced, setup_indices, bench):
    names = [m["name"] for m in bench["per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    values, counts_repeat = tracing.pass_metrics(
        tracer.spans, range(len(traced)), setup_indices)
    traced_wall = fmean(_pass_walls(traced))
    plain_wall = fmean(_pass_walls(untraced))
    values["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    values["trace.absent"] = len(tracer.absent)
    samples = {name: (1 if name in tracing.COUNT_METRICS else len(traced))
               for name in names}
    samples["model.generate.busy_s"] = samples["model.save_instance.busy_s"] = 1
    return ({name: {"value": values[name], "unit": units[name],
                    "samples": samples[name]} for name in names},
            counts_repeat)


def notes_summary(ops):
    """Figures that checks found beside pass/fail: schedule misses and the
    optimality gap of the metaheuristics."""
    out = {}
    min_max = [op for op in ops if "schedule_missed" in op.notes]
    if min_max:
        out["schedule_misses"] = sum(op.notes["schedule_missed"] for op in min_max)
        out["min_max_calls"] = len(min_max)
    gaps = [g for op in ops for g in op.notes.get("gaps_pct", [])]
    if gaps:
        out["opt_gap_pct"] = sum(gaps) / len(gaps)
        out["opt_gap_runs"] = len(gaps)
    return out


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    prepare = workloads.WORKLOADS[args.workload]
    run_dir = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # set-up: import the program, then generate and write the instances;
    # repeated, keeping the instances of the last round
    setup_times = []
    for r in range(SETUP_REPEATS):
        import_s = _import_seconds()
        t0 = time.perf_counter()
        ops = prepare(args.seed, run_dir / f"setup{r}")
        setup_times.append(import_s + time.perf_counter() - t0)
        if r + 1 < SETUP_REPEATS:
            shutil.rmtree(run_dir / f"setup{r}")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            prepare(args.seed, run_dir / "setup-traced")
        finally:
            tracer.uninstall()
        setup_indices = list(range(len(tracer.spans)))
    untraced, traced = measure(ops, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = [untraced, traced]
    if tracer is not None:
        tracer.write(run_dir / "spans.jsonl")

    failed, problems = judge(ops, [rows for run in runs for rows in run])
    attempted = sum(len(rows) for run in runs for rows in run)
    notes = notes_summary(ops)
    correct = failed == 0
    if args.trace:
        metrics, counts_repeat = per_layer(tracer, traced, untraced, setup_indices, bench)
        if not counts_repeat:
            correct = False
            problems["trace"] = ["exact counts differ between traced passes"]
    else:
        metrics = end_to_end(setup_times, untraced, rss_mb, bench)

    # the printed failure ratio also counts min-max answers without a schedule
    misses = notes.get("schedule_misses", 0) * sum(len(run) for run in runs)
    provenance = {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller",
        "passes": [len(run) for run in runs],
        "operations_per_pass": len(ops),
    }
    report = {
        "provenance": provenance,
        "metrics": metrics,
        "failed_ratio": {"value": (failed + misses) / attempted, "unit": "fraction",
                         "failed": failed + misses, "attempted": attempted},
        "notes": notes,
        "latencies_s": {op.name: [run_rows[i][0] for run in runs for run_rows in run]
                        for i, op in enumerate(ops)},
        "problems": problems,
        "absent": tracer.absent if tracer else [],
    }
    (run_dir / "result.json").write_text(json.dumps(report, indent=2) + "\n",
                                         encoding="utf-8")

    for key, value in provenance.items():
        print(f"# {key}: {value}")
    for name, m in metrics.items():
        shown = f"{m['value']:>16d}" if isinstance(m["value"], int) else f"{m['value']:>16.6g}"
        print(f"{name:42s} {shown} {m['unit']:<8s} n={m['samples']}")
    f = report["failed_ratio"]
    print(f"{'failed_ratio':42s} {f['value']:>16.6g} fraction  "
          f"{f['failed']} of {f['attempted']} (schedule misses included)")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for name, found in problems.items():
        print(f"# problem in {name}: {'; '.join(found[:3])}")
    for name in report["absent"]:
        print(f"# absent from the program, not traced: {name}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
