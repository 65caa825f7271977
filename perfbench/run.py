"""Benchmark of idtest: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload single-1m --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One workload runs in this process. Its set-up is timed several times, then
fixed rounds of ops run in a closed loop (one caller, ``jobs=1``) until
``--seconds`` have passed and the workload's minimum op count is reached.
Every op's outputs are checked, and every round must reproduce the counts of
the first exactly. With ``--trace 1`` untraced and traced rounds alternate:
the per-layer metrics come from the traced rounds, and the difference
between the two is the tracing overhead.
``--workload all`` runs each workload in a child process of its own, since
peak RSS is a lifetime maximum, and prints one table.

The last line of standard output is the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full report. A traced run writes its spans to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("single-1m", "mc-400", "comparator-400")


def load_idtest():
    """Import idtest from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import idtest
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import idtest from {src}: {exc}")
    if Path(idtest.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: idtest was imported from {idtest.__file__}, not {src}")
    return idtest


class Phase:
    """Closed-loop rounds of ops: latencies, checked outputs, round counts."""

    def __init__(self, workload, state, tracer=None):
        self.workload, self.state, self.tracer = workload, state, tracer
        self.latencies: list[float] = []
        self.rounds: list[dict] = []
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.wall = 0.0

    def run_round(self) -> None:
        from workloads import OpResult

        wl = self.workload
        counts = Counter()
        start = time.perf_counter()
        for i in range(wl.round_size):
            if self.tracer is not None:
                self.tracer.op = len(self.latencies)
            t0 = time.perf_counter()
            try:
                result = wl.op(self.state, i)
            except Exception:  # counted in error_rate; the run goes on
                result = OpResult(errors=1)
                self.errors.append(traceback.format_exc(limit=4))
            self.latencies.append(time.perf_counter() - t0)
            self.problems.extend(result.problems)
            counts.update(result.counts())
        self.wall += time.perf_counter() - start
        self.rounds.append(dict(counts))

    def run(self, seconds: float, min_ops: int) -> None:
        while self.wall < seconds or len(self.latencies) < min_ops:
            self.run_round()

    def total(self, name: str) -> int:
        return sum(r.get(name, 0) for r in self.rounds)

    def trials_per_s(self) -> float:
        return self.total("trials") / self.wall

    def latency_ms(self, q: int) -> float:
        """The q-th percentile of op latency, in ms."""
        cuts = statistics.quantiles(self.latencies, n=100, method="inclusive")
        return cuts[q - 1] * 1e3


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def end_to_end(phase: Phase, setup_times: list[float]) -> dict:
    trials = max(phase.total("trials"), 1)
    return {
        "latency_ms_p50": (phase.latency_ms(50), "ms"),
        "latency_ms_p90": (phase.latency_ms(90), "ms"),
        "trials_per_s": (phase.trials_per_s(), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "q_samples_per_op": (phase.total("q_samples") / trials, "count"),
        "p_queries_per_op": (phase.total("p_queries") / trials, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, untraced: Phase, traced: Phase) -> dict:
    from workloads import STAGES

    metrics = tracer.layer_metrics(len(traced.latencies))
    first = traced.rounds[0]
    for stage in STAGES:
        metrics[f"tester.stage.{stage}"] = (first[f"stage.{stage}"], "count/round")
    # 0 on the comparator, whose trials report no distinct count
    metrics["tester.distinct_over_total"] = (first["distinct"] / first["p_queries"], "ratio")
    metrics["trace.overhead.latency_ms_p50"] = (
        traced.latency_ms(50) - untraced.latency_ms(50), "ms")
    metrics["trace.overhead.trials_per_s"] = (
        traced.trials_per_s() - untraced.trials_per_s(), "1/s")
    return metrics


def check_declared(metrics: dict, trace: bool) -> None:
    """Fail when the metrics printed drift from those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want != got:
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(got.items()))}")


def run_one(args) -> int:
    load_idtest()
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    wl.prepare()
    tracer = spans.Tracer() if args.trace else None

    setup_times = []
    with tracer or contextlib.nullcontext():
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            state = wl.setup()
            setup_times.append(time.perf_counter() - t0)
    problems = wl.check_setup(state)

    untraced = Phase(wl, state)
    phases = [untraced]
    if tracer is None:
        untraced.run(args.seconds, wl.min_ops)
    else:
        # untraced and traced rounds alternate, so both meet the same
        # machine conditions and their difference is the tracing overhead
        traced = Phase(wl, state, tracer)
        phases.append(traced)
        while untraced.wall + traced.wall < args.seconds:
            untraced.run_round()
            with tracer:
                traced.run_round()
        tracer.save(OUT / f"spans-{wl.name}.npz")

    rounds = [r for ph in phases for r in ph.rounds]
    if any(r != rounds[0] for r in rounds):
        diff = next(r for r in rounds if r != rounds[0])
        sys.exit(
            f"perfbench: {wl.name} seed {args.seed}: a repeated round gave other "
            f"counts ({rounds[0]} then {diff}); the program is not deterministic"
        )

    for ph in phases:
        problems += ph.problems
        for err in ph.errors[:3]:
            print(err, file=sys.stderr)
    ops = sum(len(ph.latencies) for ph in phases)
    errors = sum(ph.total("errors") for ph in phases)
    if args.trace:
        metrics = per_layer(tracer, untraced, phases[1])
    else:
        metrics = end_to_end(untraced, setup_times)
    check_declared(metrics, bool(args.trace))

    trials = max(untraced.total("trials"), 1)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "outputs_checked": True,
        "problems": problems[:10],
        "ops": ops,
        "latency_samples": len(untraced.latencies),
        "rounds": len(rounds),
        "rounds_identical": True,
        "round_counts": rounds[0],
        "trials": trials,
        "measured_s": untraced.wall,
        "setup_runs": len(setup_times),
        "wrong_verdict_rate": untraced.total("wrong") / trials,
        "error_rate": errors / ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        report["untraced"] = {
            "latency_ms_p50": untraced.latency_ms(50),
            "trials_per_s": untraced.trials_per_s(),
        }
        report["traced"] = {
            "latency_ms_p50": phases[1].latency_ms(50),
            "trials_per_s": phases[1].trials_per_s(),
            "spans": len(tracer.start),
        }
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:15s} {name:48s} {value:>16.6g} {unit}")
    print(f"{wl.name:15s} {'wrong_verdict_rate':48s} {report['wrong_verdict_rate']:>16.6g} share")
    print(f"{wl.name:15s} {'error_rate':48s} {report['error_rate']:>16.6g} share")
    print(json.dumps(report))
    print(json.dumps({
        "correct": not problems and not errors,
        "attempted": ops,
        "failed": errors,
        "metrics": report["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    results, reports, status = {}, {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed with exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        reports[name], results[name] = json.loads(lines[-2]), json.loads(lines[-1])
    if reports:
        first = next(iter(reports.values()))
        print(f"environment: {json.dumps(first['environment'])}")
        print(f"{'metric':48s} {'unit':12s} " + " ".join(f"{n:>16s}" for n in reports))
        rows = {m: r["metrics"][m]["unit"] for r in reports.values() for m in r["metrics"]}
        rows.update(wrong_verdict_rate="share", error_rate="share")
        for metric, unit in rows.items():
            cells = []
            for rep in reports.values():
                value = rep["metrics"][metric]["value"] if metric in rep["metrics"] else rep[metric]
                cells.append(f"{value:>16.6g}")
            print(f"{metric:48s} {unit:12s} " + " ".join(cells))
        print("outputs checked: " + ", ".join(
            f"{n}={'ok' if r['correct'] else 'FAILED'}" for n, r in results.items()))
    if status == 0:
        print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
