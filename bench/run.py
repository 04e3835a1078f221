"""cavity-route benchmark: one closed-loop caller driving the CLI in-process.

Usage (from the repository root)::

    python3 bench/run.py --workload resonant-protocols --seed 1 --seconds 30 --trace 0

One operation is one ``cavity_route.cli.main`` call on a generated config;
the next starts when the previous one returns.  A round is the workload's
fixed operation list.  Rounds repeat while another one fits in
``--seconds``.  Every output is checked after its round (outside the timed
region).  The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced rounds, so ``trace.overhead_ratio`` compares
rounds of the same run.  Details (environment, round count, per-operation
medians, failures) go to stderr and to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from checks import check_op
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Op, make_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

#: One BLAS thread: on two cores the default thread pool made a 1.6 ms
#: propagation take 64 ms and swing by 30x between calls.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: setup_s is the median of the measured process and this many fresh ones.
SETUP_PROBES = 4

#: Every run measures at least this many rounds, so the medians over rounds
#: have a middle value.
MIN_ROUNDS = 3

#: The whole-run tail that goes to the report, not to the metrics: the
#: highest of these percentiles (per mille) with TAIL_BEYOND operations above.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.emit_csv_s": "s",
    "cli.csv_rows": "count",
    "network.build_s": "s",
    "collective.basis_s": "s",
    "collective.decompose_s": "s",
    "collective.extract_s": "s",
    "collective.residual_max": "abs",
    "evolution.search_s": "s",
    "evolution.searches": "count",
    "evolution.grid_points": "count",
    "evolution.scan_rate": "points/s",
    "evolution.autogrid_s": "s",
    "evolution.eigh_calls": "count",
    "evolution.eigh_s": "s",
    "closed_form.validate_s": "s",
    "routing.run_s": "s",
    "routing.propagate_self_s": "s",
    "routing.windows": "count",
    "routing.samples": "count",
    "routing.prop_macs_computed": "MAC",
    "routing.prop_rate": "MAC/s",
    "routing.entangle_s": "s",
    "routing.norm_drift_max": "abs",
    "routing.fidelity_min": "prob",
    "trace.overhead_ratio": "ratio",
}

#: Health values aggregate by their worst round, not the median.
WORST_OF = {
    "collective.residual_max": max,
    "routing.norm_drift_max": max,
    "routing.fidelity_min": min,
}


@dataclass
class OpResult:
    index: int
    seconds: float
    rc: object
    stdout: str
    stderr: str


class Runner:
    """Runs operations against the package and checks their outputs."""

    def __init__(self, ops: list[Op], work: Path) -> None:
        self.ops = ops
        self.configs = []
        self.outputs = []
        for i, op in enumerate(ops):
            config = work / f"op{i:02d}.json"
            config.write_text(json.dumps(op.config), encoding="utf-8")
            self.configs.append(str(config))
            self.outputs.append(work / f"op{i:02d}.csv")
        self.cli = None
        self.attempted = 0
        self.failures: list[str] = []

    def load(self) -> None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import cavity_route.cli

        self.cli = cavity_route.cli

    def run_op(self, index: int, tracer: Tracer | None = None) -> OpResult:
        op = self.ops[index]
        argv = [op.command, "--config", self.configs[index], *op.flags]
        if op.csv:
            argv += ["--out", str(self.outputs[index])]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            # a crash is a failed operation, not the end of the run
            rc = "exception"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        return OpResult(index, seconds, rc, out.getvalue(), err.getvalue())

    def check(self, result: OpResult) -> None:
        op = self.ops[result.index]
        csv_text = None
        path = self.outputs[result.index]
        if op.csv and path.exists():
            csv_text = path.read_text(encoding="utf-8")
            path.unlink()
        self.attempted += 1
        problems = check_op(op, result.rc, result.stdout, csv_text)
        if problems:
            detail = "; ".join(problems)
            if result.stderr:
                detail += f"; stderr: {result.stderr.strip()[-300:]}"
            self.failures.append(f"{op.name}: {detail}")

    def run_round(self, tracer: Tracer | None = None) -> tuple[float, list[OpResult]]:
        """All operations in list order; returns the round's wall time and results."""
        start = time.perf_counter()
        results = [self.run_op(i, tracer) for i in range(len(self.ops))]
        wall = time.perf_counter() - start
        for result in results:
            self.check(result)
        return wall, results


def pin_environment() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CAVITY_ROUTE_THREADS", None)


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: import plus the warm-up operation."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def tail(rounds: list[list[float]]) -> float:
    """The slowest operation of each round, median over rounds.

    A percentile over the whole run follows the host instead: on a shared
    host a slow spell over a tenth of the run lifts the whole-run p99 by the
    spell's full slowdown, while this median moves only when most rounds do.
    """
    return statistics.median(max(latencies) for latencies in rounds)


def run_tail(latencies: list[float]) -> dict | None:
    """Highest ladder percentile with TAIL_BEYOND operations above it."""
    for per_mille in TAIL_LADDER:
        if len(latencies) * (1000 - per_mille) >= TAIL_BEYOND * 1000:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return {"percentile": per_mille / 10.0, "ms": 1000.0 * cuts[per_mille - 1]}
    return None


def measure(runner: Runner, seconds: float, traced: bool) -> dict:
    """Rounds while another one fits in ``seconds``; traced runs alternate."""
    tracer = Tracer() if traced else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    latencies: list[list[float]] = []  # per untraced round
    by_op: dict[str, list[float]] = {}
    layers: list[dict] = []
    spans_out: list[dict] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        on = traced and rounds % 2 == 1
        if on:
            tracer.install()
        try:
            wall, results = runner.run_round(tracer if on else None)
        finally:
            if on:
                tracer.uninstall()
        rounds += 1
        walls[on].append(wall)
        if on:
            spans = tracer.take()
            layers.append(layer_metrics(spans))
            spans_out += [
                {"round": rounds, "op": s.op, "name": s.name, "start": s.start,
                 "end": s.end, "parent": s.parent}
                for s in spans
            ]
        else:
            latencies.append([r.seconds for r in results])
            for r in results:
                by_op.setdefault(runner.ops[r.index].name, []).append(r.seconds)
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds:
            break
    return {
        "walls": walls,
        "latencies": latencies,
        "op_median_ms": {name: 1000.0 * statistics.median(v) for name, v in by_op.items()},
        "layers": layers,
        "spans": spans_out,
    }


def end_to_end(runner: Runner, setups: list[float], m: dict) -> tuple[dict, dict]:
    latencies = [s for round_ in m["latencies"] for s in round_]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(m["walls"][False]),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail(m["latencies"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (runner.attempted - len(runner.failures)) / runner.attempted,
    }
    detail = {
        "rounds": len(m["latencies"]),
        "operations": len(latencies),
        "run_tail": run_tail(latencies),
        "setup_samples": setups,
        "round_walls": m["walls"][False],
        "op_median_ms": m["op_median_ms"],
    }
    return values, detail


def per_layer(m: dict) -> tuple[dict, dict]:
    rounds = m["layers"]
    values = {}
    for name in rounds[0]:
        # median_low reports one of the measured values, so counts, which
        # repeat exactly from round to round, stay whole numbers
        values[name] = WORST_OF.get(name, statistics.median_low)([r[name] for r in rounds])
    values["trace.overhead_ratio"] = statistics.median(m["walls"][True]) / statistics.median(
        m["walls"][False]
    )
    return values, {"traced_rounds": len(rounds), "round_walls": m["walls"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cavity_route" / "__init__.py").is_file():
        print(f"benchmark: no cavity_route sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    ops = make_ops(args.workload, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        runner = Runner(ops, work)
        start = time.perf_counter()
        runner.load()
        warm_up = runner.run_op(0)
        setup = time.perf_counter() - start
        runner.check(warm_up)
        if args.probe:
            print(json.dumps({"setup_s": setup}))
            return 0 if not runner.failures else 1

        env = environment()
        if args.trace:
            m = measure(runner, args.seconds, traced=True)
            values, detail = per_layer(m)
            units = PER_LAYER_UNITS
        else:
            setups = [setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            m = measure(runner, args.seconds, traced=False)
            values, detail = end_to_end(runner, setups, m)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "ops": [op.name for op in ops],
        **detail,
        "failures": runner.failures,
        "metrics": values,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in m["spans"])
    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    if not args.trace:
        print(
            f"{detail['operations']} operations in {detail['rounds']} rounds; "
            f"op_tail_ms is the median of the rounds' slowest; "
            f"whole-run tail: {detail['run_tail']}",
            file=sys.stderr,
        )
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
