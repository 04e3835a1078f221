"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import run
from checks import check_csv, check_op
from spans import Span, Tracer, layer_metrics, self_times
from workloads import (
    WORKLOADS,
    blocks_switch_op,
    brick_wall,
    chain_op,
    lattice_dim,
    make_ops,
    routes_with_hops,
    switch_op,
    transfer_time_op,
)

ROOT = Path(__file__).resolve().parent.parent
if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


@pytest.fixture
def runner_for(tmp_path):
    def make(ops):
        runner = run.Runner(ops, tmp_path)
        runner.load()
        return runner

    return make


# --- generator ---------------------------------------------------------------


def test_same_seed_same_inputs():
    for workload in WORKLOADS:
        assert make_ops(workload, 7) == make_ops(workload, 7)
    assert make_ops("resonant-protocols", 7) != make_ops("resonant-protocols", 8)


def _propagation_work(op) -> int:
    e = op.expect
    return e["windows"] * e["samples"] * e["dim"] ** 2 if "windows" in e else 0


def test_seed_keeps_scale_work_fixed():
    work = {sum(_propagation_work(op) for op in make_ops("network-scale", s)) for s in range(6)}
    assert len(work) == 1


def test_brick_wall_geometry():
    from cavity_route import HexLatticeDescriptor, build_hex_lattice

    vertices, links = brick_wall(6, 6)
    route = routes_with_hops(6, 6, 10)[0]
    desc = HexLatticeDescriptor(vertices, links, uploads=(route[0], route[-1]))
    assert build_hex_lattice(desc).dim == lattice_dim(6, 6) == 486
    ports = [(a, pa) for a, pa, _, _ in links] + [(b, pb) for _, _, b, pb in links]
    assert len(ports) == len(set(ports))
    assert all(len(r) == 11 for r in routes_with_hops(6, 6, 10))


# --- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_smallest_size(workload, runner_for):
    runner = runner_for(make_ops(workload, 1, smoke=True))
    runner.run_round()
    assert runner.failures == []
    assert runner.attempted == len(runner.ops)


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "network-scale", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- planted failures --------------------------------------------------------------


def _run_one(runner_for, op):
    runner = runner_for([op])
    result = runner.run_op(0)
    csv_text = runner.outputs[0].read_text() if op.csv else None
    assert check_op(op, result.rc, result.stdout, csv_text) == []
    return result, csv_text


def test_planted_shifted_t_star_fails(runner_for):
    op = transfer_time_op("end", "resonant")
    result, _ = _run_one(runner_for, op)
    t_star = float(result.stdout.split()[0].split("=")[1])
    planted = result.stdout.replace(f"t_star={t_star:.12g}", f"t_star={1.05 * t_star:.12g}")
    assert planted != result.stdout
    failures = check_op(op, 0, planted, None)
    assert len(failures) == 1 and failures[0].startswith("t_star=")


def test_planted_nan_fidelity_fails(runner_for):
    op = chain_op("simulate", 2, "resonant")
    result, csv_text = _run_one(runner_for, op)
    fields = result.stdout.split()
    planted = result.stdout.replace(fields[1], "fidelity=nan")
    assert "fidelity=nan below 0.99" in check_op(op, 0, planted, csv_text)


def test_planted_csv_defects_fail(runner_for):
    op = chain_op("simulate", 2, "resonant")
    _, csv_text = _run_one(runner_for, op)
    lines = csv_text.splitlines()
    dropped = "\n".join(lines[:1] + lines[2:])
    rows = 3 * 241 - 2  # three windows share two joint samples
    assert check_csv(op, dropped) == [f"CSV has {rows - 1} rows, expected {rows}"]
    head, _, norm = lines[5].rpartition(",")
    bent = "\n".join(lines[:5] + [f"{head},{float(norm) + 1e-6:.12f}"] + lines[6:])
    failures = check_csv(op, bent)
    assert len(failures) == 1 and failures[0].startswith("CSV norm")


def test_planted_leakage_and_residual_fail():
    switch = replace(switch_op(2, "resonant"), csv=False)
    report = (
        "t_total=3.18954785156 fidelity=0.998850721021 phase=-0.0479551979727 "
        "leakage=2.036494e-27\ntimes t=1.59477392578\n"
    )
    assert check_op(switch, 0, report, None) == []
    planted = report.replace("leakage=2.036494e-27", "leakage=1.000000e-03")
    assert check_op(switch, 0, planted, None) == ["leakage=0.001 above 1e-06"]
    blocks = blocks_switch_op("resonant")
    assert check_op(blocks, 0, "blocks: 4,4,4,4 residual: <=1e-12\n", None) == []
    assert check_op(blocks, 0, "blocks: 4,4,4,4 residual: 3.000e-10\n", None) == [
        "residual 3.000e-10 above 1e-12"
    ]


def test_planted_result_counts_as_failed_operation(runner_for):
    op = transfer_time_op("end", "resonant")
    runner = runner_for([op, op])
    real_main = runner.cli.main
    calls = []

    def planted_main(argv):
        calls.append(argv)
        if len(calls) == 2:
            print("t_star=2.3343 fidelity=0.99999 phase=2.48")  # 5% late
            return 0
        return real_main(argv)

    runner.cli = types.SimpleNamespace(main=planted_main)
    runner.run_round()
    assert runner.attempted == 2
    assert len(runner.failures) == 1 and "t_star=2.3343" in runner.failures[0]


# --- spans -------------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    spans = [
        Span("cli.main", None, 0.0, 10.0, None, 0),
        Span("evolution.eigendecompose", None, 1.0, 3.0, 0, 0),
        Span("routing.run_schedule", None, 4.0, 8.0, 0, 0),
        Span("network.build_single_excitation_hamiltonian", None, 5.0, 6.0, 2, 0),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_traced_round_nests_spans_and_restores_functions(runner_for):
    import cavity_route.cli
    import cavity_route.routing

    original = (cavity_route.cli.main, cavity_route.routing.eigendecompose)
    runner = runner_for([chain_op("simulate", 2, "resonant")])
    tracer = Tracer()
    tracer.install()
    try:
        runner.run_round(tracer)
    finally:
        tracer.uninstall()
    assert (cavity_route.cli.main, cavity_route.routing.eigendecompose) == original
    spans = tracer.take()
    assert spans[0].name == "cli.main" and spans[0].parent is None
    run_index = next(i for i, s in enumerate(spans) if s.name == "routing.run_schedule")
    children = {s.name for s in spans if s.parent == run_index}
    assert {"evolution.eigendecompose", "network.build_single_excitation_hamiltonian"} <= children
    own = self_times(spans)
    assert min(own) >= 0.0
    assert math.isclose(sum(own), spans[0].duration, rel_tol=1e-9)
    metrics = layer_metrics(spans)
    assert metrics["cli.calls"] == 1
    assert metrics["evolution.searches"] == 2
    assert metrics["routing.windows"] == 3
    assert metrics["cli.csv_rows"] == 3 * 241 - 2


def test_counts_repeat_exactly(runner_for):
    runner = runner_for(make_ops("resonant-protocols", 3, smoke=True))
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            runner.run_round(tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer.take())
        counts.append({k: v for k, v in metrics.items() if run.PER_LAYER_UNITS[k] in ("count", "MAC")})
    assert counts[0] == counts[1]
    assert runner.failures == []


# --- reporting --------------------------------------------------------------------


def test_tail_is_median_of_round_maxima():
    assert run.tail([[1.0, 5.0, 2.0], [9.0, 1.0], [3.0, 4.0]]) == 5.0
    # one slow round moves it no further than the next round's slowest
    assert run.tail([[1.0, 5.0], [90.0, 1.0], [3.0, 4.0]]) == 5.0


def test_run_tail_keeps_ten_beyond():
    assert run.run_tail([float(i) for i in range(20)])["percentile"] == 50.0
    assert run.run_tail([float(i) for i in range(40)])["percentile"] == 75.0
    assert run.run_tail([float(i) for i in range(1000)])["percentile"] == 99.0
    assert run.run_tail([1.0] * 19) is None


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER_UNITS)
    for group, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert all(m["unit"] == units[m["name"]] for m in bench[group])
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
