"""Output checks for benchmark operations.

Every gate is written as ``not (x >= threshold)`` (or ``<=``), so a NaN
fails it.  The benchmark does not lean on the CLI's ``--strict``, which lets
some non-finite results through.
"""

from __future__ import annotations

import math

from workloads import Op

#: Published transfer times, copied from ``tests/test_acceptance.py``:
#: block -> (t_resonant, resonant relative tolerance, t_dispersive); the
#: dispersive tolerance is 2% for every block.
TRANSFER_TARGETS = {
    "end": (2.2231, 0.02, 266.5300),
    "mid": (3.1410, 0.02, 376.9670),
    "upload": (1.5948, 0.03, 188.4710),
    "hop": (2.2230, 0.02, 266.5580),
}
DISPERSIVE_TOLERANCE = 0.02

FIDELITY_MIN = 0.99
LEAKAGE_MAX = 1e-6
RESIDUAL_MAX = 1e-12
ANALYTIC_ERROR_MAX = 1e-9
NORM_TOLERANCE = 1e-9
RECORDED_TOLERANCE = 1e-9
TOTAL_TIME_TOLERANCE = 1e-9

_FIDELITY_KEY = {"entangle": "bell_fidelity"}


def parse_fields(stdout: str) -> dict[str, float]:
    """``key=value`` tokens of every stdout line, values as floats."""
    fields = {}
    for token in stdout.split():
        key, sep, value = token.partition("=")
        if sep:
            try:
                fields[key] = float(value)
            except ValueError:
                continue
    return fields


def transfer_target(block: str, regime: str) -> tuple[float, float]:
    t_res, tol_res, t_disp = TRANSFER_TARGETS[block]
    return (t_res, tol_res) if regime == "resonant" else (t_disp, DISPERSIVE_TOLERANCE)


def _check_time(failures: list[str], label: str, t: float, block: str, regime: str) -> None:
    target, tol = transfer_target(block, regime)
    if not (abs(t - target) <= tol * target):
        failures.append(f"{label}={t!r} outside {tol:.0%} of {target} ({block}, {regime})")


def _check_protocol(op: Op, fields: dict[str, float], failures: list[str]) -> None:
    expect = op.expect
    times = dict(expect["explicit"])
    for label, block in expect["searched"].items():
        if label not in fields:
            failures.append(f"missing resolved time {label}")
            return
        times[label] = fields[label]
        _check_time(failures, label, fields[label], block, expect["regime"])
    if op.command in ("simulate", "entangle"):
        total = 2 * times["t1"] + (expect["n"] - 1) * times["t2"]
    elif op.command == "switch":
        total = 2 * times["t"]
    else:
        total = 2 * times["t_upload"] + expect["hops"] * times["t_hop"]
    t_total = fields.get("t_total", math.nan)
    if not (abs(t_total - total) <= TOTAL_TIME_TOLERANCE * total):
        failures.append(f"t_total={t_total!r}, schedule sums to {total!r}")

    key = _FIDELITY_KEY.get(op.command, "fidelity")
    fidelity = fields.get(key, math.nan)
    recorded = expect.get("recorded")
    if recorded is not None:
        if not (abs(fidelity - recorded) <= RECORDED_TOLERANCE):
            failures.append(f"{key}={fidelity!r}, recorded {recorded!r}")
    elif not (fidelity >= FIDELITY_MIN):
        failures.append(f"{key}={fidelity!r} below {FIDELITY_MIN}")
    if op.command == "switch":
        leakage = fields.get("leakage", math.nan)
        if not (leakage <= LEAKAGE_MAX):
            failures.append(f"leakage={leakage!r} above {LEAKAGE_MAX}")


def _check_blocks(op: Op, stdout: str, failures: list[str]) -> None:
    parts = stdout.split()
    # "blocks: 4,6,6,4 residual: <=1e-12"; the CLI prints the residual
    # itself only when it is above 1e-12
    if len(parts) != 4 or parts[0] != "blocks:" or parts[2] != "residual:":
        failures.append(f"unexpected blocks report {stdout.strip()!r}")
        return
    dims = [int(d) for d in parts[1].split(",")]
    if sum(dims) != op.expect["dim"]:
        failures.append(f"block dims sum to {sum(dims)}, network dim {op.expect['dim']}")
    shown = parts[3]
    residual = 0.0 if shown == f"<={RESIDUAL_MAX:g}" else float(shown)
    if not (residual <= RESIDUAL_MAX):
        failures.append(f"residual {shown} above {RESIDUAL_MAX}")


def _check_validate(op: Op, stdout: str, failures: list[str]) -> None:
    lines = stdout.strip().splitlines()
    errors = [parse_fields(line).get("max_error", math.nan) for line in lines[:-1]]
    if len(errors) != op.expect["lines"]:
        failures.append(f"{len(errors)} block/regime lines, expected {op.expect['lines']}")
    worst = parse_fields(lines[-1]).get("worst", math.nan) if lines else math.nan
    for err in errors + [worst]:
        if not (err <= ANALYTIC_ERROR_MAX):
            failures.append(f"analytic error {err!r} above {ANALYTIC_ERROR_MAX}")


def check_csv(op: Op, text: str) -> list[str]:
    """Row count, norm column and footer of a trace CSV."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("t,F,") or not lines[0].endswith(",norm"):
        return ["CSV header missing"]
    rows = [line for line in lines[1:] if not line.startswith("#")]
    windows, samples = op.expect["windows"], op.expect["samples"]
    expected = windows * samples - (windows - 1)
    failures = []
    if len(rows) != expected:
        failures.append(f"CSV has {len(rows)} rows, expected {expected}")
    for row in rows:
        norm = float(row.rsplit(",", 1)[-1])
        if not (abs(norm - 1.0) <= NORM_TOLERANCE):
            failures.append(f"CSV norm {norm!r} not within {NORM_TOLERANCE} of 1")
            break
    if not lines[-1].startswith("# t_star="):
        failures.append("CSV footer missing")
    return failures


def check_op(op: Op, rc, stdout: str, csv_text: str | None) -> list[str]:
    """Everything wrong with one operation's result; empty when it passed."""
    if rc != 0:
        return [f"exit code {rc!r}"]
    fields = parse_fields(stdout)
    failures = [f"non-finite {k}={v!r}" for k, v in fields.items() if not math.isfinite(v)]
    if op.command == "blocks":
        _check_blocks(op, stdout, failures)
    elif op.command == "validate-analytic":
        _check_validate(op, stdout, failures)
    elif op.command == "transfer-time":
        _check_time(failures, "t_star", fields.get("t_star", math.nan), op.expect["block"], op.expect["regime"])
        fidelity = fields.get("fidelity", math.nan)
        if not (fidelity >= FIDELITY_MIN):
            failures.append(f"fidelity={fidelity!r} below {FIDELITY_MIN}")
    else:
        _check_protocol(op, fields, failures)
    if op.csv:
        failures += ["no CSV written"] if csv_text is None else check_csv(op, csv_text)
    return failures
