"""Command-line front end.

Every subcommand reads a JSON config (``--config``) and prints a short
machine-parseable report; the protocol subcommands (``simulate``, ``switch``,
``route``, ``entangle``) also write a CSV population trace (``--out``).  Exit
codes: 0 success; 2 config or usage error, also for a request above
``network.ARRAY_BUDGET``; 1 numerical failure (a non-finite result always, a
violated threshold under ``--strict``) or I/O trouble.  Every non-zero exit
prints one line on stderr.

Each subcommand takes only the flags it reads (see ``--help``); any other
flag is a usage error.

Config layout::

    {
      "topology": "diamond_chain" | "switch" | "hex_lattice" | "custom",
      "n": 3,                      # diamond_chain
      "descriptor": {...},         # hex_lattice
      "network": {...},            # custom: explicit NetworkSpec
      "params": {"omega_c": 1.0, "delta": 0.0, "g": 65.0, "j": 1.0},
      "protocol": {
        "times": "auto",           # or explicit: [t1, t2] (simulate, entangle),
                                   # t or [t] (switch), [t_upload, t_hop] (route)
        "port": 2,                 # switch target port
        "path": ["a", "b"],        # hex route, upload vertex to download vertex
        "compensate": true,        # entangle only
        "window": [0.0, 10.0],     # search window for "auto" times
        "grid": 20001              # scan resolution for "auto" times
      },
      "output": {"path": "trace.csv", "samples_per_window": 241}
    }

``window`` and ``grid`` come from the flag (``--tmax`` gives ``[0, tmax]``),
else the top-level key, else ``protocol.<key>``, for every subcommand (the
default window is 1.05 periods of the block's slow transfer envelope); the
samples per window and the trace path from ``--samples``/``--out``, else
``output``.  Booleans, non-numbers, nan/inf and out-of-range values are
config errors.  ``transfer-time`` takes one of the four block names ``end``,
``mid``, ``upload``, ``hop`` from ``--block`` or ``"block"``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .closed_form import validate_analytic
from .collective import (
    _one_block,
    _residual_bound,
    block_decompose,
    chain_collective_basis,
    extract_block,
    lattice_collective_basis,
    switch_collective_basis,
)
from .evolution import (
    _default_window,
    _window,
    auto_grid_points,
    eigendecompose,
    find_transfer_time,
    site_population,
)
from .network import (
    ARRAY_BUDGET,
    HexLatticeDescriptor,
    NetworkSpec,
    SystemParams,
    _count,
    build_diamond_chain,
    build_hex_lattice,
    build_single_excitation_hamiltonian,
    build_switch,
)
from .routing import (
    TraceResult,
    chain_routing_schedule,
    entanglement_transfer,
    hex_routing_schedule,
    run_schedule,
    switch_schedule,
)

__all__ = ["main", "emit_trace_csv", "ConfigError"]

_ANALYTIC_THRESHOLD = 1e-9
_SAMPLES = 241  # samples per window when neither --samples nor the config gives them
_FIDELITY_FLOOR = 0.99
_LEAKAGE_CEILING = 1e-6


class ConfigError(Exception):
    """Malformed or inconsistent configuration; maps to exit code 2."""


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _section(cfg: dict, name: str) -> dict:
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be an object")
    return section


def _lookup(flag, cfg: dict, key: str):
    """``flag`` if given, else the top-level ``key``, else ``protocol.<key>``."""
    if flag is not None:
        return flag
    return cfg[key] if key in cfg else _section(cfg, "protocol").get(key)


def _config_params(cfg: dict) -> SystemParams:
    try:
        return SystemParams.from_json_dict(_section(cfg, "params"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params: {exc}") from exc


def _find_peak(h, source: int, target: int, args, cfg: dict):
    """Transfer peak over the configured or default window, on the configured or auto grid."""
    window = _lookup(None if args.tmax is None else (0.0, args.tmax), cfg, "window")
    window = None if window is None else _window(window)  # checked before h is decomposed
    grid = _lookup(args.grid, cfg, "grid")
    for name, mode in (("source", source), ("target", target)):  # so are the modes
        _count(mode, name, 0, h.dim - 1)
    if grid is None:  # one decomposition sizes the window and the grid and runs the search
        h = eigendecompose(h)
        window = window or _default_window(h, source, target)
        grid = auto_grid_points(h, window)
    return find_transfer_time(h, source, target, window=window, grid_points=grid)


def _output(args, cfg: dict) -> tuple[int, str | None]:
    """Samples per window and trace path: the flag, else the ``output`` section."""
    output = _section(cfg, "output")
    samples = output.get("samples_per_window", _SAMPLES) if args.samples is None else args.samples
    path = args.out if args.out is not None else output.get("path")
    if not (path is None or isinstance(path, str)):
        raise ConfigError(f"output 'path' must be a string, got {path!r}")
    return _count(samples, "samples_per_window", 2, ARRAY_BUDGET), path


def _require_topology(cfg: dict, *allowed: str) -> str:
    topology = cfg.get("topology")
    if topology not in allowed:
        raise ConfigError(f"this subcommand needs topology in {sorted(allowed)}, got {topology!r}")
    return topology


def _chain_size(cfg: dict) -> int:
    # bounded so that a chain run's largest array, one window of _SAMPLES x (6n + 2), fits
    return _count(cfg.get("n"), "diamond_chain 'n'", 1, (ARRAY_BUDGET // _SAMPLES - 2) // 6)


def _descriptor(cfg: dict) -> HexLatticeDescriptor:
    raw = cfg.get("descriptor")
    if not isinstance(raw, dict):
        raise ConfigError("hex_lattice needs a 'descriptor' object")
    return HexLatticeDescriptor.from_json_dict(raw)


def _check_finite(**values) -> None:
    """Refuse to report a non-finite number (scalars or arrays)."""
    bad = [name for name, value in values.items() if not np.isfinite(value).all()]
    if bad:
        raise FloatingPointError(f"non-finite {', '.join(bad)}")


def _verdict(args, ok: bool, failure: str) -> int:
    """Exit status of a finished report: 1 and one ``strict:`` line if ``--strict`` and not ok."""
    if args.strict and not ok:
        print(f"strict: {failure}", file=sys.stderr)
        return 1
    return 0


def emit_trace_csv(
    trace: TraceResult,
    path: str,
    fidelity: float,
    phase: float,
    extra_comments: tuple[str, ...],
) -> None:
    """Write a population trace as CSV.

    Header ``t,F,<labels>,norm``; one row per sample with 12 significant
    digits; footer comment ``# t_star=.. fidelity=.. phase=..`` with
    ``t_star`` the end of the schedule (preceded by any extra comment lines).
    """
    if trace.num_samples == 0:
        raise ValueError("refusing to write an empty trace")
    row = ",".join(["%.12g"] * (2 + len(trace.labels)) + ["%.12f"])
    body = np.column_stack([trace.times, trace.photon, trace.populations, trace.norms])
    lines = ["t,F," + ",".join(trace.labels) + ",norm"]
    lines.append("\n".join([row] * body.shape[0]) % tuple(body.ravel().tolist()))  # one % for all
    lines.extend(extra_comments)
    lines.append(f"# t_star={trace.total_time:.12g} fidelity={fidelity:.12g} phase={phase:.12g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _network_and_basis(cfg: dict, params: SystemParams):
    topology = _require_topology(cfg, "diamond_chain", "switch", "hex_lattice")
    if topology == "diamond_chain":
        n = _chain_size(cfg)
        return build_diamond_chain(n, params), chain_collective_basis(n)
    if topology == "switch":
        return build_switch(params), switch_collective_basis()
    desc = _descriptor(cfg)
    return build_hex_lattice(desc, params), lattice_collective_basis(desc)


def _cmd_blocks(args) -> int:
    cfg = _load_config(args.config)
    params = _config_params(cfg)
    spec, transform = _network_and_basis(cfg, params)
    h = build_single_excitation_hamiltonian(spec)
    blocks, residual = block_decompose(h, transform)
    _check_finite(residual=residual, blocks=np.concatenate([b.matrix.ravel() for b in blocks]))
    if args.out:  # written before the report, so a failed write prints nothing
        lines = []
        for block in blocks:
            lines.append(f"# block {block.name} dim={block.dim} basis={'|'.join(block.labels)}")
            for row in block.matrix:
                lines.append(",".join(f"{x:.12g}" for x in row))
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    shown = "<=1e-12" if residual <= 1e-12 else f"{residual:.3e}"
    print(f"blocks: {','.join(str(b.dim) for b in blocks)} residual: {shown}")
    bound = _residual_bound(h[2])
    return _verdict(args, bound >= residual, f"residual {residual:.3e} above {bound:.3e}")


def _cmd_transfer_time(args) -> int:
    cfg = _load_config(args.config)
    if cfg.get("topology") == "custom":
        raw = cfg.get("network")
        if not isinstance(raw, dict):
            raise ConfigError("custom topology needs a 'network' object")
        spec = NetworkSpec.from_json_dict(raw)
        if args.source is None or args.target is None:
            raise ConfigError("custom topology needs --source and --target mode indices")
        (h,), _ = block_decompose(build_single_excitation_hamiltonian(spec), _one_block(spec.dim))
        source, target = args.source, args.target
    else:
        params = _config_params(cfg)
        h = extract_block(params, args.block if args.block is not None else cfg.get("block", "end"))
        # first atom to last atom of the block
        source = args.source if args.source is not None else 1
        target = args.target if args.target is not None else h.dim - 1
    result = _find_peak(h, source, target, args, cfg)
    _check_finite(**result._asdict())
    print(" ".join(f"{key}={value:.12g}" for key, value in result._asdict().items()))
    fidelity = result.fidelity
    return _verdict(args, fidelity >= 0.999, f"peak fidelity {fidelity:.6f} below 0.999")


def _cmd_validate_analytic(args) -> int:
    cfg = _load_config(args.config)
    params = _config_params(cfg)
    # the largest block has 6 modes, and each sample holds all of them
    samples = _count(cfg.get("samples", 101), "samples", 2, ARRAY_BUDGET // 6)
    names = cfg.get("blocks", ["end", "mid", "upload", "hop"])
    if not isinstance(names, list) or not names:
        raise ConfigError("'blocks' must be a non-empty list of block names")
    regimes = (("resonant", 0.0, 10.0), ("dispersive", -1000.0, 600.0))
    lines, errors = [], []
    for which in names:
        for regime, delta, tmax in regimes:
            times = np.linspace(*_window((0.0, tmax if args.tmax is None else args.tmax)), samples)
            errors.append(validate_analytic(replace(params, delta=delta), which, times))
            lines.append(f"block={which} regime={regime} max_error={errors[-1]:.6e}")
    _check_finite(max_error=errors)
    worst = max(errors)
    print("\n".join(lines))
    print(f"worst={worst:.6e}")
    failure = f"worst error {worst:.3e} above {_ANALYTIC_THRESHOLD}"
    return _verdict(args, _ANALYTIC_THRESHOLD >= worst, failure)


def _trace_fields(trace: TraceResult, **extra) -> dict:
    fidelity, phase = trace.final_population, trace.final_phase
    return {"t_total": trace.total_time, "fidelity": fidelity, "phase": phase, **extra}


def _run_chain(cfg: dict, proto: dict, params: SystemParams, times, samples: int):
    """end-to-end diamond-chain transfer"""
    schedule = chain_routing_schedule(_chain_size(cfg), *times)
    spec, basis = _network_and_basis(cfg, params)
    trace = run_schedule(spec, schedule, samples_per_window=samples, basis=basis)
    return trace, _trace_fields(trace)


def _run_switch(cfg: dict, proto: dict, params: SystemParams, times, samples: int):
    """steer through the four-port switch"""
    schedule = switch_schedule(proto.get("port"), *times)
    port = schedule.target[0]
    spec, basis = _network_and_basis(cfg, params)
    track = [(k, "atom") for k in range(4)]
    trace = run_schedule(spec, schedule, samples_per_window=samples, track=track, basis=basis)
    leakage = sum(site_population(trace.final_state, k, "atom") for k in (1, 2, 3) if k != port)
    return trace, _trace_fields(trace, leakage=leakage)


def _run_route(cfg: dict, proto: dict, params: SystemParams, times, samples: int):
    """route along a lattice vertex path"""
    desc = _descriptor(cfg)  # one descriptor object, so its layout is built once
    schedule = hex_routing_schedule(desc, proto.get("path"), *times)
    spec, basis = build_hex_lattice(desc, params), lattice_collective_basis(desc)
    trace = run_schedule(spec, schedule, samples_per_window=samples, basis=basis)
    return trace, _trace_fields(trace)


def _run_entangle(cfg: dict, proto: dict, params: SystemParams, times, samples: int):
    """entanglement transfer on a chain"""
    schedule = chain_routing_schedule(_chain_size(cfg), *times)
    spec, basis = _network_and_basis(cfg, params)
    compensate = proto.get("compensate", True)
    result = entanglement_transfer(spec, schedule, compensate, samples, basis)
    return result.trace, {
        "t_total": result.trace.total_time,
        "bell_fidelity": result.bell_fidelity,
        "compensation_phase": result.compensation_phase,
        "transfer_amplitude": abs(result.amplitude),
    }


class _Protocol(NamedTuple):
    topology: str
    blocks: tuple[str, ...]  # blocks whose transfer peaks resolve "times": "auto"
    times: tuple[str, ...]  # names of the times, in the order the schedule takes them
    run: Callable  # (cfg, protocol, params, times, samples) -> (trace, report); doc = help
    footer: tuple[str, str] = ("fidelity", "phase")  # CSV footer fields; --strict gates the first


_PROTOCOLS = {
    "simulate": _Protocol("diamond_chain", ("end", "mid"), ("t1", "t2"), _run_chain),
    "switch": _Protocol("switch", ("upload",), ("t",), _run_switch),
    "route": _Protocol("hex_lattice", ("upload", "hop"), ("t_upload", "t_hop"), _run_route),
    "entangle": _Protocol(
        "diamond_chain",
        ("end", "mid"),
        ("t1", "t2"),
        _run_entangle,
        footer=("bell_fidelity", "compensation_phase"),
    ),
}

#: report fields not printed with 12 significant digits
_FORMATS = {"leakage": ".6e"}


def _protocol_times(args, cfg: dict, params: SystemParams, protocol: _Protocol):
    """Returns (times, "times ..." report line or None for explicit times)."""
    times = _section(cfg, "protocol").get("times", "auto")
    if times == "auto":
        found = []
        for which in protocol.blocks:
            block = extract_block(params, which)
            found.append(_find_peak(block, 1, block.dim - 1, args, cfg).t_star)
        names = " ".join(f"{name}={t:.12g}" for name, t in zip(protocol.times, found))
        return tuple(found), f"times {names}"
    if len(protocol.times) == 1 and not isinstance(times, list):
        times = [times]
    if not (isinstance(times, list) and len(times) == len(protocol.times)):
        shape = ", ".join(protocol.times)
        raise ConfigError(f"'times' must be \"auto\" or [{shape}], got {times!r}")
    return tuple(times), None


def _cmd_protocol(args) -> int:
    protocol = _PROTOCOLS[args.command]
    cfg = _load_config(args.config)
    _require_topology(cfg, protocol.topology)
    params = _config_params(cfg)
    samples, out = _output(args, cfg)
    times, resolved = _protocol_times(args, cfg, params, protocol)
    trace, fields = protocol.run(cfg, _section(cfg, "protocol"), params, times, samples)
    _check_finite(**fields)
    fidelity, phase = (fields[key] for key in protocol.footer)
    if out:  # written before the report, so a failed write prints nothing
        comments = (f"# {resolved}",) if resolved else ()
        emit_trace_csv(trace, out, fidelity=fidelity, phase=phase, extra_comments=comments)
    print(" ".join(f"{key}={value:{_FORMATS.get(key, '.12g')}}" for key, value in fields.items()))
    if resolved:
        print(resolved)
    leakage = fields.get("leakage", 0.0)
    ok = fidelity >= _FIDELITY_FLOOR and _LEAKAGE_CEILING >= leakage
    failure = f"{protocol.footer[0]} {fidelity:.6f} / leakage {leakage:.3e}"
    return _verdict(args, ok, f"{failure} outside {_FIDELITY_FLOOR} / {_LEAKAGE_CEILING}")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are config errors: one stderr line, exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


#: every flag but transfer-time's own; each subcommand gets only the flags it reads
_FLAGS = {
    "--config": dict(required=True, help="JSON run configuration"),
    "--strict": dict(action="store_true", help="exit 1 if a numerical threshold is violated"),
    "--out": dict(help="output file (CSV trace, or block matrices for 'blocks')"),
    "--tmax": dict(type=float, help="override the search window as (0, tmax)"),
    "--grid": dict(type=int, help="scan resolution for transfer-time searches"),
    "--samples": dict(type=int, help="samples per evolution window in traces"),
}


@cache  # parse_args leaves the parser unchanged; building it costs about 1 ms per call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavity-route",
        description="Simulate perfect single-excitation routing in cavity-atom networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable, summary: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for flag in ("--config", "--strict", *flags):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
        return p

    add("blocks", _cmd_blocks, "block sizes and off-block residual", "--out")
    summary = "locate a transfer peak on one block"
    p = add("transfer-time", _cmd_transfer_time, summary, "--tmax", "--grid")
    p.add_argument("--block", help="end, mid, upload or hop (default: the config's block, or end)")
    p.add_argument("--source", type=int, help="source basis index")
    p.add_argument("--target", type=int, help="target basis index")
    summary = "closed-form vs numeric propagator, both regimes"
    add("validate-analytic", _cmd_validate_analytic, summary, "--tmax")
    for name, protocol in _PROTOCOLS.items():
        add(name, _cmd_protocol, protocol.run.__doc__, "--out", "--tmax", "--grid", "--samples")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # non-finite results are caught by _check_finite, not by numpy warnings
        with np.errstate(all="ignore"):
            return args.handler(args)
    except (ConfigError, ValueError) as exc:
        # ValueError: domain validation rejected a config-derived value
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
