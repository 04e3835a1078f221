"""Spans around the public functions of each cavity_route module.

The benchmark records spans from its own files: ``Tracer.install`` swaps
every public function of the six package modules for a timing wrapper,
wherever a module holds a reference to it (the package re-exports names and
modules import each other's functions by name), and ``uninstall`` puts the
originals back.  Private helpers get no spans.

Counts are read from call arguments and results after a round, so the
wrapper itself only takes two clock readings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from dataclasses import dataclass

PACKAGE = "cavity_route"
LAYERS = ("cli", "network", "collective", "evolution", "closed_form", "routing")

#: Index arithmetic called once per site inside the builders; a span there
#: would time the tracer, not the library.
UNTRACED = {"cavity_index", "atom_index"}


#: Spans whose arguments and result the per-layer counts read; every other
#: span keeps only its clock readings.
KEEP_CALL = {
    "cli.emit_trace_csv",
    "collective.block_decompose",
    "evolution.find_transfer_time",
    "routing.run_schedule",
    "routing.entanglement_transfer",
}


@dataclass
class Span:
    name: str  # "layer.function"
    func: object  # the untraced function
    start: float
    end: float
    parent: int | None  # index into the span list
    op: int  # operation the span belongs to
    args: tuple = ()
    kwargs: dict | None = None
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def arguments(self) -> dict:
        """Call arguments by parameter name, defaults filled in."""
        bound = inspect.signature(self.func).bind(*self.args, **(self.kwargs or {}))
        bound.apply_defaults()
        return bound.arguments


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


class Tracer:
    """Collects spans of the package's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._originals: dict[tuple[str, str], object] = {}

    def _wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name in KEEP_CALL

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, func, 0.0, 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if keep:
                span.args, span.kwargs, span.result = args, kwargs, result
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for fname in module.__all__:
                func = getattr(module, fname)
                if (
                    inspect.isfunction(func)
                    and func.__module__ == module.__name__
                    and fname not in UNTRACED
                ):
                    wrappers[id(func)] = (func, self._wrap(f"{layer}.{fname}", func))
        for module in [sys.modules[PACKAGE]] + modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._originals[(module.__name__, attr)] = value
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for (module_name, attr), func in self._originals.items():
            setattr(sys.modules[module_name], attr, func)
        self._originals.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced round (see bench/README.md)."""
    from cavity_route.routing import Evolve

    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, t_self in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_total[span.name] = self_total.get(span.name, 0.0) + t_self
        calls[span.name] = calls.get(span.name, 0) + 1
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, t in self_total.items():
        layer_self[name.split(".", 1)[0]] += t

    grid_points = windows = samples = macs = 0
    residual_max = norm_drift_max = 0.0
    fidelity_min = math.inf
    for span in spans:
        if span.name == "evolution.find_transfer_time":
            grid_points += int(span.arguments()["grid_points"])
        elif span.name == "routing.run_schedule":
            args = span.arguments()
            n_windows = sum(isinstance(s, Evolve) for s in args["schedule"].steps)
            per_window = int(args["samples_per_window"])
            windows += n_windows
            samples += n_windows * per_window
            macs += n_windows * args["spec"].dim ** 2 * (per_window + 1)
            trace = span.result
            norm_drift_max = max(norm_drift_max, float(abs(trace.norms - 1.0).max()))
            inside_entangle = (
                span.parent is not None
                and spans[span.parent].name == "routing.entanglement_transfer"
            )
            if not inside_entangle:
                fidelity_min = min(fidelity_min, trace.final_population)
        elif span.name == "routing.entanglement_transfer":
            fidelity_min = min(fidelity_min, span.result.bell_fidelity)
        elif span.name == "collective.block_decompose":
            residual_max = max(residual_max, span.result[1])

    def inclusive(*names: str) -> float:
        return sum(total.get(name, 0.0) for name in names)

    search_s = inclusive("evolution.find_transfer_time")
    propagate_self_s = self_total.get("routing.run_schedule", 0.0)
    return {
        "cli.calls": calls.get("cli.main", 0),
        "cli.self_s": self_total.get("cli.main", 0.0),
        "cli.emit_csv_s": inclusive("cli.emit_trace_csv"),
        "cli.csv_rows": sum(
            span.args[0].num_samples for span in spans if span.name == "cli.emit_trace_csv"
        ),
        "network.build_s": layer_self["network"],
        "collective.basis_s": inclusive(
            "collective.chain_collective_basis",
            "collective.switch_collective_basis",
            "collective.lattice_collective_basis",
        ),
        "collective.decompose_s": inclusive("collective.block_decompose"),
        "collective.extract_s": inclusive("collective.extract_block"),
        "collective.residual_max": residual_max,
        "evolution.search_s": search_s,
        "evolution.searches": calls.get("evolution.find_transfer_time", 0),
        "evolution.grid_points": grid_points,
        "evolution.scan_rate": grid_points / search_s if search_s > 0 else 0.0,
        "evolution.autogrid_s": inclusive("evolution.auto_grid_points"),
        "evolution.eigh_calls": calls.get("evolution.eigendecompose", 0),
        "evolution.eigh_s": inclusive("evolution.eigendecompose"),
        "closed_form.validate_s": inclusive("closed_form.validate_analytic"),
        "routing.run_s": inclusive("routing.run_schedule"),
        "routing.propagate_self_s": propagate_self_s,
        "routing.windows": windows,
        "routing.samples": samples,
        "routing.prop_macs_computed": macs,
        "routing.prop_rate": macs / propagate_self_s if propagate_self_s > 0 else 0.0,
        "routing.entangle_s": inclusive("routing.entanglement_transfer"),
        "routing.norm_drift_max": norm_drift_max,
        "routing.fidelity_min": fidelity_min if math.isfinite(fidelity_min) else 0.0,
    }
