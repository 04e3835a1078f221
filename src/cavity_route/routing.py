"""Routing schedules: evolution windows alternating with local phase flips.

A schedule is a list of steps.  ``Evolve`` propagates the whole network for a
fixed duration; ``PhaseFlip`` multiplies the atom amplitude of selected sites
by -1 (a local sigma_z on each listed atom), which exchanges symmetric and
antisymmetric collective modes and thereby hands the excitation from one
invariant block to the next.  ``PhaseShift`` multiplies one atom amplitude
by an arbitrary phase.  ``entanglement_transfer`` applies no such step: it
computes the phase-compensated Bell fidelity from the transfer amplitude.

``run_schedule`` evolves inside the invariant blocks of a collective basis, with one
eigendecomposition per distinct block matrix; each flip updates only the rows of its atoms.
Without a basis the whole network is one block.  The window rows are the collective rows, and
only a span of them that widens to every block that has held amplitude evolves: one call per
run of neighbouring blocks with one matrix, over that run's blocks inside the span.  A long run
of ``d``-mode blocks evolves at every sample only the ``d`` rows of its QR factor ``R`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import fsum, inf
from typing import ClassVar, Union

import numpy as np

from .collective import (
    OrthogonalTransform,
    _one_block,
    _residual_bound,
    _sparse_product,
    block_decompose,
)
from .evolution import ExcitationState, _evolve, _phases, eigendecompose
from .network import (
    ARRAY_BUDGET,
    HADAMARD_SIGNS,
    HexLatticeDescriptor,
    NetworkSpec,
    _count,
    _listed,
    _mode,
    _real,
    atom_index,
    build_single_excitation_hamiltonian,
    hex_lattice_layout,
)

#: Largest drift of any sampled norm from the initial norm that a run may show.
NORM_TOLERANCE = 1e-9

__all__ = [
    "Evolve",
    "PhaseFlip",
    "PhaseShift",
    "Schedule",
    "TraceResult",
    "EntanglementResult",
    "local_phase_flip",
    "chain_routing_schedule",
    "switch_port_flip",
    "switch_schedule",
    "hex_routing_schedule",
    "run_schedule",
    "entanglement_transfer",
]


@dataclass(frozen=True)
class Evolve:
    duration: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "duration", _real(self.duration, "evolution window"))
        if self.duration < 0.0:
            raise ValueError(f"evolution window must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class PhaseFlip:
    """Multiply the atom amplitude of each listed site by ``factor = -1``."""

    atom_sites: tuple[int, ...]
    factor: ClassVar[int] = -1

    def __post_init__(self) -> None:
        sites = _listed(self.atom_sites, "atom_sites")
        object.__setattr__(self, "atom_sites", tuple(_count(s, "atom site", 0) for s in sites))
        if len(set(self.atom_sites)) != len(self.atom_sites):
            raise ValueError("duplicate site in phase flip")
        if not self.atom_sites:
            raise ValueError("a phase flip needs at least one site")


@dataclass(frozen=True)
class PhaseShift:
    """Multiply the atom amplitude of ``site`` (the one entry of ``atom_sites``) by
    ``factor = exp(i angle)``."""

    site: int
    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "site", _count(self.site, "phase shift site", 0))
        object.__setattr__(self, "angle", _real(self.angle, "phase shift angle"))

    @property
    def atom_sites(self) -> tuple[int]:
        return (self.site,)

    @property
    def factor(self) -> complex:
        return np.exp(1j * self.angle)


Step = Union[Evolve, PhaseFlip, PhaseShift]


@dataclass(frozen=True)
class Schedule:
    """Steps plus the designated source and target modes.

    ``source``/``target`` are ``(site, kind)`` pairs with kind ``"atom"`` or
    ``"cavity"``; the trace records the final amplitude on the target mode.
    At least one step must be an ``Evolve``.
    """

    steps: tuple[Step, ...]
    source: tuple[int, str]
    target: tuple[int, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", _listed(self.steps, "steps", Step))
        if not any(isinstance(step, Evolve) for step in self.steps):
            raise ValueError("schedule contains no evolution window")
        for name in ("source", "target"):
            mode = getattr(self, name)
            _mode(mode, inf, name)  # the network's size is checked when the schedule runs
            object.__setattr__(self, name, (int(mode[0]), mode[1]))

    def total_evolve_time(self) -> float:
        """Exact (order-independent) sum of all evolution windows."""
        return fsum(step.duration for step in self.steps if isinstance(step, Evolve))

    def num_flips(self) -> int:
        return sum(1 for step in self.steps if isinstance(step, PhaseFlip))


def local_phase_flip(state: ExcitationState, atom_sites) -> ExcitationState:
    """Negate the atom amplitude at each listed site: the site-basis reference of a flip."""
    sites = PhaseFlip(atom_sites).atom_sites
    _count(max(sites), "atom site", 0, state.dim // 2 - 1)
    amps = state.amps.copy()
    amps[atom_index(np.array(sites))] *= PhaseFlip.factor
    return ExcitationState(amps=amps, vac=state.vac)


def chain_routing_schedule(n: int, t1: float, t2: float) -> Schedule:
    """End-to-end schedule for a diamond chain of ``n`` units.

    Evolve for ``t1`` (sender block transfer), then ``n - 1`` times flip and
    evolve for ``t2`` (relay block transfers), then flip once more and evolve
    for ``t1`` (receiver block).  Flips act on the atoms of the second
    control site of every unit (1-based site labels ``3k``); total evolve
    time is ``2 t1 + (n - 1) t2`` with ``n`` flips.
    """
    n = _count(n, "chain units n", 1)
    if not (_real(t1, "t1") > 0 and _real(t2, "t2") > 0):
        raise ValueError("transfer times must be positive")
    flip = PhaseFlip(atom_sites=tuple(3 * k - 1 for k in range(1, n + 1)))
    steps: list[Step] = [Evolve(t1)]
    for _ in range(n - 1):
        steps.append(flip)
        steps.append(Evolve(t2))
    steps.append(flip)
    steps.append(Evolve(t1))
    return Schedule(steps=tuple(steps), source=(0, "atom"), target=(3 * n, "atom"))


def _port_flip_sites(inner_sites, port_from: int, port_to: int) -> tuple[int, ...]:
    # the two inner atoms whose Hadamard signs differ between the ports
    port_from, port_to = (_count(port, "port", 0, 3) for port in (port_from, port_to))
    if port_from == port_to:
        raise ValueError("port flip needs two distinct ports")
    return tuple(
        inner_sites[k]
        for k in range(4)
        if HADAMARD_SIGNS[port_from][k] != HADAMARD_SIGNS[port_to][k]
    )


def switch_port_flip(port_from: int, port_to: int) -> PhaseFlip:
    """Flip that steers the collective mode of one port onto another.

    Flipping the inner atoms of ``build_switch`` (ids 4-7) where the two
    Hadamard rows disagree maps ``xi[port_from]`` onto ``xi[port_to]`` (and
    vice versa), so an excitation parked in the upload block continues its
    transfer toward the chosen delivery port.
    """
    return PhaseFlip(atom_sites=_port_flip_sites((4, 5, 6, 7), port_from, port_to))


def switch_schedule(port: int, t: float) -> Schedule:
    """Upload at ``nu0``, steer, deliver at ``nu<port>`` (port 1, 2, or 3)."""
    port = _count(port, "delivery port", 1, 3)
    if not _real(t, "t") > 0:
        raise ValueError("transfer time must be positive")
    return Schedule(
        steps=(Evolve(t), switch_port_flip(0, port), Evolve(t)),
        source=(0, "atom"),
        target=(port, "atom"),
    )


def hex_routing_schedule(
    desc: HexLatticeDescriptor,
    path,
    t_upload: float,
    t_hop: float,
) -> Schedule:
    """Route an excitation along ``path`` on a lattice.

    ``path`` lists vertices, each a name or a ``[name, exit port]`` pair that names the link the
    route leaves by; where several links join a vertex to the next, the pair is required.  The
    first and last vertices must carry upload sites; consecutive vertices must share a link.
    The schedule uploads at the first vertex, steers the collective mode onto each link port
    in turn, and finally parks the excitation in the last vertex's upload site:
    ``len(path) - 1`` hops and ``len(path)`` flips in total.
    """

    def stop(element) -> tuple[str, int | None]:
        # a vertex name, or a [vertex, exit port] pair
        if isinstance(element, str):
            return element, None
        if isinstance(element, (list, tuple)) and len(element) == 2 and isinstance(element[0], str):
            return element[0], _count(element[1], "exit port", 1, 3)
        raise ValueError(f"malformed path: {path!r}")

    stops = [stop(element) for element in _listed(path, "path")]
    path = [vertex for vertex, _ in stops]
    if len(path) < 2:
        raise ValueError("a route needs at least two vertices (zero-hop paths are invalid)")
    if stops[-1][1] is not None:
        raise ValueError(f"the route ends at {path[-1]!r}, which takes no exit port")
    if not (_real(t_upload, "t_upload") > 0 and _real(t_hop, "t_hop") > 0):
        raise ValueError("transfer times must be positive")
    layout = hex_lattice_layout(desc)
    for v in (path[0], path[-1]):
        if v not in desc.uploads:
            raise ValueError(f"vertex {v!r} has no upload site")

    def link_between(a: str, port: int | None, b: str) -> tuple[int, int]:
        # ports (at a, at b) of the one link from a's exit port, or from a, to b
        ends = [(pa, pb) for va, pa, vb, pb in desc.links if (va, vb) == (a, b)]
        ends += [(pb, pa) for va, pa, vb, pb in desc.links if (vb, va) == (a, b)]
        ends = [end for end in ends if port in (None, end[0])]
        if len(ends) > 1:
            raise ValueError(f"{len(ends)} links join {a!r} and {b!r}; give [{a!r}, exit port]")
        if not ends:
            at = "" if port is None else f" at port {port} of {a!r}"
            raise ValueError(f"no link between {a!r} and {b!r}{at}")
        return ends[0]

    steps: list[Step] = [Evolve(t_upload)]
    current_port = 0
    for (here, port), there in zip(stops[:-1], path[1:]):
        port_out, port_in = link_between(here, port, there)
        if port_out == current_port:
            raise ValueError(f"path turns back at {here!r} along the link it arrived by")
        steps.append(
            PhaseFlip(_port_flip_sites(layout.inner[here], current_port, port_out))
        )
        steps.append(Evolve(t_hop))
        current_port = port_in
    steps.append(PhaseFlip(_port_flip_sites(layout.inner[path[-1]], current_port, 0)))
    steps.append(Evolve(t_upload))
    return Schedule(
        steps=tuple(steps),
        source=(layout.occupant[(path[0], 0)], "atom"),
        target=(layout.occupant[(path[-1], 0)], "atom"),
    )


def _squared(amps: np.ndarray, out: np.ndarray) -> None:
    """``|amps|^2`` into ``out``."""
    np.square(np.abs(amps, out=out), out=out)


@dataclass(frozen=True)
class TraceResult:
    """Sampled populations along a schedule plus the final state."""

    times: np.ndarray
    photon: np.ndarray
    populations: np.ndarray  # (samples, len(labels))
    labels: tuple[str, ...]
    norms: np.ndarray
    final_state: ExcitationState
    final_amplitude: complex
    total_time: float

    @property
    def final_population(self) -> float:
        return float(abs(self.final_amplitude) ** 2)

    @property
    def final_phase(self) -> float:
        return float(np.angle(self.final_amplitude))

    @property
    def num_samples(self) -> int:
        return int(self.times.shape[0])


def run_schedule(
    spec: NetworkSpec,
    schedule: Schedule,
    initial: ExcitationState | None = None,
    samples_per_window: int = 241,
    track=None,
    basis: OrthogonalTransform | None = None,
) -> TraceResult:
    """Execute a schedule inside the blocks of ``basis``, e.g. ``chain_collective_basis(n)``.

    The blocks come from the nonzeros of H and the basis (``block_decompose``); ``None``
    makes the whole network one block.  A basis of another size, one whose off-block residual
    exceeds ``1e-12 max(1, max |H|)`` (it would give wrong dynamics), or one with a row mixing
    cavity and atom modes raises ``ValueError`` before any window.

    Populations are sampled on ``samples_per_window`` equally spaced points per evolution window
    (window edges included; the duplicate sample at a window joint is dropped since instantaneous
    flips do not change any population).  A flip or shift by ``f`` on the atoms ``S`` is
    ``Q D Q^T = I + (f - 1) Q_S Q_S^T``, with ``Q_S`` the columns of ``Q`` at ``S``, so it updates
    only the collective rows that hold those atoms.  ``track`` is an optional list of
    ``(site, kind)`` modes, kind ``"cavity"`` or ``"atom"``, each labelled ``kind[site label]``;
    by default the source and target modes are tracked.  A window may hold at most
    ``ARRAY_BUDGET`` amplitudes (``samples_per_window x dim``).  A non-finite norm, or one that
    drifts from the initial norm by more than ``NORM_TOLERANCE``, raises ``FloatingPointError``.

    Where more than ``2 d`` live blocks (plus one per tracked block) run with one ``d x d``
    matrix in a window of more than 2 samples, the ``d`` rows of ``R`` from a QR of their
    amplitudes evolve at every sample in their place (``|.|^2`` summed over either is the same)
    and untracked blocks only to the window's end.  Then the photon and norm sums may move by a
    few ulps (the CSV photon column's 12th digit); states and tracked populations do not.
    """
    samples_per_window = _count(samples_per_window, "samples_per_window", 2)
    if samples_per_window * spec.dim > ARRAY_BUDGET:
        raise ValueError(f"{samples_per_window} samples x {spec.dim} modes exceed {ARRAY_BUDGET}")
    src = _mode(schedule.source, spec.num_sites, "source")
    tgt = _mode(schedule.target, spec.num_sites, "target")
    if initial is None:
        initial = ExcitationState.excitation(spec.dim, src)
    if initial.dim != spec.dim:
        raise ValueError(f"initial state dim {initial.dim} != network dim {spec.dim}")
    atom_rows = {}  # per distinct flip or shift; its sites are ints >= 0 since construction
    for step in schedule.steps:
        if not isinstance(step, Evolve) and step not in atom_rows:
            _count(max(step.atom_sites), "atom site", 0, spec.num_sites - 1)
            atom_rows[step] = atom_index(np.array(step.atom_sites))
    if track is None:  # the source mode, and the target mode if it is another
        track = [schedule.source] + ([schedule.target] if tgt != src else [])
    modes = [_mode(mode, spec.num_sites, "track mode") for mode in _listed(track, "track")]
    modes = np.array(modes, dtype=int)  # an index array even when empty
    labels = tuple(f"{kind}[{spec.sites[site].label}]" for site, kind in track)

    h = build_single_excitation_hamiltonian(spec)
    basis = _one_block(spec.dim) if basis is None else basis
    blocks, residual = block_decompose(h, basis)
    if not residual <= _residual_bound(h[2]):
        raise ValueError(f"basis does not block-diagonalize the network: residual {residual:.3e}")
    index, values = basis._rows
    kind = np.where(values != 0.0, index % 2, index[:, :1] % 2)  # cavity modes are even
    mixed = np.flatnonzero(np.ptp(kind, axis=1))
    if mixed.size:
        raise ValueError(f"basis row {basis.labels[mixed[0]]!r} mixes cavity and atom modes")
    # the window rows are the collective rows: each run of neighbouring blocks with one matrix
    # and one cavity/atom row pattern evolves in place in one call, with one spectrum per
    # distinct matrix.  The state, the window, the weighted phases and the populations are
    # buffers for every window
    x = np.empty(spec.dim, dtype=complex)  # the state, in collective rows
    evolved = np.zeros((spec.dim, samples_per_window), dtype=complex)
    weighted, pops = np.empty_like(evolved), np.empty(evolved.shape)
    sizes = [block.dim for block in blocks]
    cuts = np.cumsum([0, *sizes])  # the first and one past the last row of each row's block
    head, tail = np.repeat(cuts[:-1], sizes).tolist(), np.repeat(cuts[1:], sizes).tolist()
    cavity = kind[:, 0] == 0
    columns, coefs = basis._columns
    tracked_view = (columns[modes], coefs[modes])
    flip_view = {step: (columns[r], coefs[r]) for step, r in atom_rows.items()}  # Q_S per step
    # the blocks that hold a tracked row
    held = set(np.searchsorted(cuts[1:], tracked_view[0][tracked_view[1] != 0], "right").tolist())
    # per block: the key of its spectrum, and its cavity/atom row pattern
    kinds = [(b.dim, b.matrix.tobytes()) for b in blocks]
    kinds = [(key, cavity[r : r + key[0]].tobytes()) for key, r in zip(kinds, cuts)]
    spectra: dict = {}
    runs = []  # per run: its key in spectra, its first row, its state and products, and more
    for (key, _), run in groupby(range(len(blocks)), kinds.__getitem__):
        run = list(run)
        if key not in spectra:
            spectra[key] = eigendecompose(blocks[run[0]])
        layout = slice(cuts[run[0]], cuts[run[-1] + 1])
        shape = (len(run), key[0], samples_per_window)
        products = (weighted[layout].reshape(shape), evolved[layout].reshape(shape))
        # More live blocks than `least` evolve as the d rows of R (below), which costs about as
        # much as 2 d blocks and the tracked ones; 2-sample windows never pay for the QR
        followed = [b - run[0] for b in run if b in held]
        least = 2 * key[0] + len(followed) if samples_per_window > 2 else inf
        runs.append((key, layout.start, x[layout].reshape(shape[:2]), products, least, followed))

    times: list[np.ndarray] = []
    photon: list[np.ndarray] = []
    tracked: list[np.ndarray] = []
    norms: list[np.ndarray] = []
    x[:] = basis.to_collective(initial.amps)
    t_offset = 0.0
    keep = slice(None)  # the first window keeps its t = 0 sample
    phases: dict = {}  # each spectrum's phases at the sample times, per window duration
    norm0 = np.sqrt(initial.norm_sq)
    # The window rows lo:hi span every block that has held amplitude.  Rows outside the span
    # are never written, so they stay exactly 0; with the span only widening, no row is ever
    # zeroed again
    lo, hi = spec.dim, 0
    for step in schedule.steps:
        if not isinstance(step, Evolve):  # x += (f - 1) Q_S Q_S^T x; zero-padded slots add 0
            rows, c = flip_view[step]
            np.add.at(x, rows, c * ((step.factor - 1) * np.einsum("sk,sk->s", c, x[rows]))[:, None])
            continue
        live = x.nonzero()[0]
        if live.size:  # a state all in the vacuum evolves no row
            lo, hi = min(lo, head[live[0]]), max(hi, tail[live[-1]])
        if step.duration not in phases:  # two kept: builder schedules repeat at most two
            phases = {} if len(phases) == 2 else phases
            taus = np.linspace(0.0, step.duration, samples_per_window)
            phases[step.duration] = taus, {key: _phases(s, taus) for key, s in spectra.items()}
        taus, by_matrix = phases[step.duration]
        rows, done = [], lo  # the rows of pops that hold the window's populations, in order
        for key, start, state, (w, out), least, followed in runs:
            d = key[0]  # the run's blocks i:j lie inside the span
            i, j = max(0, (lo - start) // d), min(len(out), (hi - start) // d)
            if j - i <= least:
                if i < j:
                    _evolve(spectra[key], state[i:j], by_matrix[key], (w[i:j], out[i:j]))
                continue
            # With state[i:j] = Q R and Q an isometry on the block axis, the d rows of R, evolved,
            # give the |.|^2 of the j - i blocks summed over them, at every sample.  The blocks
            # of tracked rows still evolve at every sample, and every block at the last one
            spectrum, ph = spectra[key], by_matrix[key]
            virtual = _evolve(spectrum, np.linalg.qr(state[i:j], mode="r"), ph)
            for b in followed:
                if i <= b < j:
                    _evolve(spectrum, state[b : b + 1], ph, (w[b : b + 1], out[b : b + 1]))
            _evolve(spectrum, state[i:j], ph[:, -1:], (w[i:j, :, -1:], out[i:j, :, -1:]))
            first = start + i * d  # R's rows stand in pops for the run's first d live blocks
            _squared(evolved[done:first], pops[done:first])
            _squared(virtual.reshape(d * d, -1), pops[first : first + d * d])
            rows.append(np.arange(done, first + d * d))
            done = start + j * d
        _squared(evolved[done:hi], pops[done:hi])
        rows = np.concatenate([*rows, np.arange(done, hi)]) if rows else slice(lo, hi)
        window = pops[rows]
        times.append(t_offset + taus[keep])
        photon.append(window[cavity[rows]].sum(axis=0)[keep])
        tracked.append(np.abs(_sparse_product(tracked_view, evolved[:, keep]).T) ** 2)
        norms.append(np.sqrt(window.sum(axis=0)[keep] + abs(initial.vac) ** 2))
        drift = float(np.abs(norms[-1] - norm0).max())
        if not drift <= NORM_TOLERANCE:
            what = f"norm drift {drift:.3e}" if np.isfinite(drift) else "non-finite norm"
            raise FloatingPointError(f"{what} in evolution window {len(norms)}")
        x[:] = evolved[:, -1]
        t_offset += step.duration
        keep = slice(1, None)

    state = ExcitationState(amps=basis.from_collective(x), vac=initial.vac)
    return TraceResult(
        times=np.concatenate(times),
        photon=np.concatenate(photon),
        populations=np.concatenate(tracked, axis=0),
        labels=labels,
        norms=np.concatenate(norms),
        final_state=state,
        final_amplitude=complex(state.amps[tgt]),
        total_time=t_offset,
    )


@dataclass(frozen=True)
class EntanglementResult:
    """Entanglement-transfer outcome.

    ``amplitude`` is the transfer amplitude ``u`` of the excited branch;
    ``compensation_phase`` is the local phase that aligns it with the
    vacuum branch; ``bell_fidelity`` is the overlap-squared with the ideal
    entangled pair, after compensation when ``compensated`` is set.
    """

    bell_fidelity: float
    compensation_phase: float
    amplitude: complex
    compensated: bool
    trace: TraceResult


def entanglement_transfer(
    spec: NetworkSpec,
    schedule: Schedule,
    compensate: bool = True,
    samples_per_window: int = 2,
    basis: OrthogonalTransform | None = None,
) -> EntanglementResult:
    """Transfer one half of an entangled pair through the network.

    A reference qubit is entangled with the source atom:
    ``(|0>_R |vac> + |1>_R |atom_src>) / sqrt(2)``.  The vacuum branch is
    stationary, so the joint state after the schedule is determined by the
    transfer amplitude ``u`` on the target mode.  The Bell fidelity against
    the ideal pair ``(|0>_R |vac> + |1>_R |atom_tgt>) / sqrt(2)`` is
    ``|(1 + u)|^2 / 4``; compensating the transfer phase with a local
    ``PhaseShift`` on the target atom turns this into ``((1 + |u|) / 2)^2``.
    ``basis`` is passed on to ``run_schedule``.
    """
    if not isinstance(compensate, bool):
        raise ValueError(f"compensate must be a bool, got {compensate!r}")
    src = _mode(schedule.source, spec.num_sites, "source")
    s = 1.0 / np.sqrt(2.0)
    initial = ExcitationState.with_vacuum(spec.dim, src, s, s)
    trace = run_schedule(spec, schedule, initial, samples_per_window, basis=basis)
    u = complex(np.sqrt(2.0) * trace.final_amplitude)
    theta = float(np.angle(u))
    if compensate:
        fidelity = ((1.0 + abs(u)) / 2.0) ** 2
    else:
        fidelity = ((1.0 + abs(u) * np.cos(theta)) ** 2 + (abs(u) * np.sin(theta)) ** 2) / 4.0
    return EntanglementResult(
        bell_fidelity=float(fidelity),
        compensation_phase=-theta,
        amplitude=u,
        compensated=compensate,
        trace=trace,
    )
