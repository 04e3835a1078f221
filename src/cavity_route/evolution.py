"""Exact time evolution and transfer-time search.

All Hamiltonians here are small real symmetric matrices, so evolution is done
through one eigendecomposition per matrix: ``psi(t) = V exp(-i L t) V^T
psi(0)``.  This is exact up to rounding, unconditionally stable, and lets a
whole grid of times be evaluated with one decomposition; a uniform grid is
products of row-start phases and one shared ladder of offset phases, taken
a bounded chunk of rows at a time, so a search never holds its grid, and a
row whose bound on the fidelity cannot reach the candidates is skipped.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .collective import BlockHamiltonian, _residual_bound
from .network import ARRAY_BUDGET, _count, _mode, _real, cavity_index

__all__ = [
    "ExcitationState",
    "Spectrum",
    "TransferResult",
    "eigendecompose",
    "propagate",
    "transition_amplitudes",
    "photon_population",
    "site_population",
    "find_transfer_time",
    "auto_grid_points",
]

#: Complex elements per evaluation chunk, which bounds every temporary: ``_amp_on_grid``
#: (Newton included) and the bracket bound take ``_CHUNK // dim`` points at once, the
#: uniform scan as many whole ladder rows as fit in ``_CHUNK`` points; at least one of each.
_CHUNK = 65536

#: The scan keeps the grid maxima within this band of the grid maximum as
#: candidates; generous on purpose, the final choice is made on refined values,
#: and only candidates whose bracket bound reaches the pick are refined.
_CANDIDATE_BAND = 5e-3

#: Newton steps; three reach rounding on auto grids.
_NEWTON_STEPS = 5

#: A pool of at most this many candidates is refined whole: bounding it costs more than it saves.
_WHOLE_POOL = 64

#: ``auto_grid_points`` samples the fastest Bohr period this often, on at least
#: ``_GRID_FLOOR`` points.
_GRID_PER_PERIOD = 8
_GRID_FLOOR = 20001

#: Bohr frequencies enter the envelope-period estimate only if the
#: corresponding pair of spectral weights is more than this fraction of the
#: largest weight product (so never a product that underflowed to 0).
_WEIGHT_FLOOR = 1e-3

#: A search without a window spans this many periods of the slow transfer envelope.
_WINDOW_PERIODS = 1.05


@dataclass(frozen=True)
class ExcitationState:
    """Single-excitation amplitudes plus a coherent vacuum component.

    ``amps[2i]`` is the photon amplitude of site ``i``, ``amps[2i+1]`` the
    atom amplitude; ``vac`` rides along unchanged under evolution (the
    Hamiltonian annihilates the vacuum).  States are normalized.
    """

    amps: np.ndarray
    vac: complex = 0.0

    def __post_init__(self) -> None:
        amps = np.array(self.amps, dtype=complex, copy=True)
        if amps.ndim != 1 or amps.shape[0] % 2:  # each site has a cavity row and an atom row
            raise ValueError(f"amplitudes must be a 1-d vector of even length, not {amps.shape}")
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "vac", complex(self.vac))
        if abs(self.norm_sq - 1.0) > 1e-6:
            raise ValueError(f"state not normalized: |psi|^2 = {self.norm_sq!r}")

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    @property
    def norm_sq(self) -> float:
        return float(abs(self.vac) ** 2 + np.vdot(self.amps, self.amps).real)

    def population(self, index: int) -> float:
        return float(abs(self.amps[_count(index, "mode index", 0, self.dim - 1)]) ** 2)

    @classmethod
    def excitation(cls, dim: int, index: int) -> "ExcitationState":
        """Unit excitation in one mode."""
        return cls.with_vacuum(dim, index, 1.0, 0.0)

    @classmethod
    def with_vacuum(
        cls, dim: int, index: int, excited_amp: complex, vac_amp: complex
    ) -> "ExcitationState":
        """Superposition ``vac_amp |vac> + excited_amp |mode index>``."""
        index = _count(index, "mode index", 0, _count(dim, "dim", 1) - 1)
        amps = np.zeros(dim, dtype=complex)
        amps[index] = excited_amp
        return cls(amps=amps, vac=vac_amp)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a real symmetric Hamiltonian."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


class TransferResult(NamedTuple):
    """Outcome of a transfer-time search."""

    t_star: float
    fidelity: float
    phase: float


def eigendecompose(h: np.ndarray | BlockHamiltonian) -> Spectrum:
    """Eigendecomposition of a real symmetric matrix.

    Raises ``ValueError`` for non-square or non-symmetric input.
    """
    m = h.matrix if isinstance(h, BlockHamiltonian) else np.asarray(h, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"hamiltonian must be square, got shape {m.shape}")
    if float(np.abs(m - m.T).max()) > _residual_bound(m):
        raise ValueError("hamiltonian must be symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _spectrum(h: np.ndarray | BlockHamiltonian | Spectrum) -> Spectrum:
    """``h`` itself if it is already decomposed, else its eigendecomposition."""
    return h if isinstance(h, Spectrum) else eigendecompose(h)


def _phases(spectrum: Spectrum, times) -> np.ndarray:
    """``exp(-i L t)`` for every ``t``: one column per time."""
    return np.exp(-1j * (spectrum.eigenvalues[:, None] * np.asarray(times)))


def _evolve(spectrum: Spectrum, amps: np.ndarray, phases: np.ndarray, out=(None, None)):
    """``V exp(-i L t) V^T amps`` from ``_phases(spectrum, times)``: one column per time.

    ``amps`` is one state, or a stack of states on a leading axis that all evolve under ``V``.
    ``out`` may hold two arrays shaped like the product: the weighted phases, and the result,
    which may be a view whose last axis is contiguous.  ``V`` must be real, as ``eigh`` of a
    real symmetric matrix gives it: ``V`` then multiplies the real and imaginary parts of the
    weighted phases as one real GEMM on their float view, half the arithmetic of a complex one.
    """
    v = spectrum.eigenvectors
    weighted = np.multiply(phases, v.T @ amps[..., None], out=out[0])
    result = np.empty_like(weighted) if out[1] is None else out[1]
    np.matmul(v, weighted.view(float), out=result.view(float))
    return result


def propagate(spectrum: Spectrum, state: ExcitationState, t: float) -> ExcitationState:
    """Evolve ``state`` for time ``t``: ``V exp(-i L t) V^T`` on the amplitudes.

    The vacuum amplitude is left untouched.
    """
    if state.dim != spectrum.dim:
        raise ValueError(f"state dim {state.dim} != spectrum dim {spectrum.dim}")
    amps = _evolve(spectrum, state.amps, _phases(spectrum, [_real(t, "t")]))[:, 0]
    return ExcitationState(amps=amps, vac=state.vac)


def _amp_on_grid(weights: np.ndarray, eigenvalues: np.ndarray, times, rows=None) -> np.ndarray:
    """``sum_k w_k exp(-i lambda_k t)`` for every t, ``_CHUNK // dim`` points at a time.

    ``weights`` may carry trailing columns; each gives one column of the result.
    A mask ``rows`` evaluates just those rows, rounded as in the whole product (the rest is junk).
    """
    times, per = np.asarray(times, dtype=float), max(1, _CHUNK // eigenvalues.size)
    out = np.empty((times.shape[0], *weights.shape[1:]), dtype=complex)
    for start in range(0, times.shape[0], per):
        phase = times[start : start + per, None] * (-1j * eigenvalues)  # exp'd in place
        where = True if rows is None else rows[start : start + per, None]
        out[start : start + per] = np.exp(phase, out=phase, where=where) @ weights
        del phase  # freed before the next chunk's is formed
    return out


def _uniform_rows(
    weights: np.ndarray, eigenvalues: np.ndarray, t_lo: float, step: float, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid ``t_lo + i step``, ``i < n``, as ladder rows ``heads[r] @ ladder`` (cut at point
    ``n``), and ``bound[r]``, which no ``F`` of row ``r`` exceeds."""
    # point i = r m + c has phase lambda (t_lo + r m step) + lambda c step: head r times rung c,
    # so the n points cost ~2 sqrt(n) dim exponentials
    m, phase = math.isqrt(n) + 1, -1j * eigenvalues
    heads = np.exp(np.outer(t_lo + np.arange(-(-n // m)) * (m * step), phase)) * weights
    ladder = np.exp(np.outer(phase, np.arange(m) * step))
    # |A| <= |row head sum| + sum |w_k| min(2, |lambda_k - center| (m - 1) step) and <= sum |w|,
    # center the |w|-weighted median (the mean falls between dispersive clusters), so a reach of
    # sum |w| bounds every row alike; the heads are the scan's own, so the slack covers only
    # rounding; plain floats beat numpy on a few values.
    span, size, lam = (m - 1) * step, np.abs(weights).tolist(), eigenvalues.tolist()
    total = sum(size)
    center = lam[bisect.bisect_left(list(itertools.accumulate(size)), total / 2)]  # eigh sorts lam
    reach = sum(w * min(2.0, abs(x - center) * span) for w, x in zip(size, lam))
    slack = 8 * np.finfo(float).eps * total * (len(lam) + 4 + max(map(abs, lam)) * span)
    return heads, ladder, np.square(np.minimum(abs(heads.sum(1)) + reach, total) + slack)


def _maxima(f: np.ndarray) -> np.ndarray:
    """Indices ``i`` of the maxima ``f[i + 1]`` of ``f[1:-1]``: a maximum rises strictly on its
    left and not on its right, so a flat stretch gives one, not all."""
    return np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:]))


def _rows_to_scan(heads, ladder, bound, n: int) -> list:
    """Runs ``(first, stop)`` of the rows whose ``bound`` reaches the band below a grid maximum."""
    if not bound.min() < bound.max() - _CANDIDATE_BAND:  # a uniform bound skips no row
        return [(0, heads.shape[0])]
    near = max(0, int(np.argmax(abs(heads.sum(1)))) - 1)  # the largest head sum and neighbours
    seed_rows = [(near, min(near + 3, bound.size))]
    f = np.abs(np.concatenate([a for _, a in _uniform_chunks(heads, ladder, n, seed_rows)])) ** 2
    seed = f[_maxima(f) + 1].max(initial=-np.inf)
    keep = np.convolve(~(bound < seed - _CANDIDATE_BAND), [1, 1, 1])[1:-1] > 0  # and neighbours
    return np.flatnonzero(np.diff(keep, prepend=False, append=False)).reshape(-1, 2).tolist()


def _uniform_chunks(heads, ladder, n: int, runs) -> Iterator[tuple[int, np.ndarray]]:
    """``(start, amplitudes)`` of the rows in the ascending ``(first, stop)`` ``runs``, as many
    whole rows of a run at a time as fit in ``_CHUNK`` points, at least one."""
    m, per = ladder.shape[1], max(1, _CHUNK // ladder.shape[1])
    for first, stop in runs:
        for r in range(first, stop, per):
            yield r * m, (heads[r : min(r + per, stop)] @ ladder).ravel()[: n - r * m]


def _grid_times(index: np.ndarray, t_lo: float, t_hi: float, n: int) -> np.ndarray:
    """``np.linspace(t_lo, t_hi, n)[index]``, bitwise, without the grid."""
    step = (t_hi - t_lo) / (n - 1)
    # linspace scales by the span where the step underflows to 0
    offsets = index * step if step else index / (n - 1) * (t_hi - t_lo)
    return np.where(index == n - 1, t_hi, offsets + t_lo)


def _scan_peaks(
    chunks: Iterator[tuple[int, np.ndarray]], n: int, window
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index, F and A of the grid maxima of ``F = |A|^2`` within ``_CANDIDATE_BAND`` of the top.

    ``chunks`` yields ``(start, amplitudes)`` in order; the last two of a chunk are carried into
    the next of its run of points, so every point meets its true neighbours.  ``_maxima`` finds
    the maxima, as it does in the seed pass of ``_rows_to_scan``.  Without one, the candidate is
    the first highest point of ``F[1:-1]`` (all points scanned).
    """
    top, found, stop = -np.inf, [], None
    for start, amp in chunks:
        if start != stop:  # a run begins: +inf carried in, so its first point is no maximum
            f_end, a_end = np.full(2, np.inf), np.zeros(2, complex)
        f = np.empty(amp.size + 2)  # F at points start - 2 ... start + amp.size - 1
        f[:2] = f_end
        np.square(np.abs(amp, out=f[2:]), out=f[2:])
        if not np.isfinite(f[2:]).all():
            raise FloatingPointError(f"non-finite transfer fidelity on the scan over {window!r}")
        hits = _maxima(f)  # at start - 1 + hits
        if hits.size:  # kept: those within the band of the top so far
            top = max(top, float(f[hits + 1].max()))
            hits = hits[f[hits + 1] >= top - _CANDIDATE_BAND]
            found.append((hits + start - 1, f[hits + 1], np.where(hits, amp[hits - 1], a_end[1])))
        stop = start + amp.size
        if start <= 1 < stop:
            first = f[3 - start], amp[1 - start]  # at point 1
        f_end, a_end = f[-2:].copy(), np.concatenate((a_end, amp[-2:]))[-2:]
    if not found:  # nothing rises and holds: F[1:-1] falls, then rises strictly to its end
        index, f_max, a_max = (1, *first) if first[0] >= f_end[0] else (n - 2, f_end[0], a_end[0])
        return np.array([index]), np.array([f_max]), np.array([a_max])
    index, f_max, a_max = (np.concatenate(column) for column in zip(*found))
    keep = f_max >= top - _CANDIDATE_BAND
    return index[keep], f_max[keep], a_max[keep]


def _transition_weights(spectrum: Spectrum, source: int, target: int) -> np.ndarray:
    """Spectral weights ``v[target, k] v[source, k]`` of ``<target| exp(-i H t) |source>``."""
    v, last = spectrum.eigenvectors, spectrum.dim - 1
    return v[_count(source, "source", 0, last), :] * v[_count(target, "target", 0, last), :]


def transition_amplitudes(
    spectrum: Spectrum, source: int, target: int, times: np.ndarray
) -> np.ndarray:
    """Amplitudes ``<target| exp(-i H t) |source>`` for an array of times."""
    weights = _transition_weights(spectrum, source, target)
    return _amp_on_grid(weights, spectrum.eigenvalues, np.atleast_1d(np.asarray(times, float)))


def photon_population(state: ExcitationState) -> float:
    """Total photon population: sum of ``|amps|^2`` over cavity rows."""
    return float((np.abs(state.amps[cavity_index(np.arange(state.dim // 2))]) ** 2).sum())


def site_population(state: ExcitationState, site: int, kind: str) -> float:
    """Population of one site mode; ``kind`` is ``"cavity"`` or ``"atom"``."""
    return state.population(_mode((site, kind), state.dim // 2, "population mode"))


def _newton_peaks(weights: np.ndarray, eigenvalues: np.ndarray, brackets) -> np.ndarray:
    """Newton on ``F'(t) = 0`` from the grid maxima of ``brackets = t, lo, hi``; returns new times.

    Each step evaluates ``A, A', A''`` at ``t``, so ``F'/2 = Re(conj(A) A')`` and
    ``F''/2 = |A'|^2 + Re(conj(A) A'')``; a candidate moves only where ``F'' < 0``, in its bracket.
    """
    t, lo, hi = brackets
    lam, w = eigenvalues[:, None], weights[:, None]
    derivatives = np.concatenate([w, -1j * lam * w, -lam**2 * w], 1)
    for _ in range(_NEWTON_STEPS):
        a, a1, a2 = _amp_on_grid(derivatives, eigenvalues, t).T
        slope = (a.conj() * a1).real
        curvature = np.abs(a1) ** 2 + (a.conj() * a2).real
        shift = np.divide(slope, curvature, out=np.zeros(slope.shape), where=curvature < 0)
        t = np.minimum(np.maximum(t - shift, lo), hi)
    return t


def _bracket_bounds(weights, eigenvalues, heads, ladder, peaks, step: float, t_hi: float):
    """A ceiling on ``F`` over the grid bracket ``[p - 1, p + 1]`` of each ``p`` in ``peaks``, with
    ``|t| <= t_hi``; ``A`` at point ``r m + i`` is the scan's ``heads[r] @ ladder[:, i]``.

    ``E_c``, the part of ``A`` of cluster ``c`` (a run of the spectrum split at gaps over 0.1 of
    its spread), has ``G_c = |E_c|^2`` with ``|G_c''| <= K_c = 2 W_c S_c``, the sums over ``c`` of
    ``|w|`` and ``|w| (lambda - mean)^2``: on a half of the bracket ``G_c`` is at most its larger
    end plus ``K_c step^2 / 8``, and ``F <= (sum_c sqrt(G_c))^2``.
    """
    gaps = (eigenvalues[1:] - eigenvalues[:-1] > 0.1 * (eigenvalues[-1] - eigenvalues[0])).tolist()
    member = np.equal.outer([0, *itertools.accumulate(gaps)], range(sum(gaps) + 1))
    size = np.abs(weights)[:, None] * member  # |w_k| in the column of k's cluster
    total = size.sum(0)
    centre = eigenvalues @ size / np.maximum(total, np.finfo(float).tiny)
    bend = total * (np.square(eigenvalues[:, None] - centre) * size).sum(0) * step**2 / 4
    g, per = np.zeros((peaks.size, total.size)), max(1, _CHUNK // eigenvalues.size)
    for start, offset in itertools.product(range(0, peaks.size, per), (-1, 0, 1)):
        row, rung = np.divmod(peaks[start : start + per] + offset, ladder.shape[1])
        e = np.abs((np.take(heads, row, 0) * np.take(ladder, rung, 1).T) @ member)
        np.maximum(g[start : start + per], np.square(e, out=e), out=g[start : start + per])
    # capped at (sum |w|)^2; the heads' phases round at eps lambda t
    cap, turn = total.sum(), abs(eigenvalues).max() * t_hi
    slack = 8 * np.finfo(float).eps * cap * (eigenvalues.size + 4 + turn)
    return np.square(np.minimum(np.sqrt(g + bend).sum(1), cap) + slack)


def _window(window) -> tuple[float, float]:
    """``window``, a list, tuple or array of two finite numbers, as floats ``0 <= lo < hi``."""
    bounds = window.tolist() if isinstance(window, np.ndarray) else window
    if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
        raise ValueError(f"search window must be a (lo, hi) pair, got {window!r}")
    t_lo, t_hi = (_real(bound, "window bound") for bound in bounds)
    if not t_hi > t_lo >= 0:  # F(-t) = F(t): a window before t = 0 would report a mirror image
        raise ValueError(f"search window {window!r} is not 0 <= lo < hi")
    return t_lo, t_hi


def _envelope_period(weights: np.ndarray, eigenvalues: np.ndarray) -> float:
    """Period of the slowest beat that carries spectral weight.

    The transfer amplitude is a trigonometric sum over Bohr frequencies
    ``lambda_i - lambda_j`` weighted by ``w_i w_j``; its slow envelope is set
    by the smallest such frequency with non-negligible weight.  Returns
    ``inf`` when no resolvable beat exists.
    """
    w, index = np.abs(np.outer(weights, weights)), np.arange(eigenvalues.shape[0])
    upper = np.less.outer(index, index) & (w > _WEIGHT_FLOOR * float(w.max()))  # pairs i < j
    gaps = np.abs(np.subtract.outer(eigenvalues, eigenvalues))[upper]
    gaps = gaps[gaps > 1e-9 * max(1.0, float(np.abs(eigenvalues).max()))]
    return 2.0 * np.pi / float(gaps.min()) if gaps.size else float("inf")


def _default_window(spectrum: Spectrum, source: int, target: int) -> tuple[float, float]:
    """``(0, _WINDOW_PERIODS P)``, ``P`` the ``_envelope_period`` of the source-target weights."""
    period = _envelope_period(_transition_weights(spectrum, source, target), spectrum.eigenvalues)
    if period == np.inf:
        raise ValueError("no beat carries the transfer; give a search window")
    return 0.0, _WINDOW_PERIODS * period


def find_transfer_time(
    h: np.ndarray | BlockHamiltonian | Spectrum,
    source: int,
    target: int,
    window: tuple[float, float] | None = None,
    grid_points: int | None = None,
) -> TransferResult:
    """Locate the transfer peak of ``F(t) = |<target| exp(-i H t) |source>|^2``.

    ``F`` is scanned on a uniform grid over ``window``, about ``_CHUNK``
    points at a time, so no array of grid length is formed.  A grid row of
    ``isqrt(n) + 1`` points is skipped where a bound on its ``F`` (the row
    head's amplitude plus the most the row's phases can turn it) is more than
    ``_CANDIDATE_BAND`` below a grid maximum: most rows of a dispersive grid,
    none of a resonant one.  The result is the best refined peak in the first
    period of the slow transfer envelope, the earliest on an exact tie: later
    periods repeat the same peaks with essentially the same fidelity, so a
    global argmax would jump between them on rounding-level differences.  Of
    the local maxima near the grid top, Newton on ``F'(t) = 0`` refines, inside
    its grid bracket, each that may be that pick: in a large pool, only those
    that a bound on ``F`` over the bracket, cluster by cluster, cannot rule out.

    Parameters
    ----------
    h : array, BlockHamiltonian or Spectrum
        Real symmetric Hamiltonian, or its eigendecomposition.
    source, target : int
        Basis indices of the prepared and the read-out mode.
    window : (float, float), optional
        Search interval ``(lo, hi)``: a list, tuple or array of two finite
        numbers with ``0 <= lo < hi``; by default ``(0, 1.05 P)``, ``P`` the
        envelope period, refused where no beat carries spectral weight.
    grid_points : int, optional
        Scan resolution, at most ``ARRAY_BUDGET`` points; by default
        ``auto_grid_points`` of the spectrum.  On a grid that resolves the
        fastest Bohr oscillation, ``t_star`` is the stationary point of the
        chosen peak of ``F``, not a grid point.  A coarser grid may miss the
        peak, but the result is never below the best scanned point.

    Returns
    -------
    TransferResult
        ``(t_star, fidelity, phase)`` with ``phase = arg <target|psi(t*)>``,
        which the entanglement protocol compensates downstream.
    """
    window = None if window is None else _window(window)  # a given window and grid are
    if grid_points is not None:  # refused before any eigendecomposition
        grid_points = _count(grid_points, "grid_points", 3, ARRAY_BUDGET)
    spectrum = _spectrum(h)
    t_lo, t_hi = window or _default_window(spectrum, source, target)
    grid_points = grid_points or auto_grid_points(spectrum, (t_lo, t_hi))
    weights = _transition_weights(spectrum, source, target)
    step = (t_hi - t_lo) / (grid_points - 1)  # as np.linspace has it
    heads, ladder, bound = _uniform_rows(weights, spectrum.eigenvalues, t_lo, step, grid_points)
    runs = _rows_to_scan(heads, ladder, bound, grid_points)
    chunks = _uniform_chunks(heads, ladder, grid_points, runs)
    peaks, f_grid, a_grid = _scan_peaks(chunks, grid_points, (t_lo, t_hi))
    t, lo, hi = brackets = _grid_times(peaks + np.array([[0], [-1], [1]]), t_lo, t_hi, grid_points)
    ceiling = np.inf
    if peaks.size > _WHOLE_POOL:
        ceiling = _bracket_bounds(weights, spectrum.eigenvalues, heads, ladder, peaks, step, t_hi)
    period = _envelope_period(weights, spectrum.eigenvalues) if window else t_hi / _WINDOW_PERIODS
    # Newton goes on where the ceiling reaches the grid F (<= refined F) of one sure to share the
    # pick's class: first of those that may land in the first period, then, if none does, of all
    for h in (t_lo + period, np.inf):
        new, t_new = (lo <= h) & (ceiling >= f_grid[hi <= h].max(initial=-np.inf)), t.copy()
        t_new[new] = _newton_peaks(weights, spectrum.eigenvalues, brackets[:, new])
        t_new, a_new = t_new[new], _amp_on_grid(weights, spectrum.eigenvalues, t_new, new)[new]
        # a peak that Newton did not improve keeps its grid point: never below the scan
        better = np.abs(a_new) ** 2 >= f_grid[new]
        t_peak, a_peak = np.where(better, t_new, t[new]), np.where(better, a_new, a_grid[new])
        if (t_peak <= t_lo + period).any():
            break
    f_peak = np.abs(a_peak) ** 2
    # inside the first envelope period if any is, then the highest, then the earliest
    k = np.lexsort((t_peak, -f_peak, t_peak > t_lo + period))[0]
    return TransferResult(float(t_peak[k]), float(f_peak[k]), float(np.angle(a_peak[k])))


def auto_grid_points(
    h: np.ndarray | BlockHamiltonian | Spectrum, window: tuple[float, float]
) -> int:
    """Grid size resolving the fastest Bohr oscillation over ``window``.

    Returns at least ``_GRID_FLOOR`` points, and enough for
    ``_GRID_PER_PERIOD`` samples per period of the largest eigenvalue gap;
    ``find_transfer_time`` scans this grid by default.  ``h`` may be a
    ``Spectrum``, so one decomposition serves both calls.  A grid above
    ``ARRAY_BUDGET`` points raises ``ValueError``.
    """
    t_lo, t_hi = _window(window)
    eigenvalues = _spectrum(h).eigenvalues
    spread = float(eigenvalues[-1] - eigenvalues[0])
    needed = (t_hi - t_lo) * spread * _GRID_PER_PERIOD / (2.0 * np.pi)
    # compared as a float: a huge window or spread would overflow the int cast
    if not needed + 1 < ARRAY_BUDGET:
        raise ValueError(f"a grid of {needed:.3g} points exceeds the budget of {ARRAY_BUDGET}")
    return max(_GRID_FLOOR, int(np.ceil(needed)) + 1)
