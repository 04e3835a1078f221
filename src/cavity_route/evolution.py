"""Exact time evolution and transfer-time search.

All Hamiltonians here are small real symmetric matrices, so evolution is done
through one eigendecomposition per matrix: ``psi(t) = V exp(-i L t) V^T
psi(0)``.  This is exact up to rounding, unconditionally stable, and lets a
whole grid of times be evaluated with one decomposition; a uniform grid is one
product of row-start phases and one shared ladder of offset phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .collective import BlockHamiltonian
from .network import ARRAY_BUDGET

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

#: Points per evaluation chunk at arbitrary times (``_amp_on_grid``, Newton);
#: bounds their ``points x dim`` complex intermediate.  The uniform scan needs no chunks.
_CHUNK = 65536

#: Refined peaks are kept while scanning if their grid fidelity is within
#: this band of the grid maximum; generous on purpose, the final choice is
#: made on refined values.
_CANDIDATE_BAND = 5e-3

#: Newton steps per candidate; three reach rounding level on auto_grid_points grids.
_NEWTON_STEPS = 5

#: Bohr frequencies enter the envelope-period estimate only if the
#: corresponding pair of spectral weights is at least this fraction of the
#: largest weight product.
_WEIGHT_FLOOR = 1e-3


def _as_matrix(h: np.ndarray | BlockHamiltonian) -> np.ndarray:
    if isinstance(h, BlockHamiltonian):
        return h.matrix
    return np.asarray(h, dtype=float)


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
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a 1-d vector")
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
        return float(abs(self.amps[index]) ** 2)

    @classmethod
    def excitation(cls, dim: int, index: int) -> "ExcitationState":
        """Unit excitation in one mode."""
        if not 0 <= index < dim:
            raise ValueError(f"mode index {index} outside 0..{dim - 1}")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps=amps)

    @classmethod
    def with_vacuum(
        cls, dim: int, index: int, excited_amp: complex, vac_amp: complex
    ) -> "ExcitationState":
        """Superposition ``vac_amp |vac> + excited_amp |mode index>``."""
        if not 0 <= index < dim:
            raise ValueError(f"mode index {index} outside 0..{dim - 1}")
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
    m = _as_matrix(h)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"hamiltonian must be square, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-12 * scale:
        raise ValueError("hamiltonian must be symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _spectrum(h: np.ndarray | BlockHamiltonian | Spectrum) -> Spectrum:
    """``h`` itself if it is already decomposed, else its eigendecomposition."""
    return h if isinstance(h, Spectrum) else eigendecompose(h)


def propagate(spectrum: Spectrum, state: ExcitationState, t: float) -> ExcitationState:
    """Evolve ``state`` for time ``t``: ``V exp(-i L t) V^T`` on the amplitudes.

    The vacuum amplitude is left untouched.
    """
    if state.dim != spectrum.dim:
        raise ValueError(f"state dim {state.dim} != spectrum dim {spectrum.dim}")
    v = spectrum.eigenvectors
    phases = np.exp(-1j * spectrum.eigenvalues * t)
    amps = v @ (phases * (v.T @ state.amps))
    return ExcitationState(amps=amps, vac=state.vac)


def _amp_on_grid(weights: np.ndarray, eigenvalues: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``sum_k w_k exp(-i lambda_k t)`` for every t, ``_CHUNK`` points at a time."""
    times = np.asarray(times, dtype=float)
    out = np.empty(times.shape[0], dtype=complex)
    for start in range(0, times.shape[0], _CHUNK):
        # no name for the exp block: it must be freed before the next chunk's
        chunk = times[start : start + _CHUNK]
        out[start : start + _CHUNK] = np.exp(np.outer(chunk, -1j * eigenvalues)) @ weights
    return out


def _amp_on_uniform_grid(
    weights: np.ndarray, eigenvalues: np.ndarray, t_lo: float, step: float, n: int
) -> np.ndarray:
    """``_amp_on_grid`` at ``t_lo + i step``, ``i < n``, from ``~2 sqrt(n) dim`` exponentials."""
    # point i = r m + c has phase lambda (t_lo + r m step) + lambda c step: head r times rung c
    m = math.isqrt(n) + 1
    heads = np.exp(np.outer(t_lo + np.arange(-(-n // m)) * (m * step), -1j * eigenvalues))
    ladder = np.exp(np.outer(-1j * eigenvalues, np.arange(m) * step))
    return ((heads * weights) @ ladder).ravel()[:n]


def _transition_weights(spectrum: Spectrum, source: int, target: int) -> np.ndarray:
    """Spectral weights ``v[target, k] v[source, k]`` of ``<target| exp(-i H t) |source>``."""
    for idx in (source, target):
        if not 0 <= idx < spectrum.dim:
            raise ValueError(f"basis index {idx} outside 0..{spectrum.dim - 1}")
    v = spectrum.eigenvectors
    return v[target, :] * v[source, :]


def transition_amplitudes(
    spectrum: Spectrum, source: int, target: int, times: np.ndarray
) -> np.ndarray:
    """Amplitudes ``<target| exp(-i H t) |source>`` for an array of times."""
    weights = _transition_weights(spectrum, source, target)
    return _amp_on_grid(weights, spectrum.eigenvalues, np.atleast_1d(np.asarray(times, float)))


def photon_population(state: ExcitationState, spec=None) -> float:
    """Total photon population: sum of ``|amps|^2`` over cavity rows.

    ``spec`` is optional and only used to cross-check the state dimension.
    """
    if spec is not None and state.dim != 2 * spec.num_sites:
        raise ValueError(f"state dim {state.dim} does not match spec dim {2 * spec.num_sites}")
    return float((np.abs(state.amps[0::2]) ** 2).sum())


def site_population(state: ExcitationState, site: int, kind: str) -> float:
    """Population of one site mode; ``kind`` is ``"cavity"`` or ``"atom"``."""
    if kind not in ("cavity", "atom"):
        raise ValueError(f"kind must be 'cavity' or 'atom', got {kind!r}")
    index = 2 * site + (1 if kind == "atom" else 0)
    if not 0 <= index < state.dim:
        raise ValueError(f"site {site} outside the network")
    return state.population(index)


def _newton_peaks(
    weights: np.ndarray, eigenvalues: np.ndarray, t: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Newton on ``F'(t) = 0`` from all grid maxima ``t`` at once; returns the new times.

    ``F'/2 = Re(conj(A) A')`` and ``F''/2 = |A'|^2 + Re(conj(A) A'')`` come from one
    exponential block per step; a candidate moves only where ``F'' < 0``, inside ``[lo, hi]``.
    """
    derivatives = np.stack([weights, -1j * eigenvalues * weights, -eigenvalues**2 * weights], 1)
    t = t.copy()
    for start in range(0, t.shape[0], _CHUNK):
        part = slice(start, start + _CHUNK)
        for _ in range(_NEWTON_STEPS):
            a, a1, a2 = (np.exp(np.outer(t[part], -1j * eigenvalues)) @ derivatives).T
            slope = (a.conj() * a1).real
            curvature = np.abs(a1) ** 2 + (a.conj() * a2).real
            shift = np.divide(slope, curvature, out=np.zeros_like(slope), where=curvature < 0)
            t[part] = np.clip(t[part] - shift, lo[part], hi[part])
    return t


def _envelope_period(weights: np.ndarray, eigenvalues: np.ndarray) -> float:
    """Period of the slowest beat that carries spectral weight.

    The transfer amplitude is a trigonometric sum over Bohr frequencies
    ``lambda_i - lambda_j`` weighted by ``w_i w_j``; its slow envelope is set
    by the smallest such frequency with non-negligible weight.  Returns
    ``inf`` when no resolvable beat exists.
    """
    w = np.abs(np.outer(weights, weights))
    i, j = np.triu_indices(eigenvalues.shape[0], 1)
    gaps = np.abs(eigenvalues[i] - eigenvalues[j])[w[i, j] >= _WEIGHT_FLOOR * float(w.max())]
    gaps = gaps[gaps > 1e-9 * max(1.0, float(np.abs(eigenvalues).max()))]
    if gaps.size == 0:
        return float("inf")
    return 2.0 * np.pi / float(gaps.min())


def find_transfer_time(
    h: np.ndarray | BlockHamiltonian | Spectrum,
    source: int,
    target: int,
    window: tuple[float, float] = (0.0, 10.0),
    grid_points: int = 20001,
) -> TransferResult:
    """Locate the transfer peak of ``F(t) = |<target| exp(-i H t) |source>|^2``.

    ``F`` is scanned on a uniform grid over ``window``; every local maximum
    near the grid top is refined by Newton on ``F'(t) = 0`` inside its grid
    bracket.  The result is the best refined peak in the first period of the
    slow transfer envelope, the earliest on an exact tie: later periods
    repeat the same peaks with essentially the same fidelity, so a global
    argmax would jump between them on rounding-level differences.

    Parameters
    ----------
    h : array, BlockHamiltonian or Spectrum
        Real symmetric Hamiltonian, or its eigendecomposition.
    source, target : int
        Basis indices of the prepared and the read-out mode.
    window : (float, float)
        Search interval; must be non-empty.
    grid_points : int
        Scan resolution, at most ``ARRAY_BUDGET``; the default resolves the
        resonant default blocks.  Use ``auto_grid_points``: on a grid that
        resolves the fastest Bohr oscillation, ``t_star`` is the stationary
        point of the chosen peak of ``F``, not a grid point.  A coarser grid
        may miss the peak, but the result is never below the best scanned point.

    Returns
    -------
    TransferResult
        ``(t_star, fidelity, phase)`` with ``phase = arg <target|psi(t*)>``,
        which the entanglement protocol compensates downstream.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (t_hi > t_lo):
        raise ValueError(f"empty search window {window!r}")
    if not 3 <= grid_points <= ARRAY_BUDGET:
        raise ValueError(f"grid_points must be in [3, {ARRAY_BUDGET}], got {grid_points}")
    spectrum = _spectrum(h)
    weights = _transition_weights(spectrum, source, target)
    ts, step = np.linspace(t_lo, t_hi, grid_points, retstep=True)
    amp = _amp_on_uniform_grid(weights, spectrum.eigenvalues, t_lo, step, grid_points)
    f = np.abs(amp) ** 2
    if not np.isfinite(f).all():
        raise FloatingPointError(f"non-finite transfer fidelity on the scan over {window!r}")
    # a maximum rises strictly on its left, so a flat stretch gives one candidate, not all
    interior = np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:])) + 1
    if interior.size == 0:
        interior = np.array([int(np.argmax(f[1:-1])) + 1])
    peaks = interior[f[interior] >= float(f[interior].max()) - _CANDIDATE_BAND]
    t_new = _newton_peaks(weights, spectrum.eigenvalues, ts[peaks], ts[peaks - 1], ts[peaks + 1])
    a_new = _amp_on_grid(weights, spectrum.eigenvalues, t_new)
    # a peak that Newton did not improve keeps its grid point: never below the scan
    better = np.abs(a_new) ** 2 >= f[peaks]
    t_peak, a_peak = np.where(better, t_new, ts[peaks]), np.where(better, a_new, amp[peaks])
    f_peak = np.abs(a_peak) ** 2

    horizon = t_lo + _envelope_period(weights, spectrum.eigenvalues)
    # inside the first envelope period if any is, then the highest, then the earliest
    k = np.lexsort((t_peak, -f_peak, t_peak > horizon))[0]
    return TransferResult(float(t_peak[k]), float(f_peak[k]), float(np.angle(a_peak[k])))


def auto_grid_points(
    h: np.ndarray | BlockHamiltonian | Spectrum,
    window: tuple[float, float],
    per_period: int = 8,
    floor: int = 20001,
) -> int:
    """Grid size resolving the fastest Bohr oscillation over ``window``.

    Returns at least ``floor`` points, and enough for ``per_period`` samples
    per period of the largest eigenvalue gap.  The default grid of
    ``find_transfer_time`` badly undersamples wide windows in the strongly
    detuned regime; feed it this instead.  ``h`` may be a ``Spectrum``, so
    one decomposition serves both calls.  A grid above ``ARRAY_BUDGET``
    points raises ``ValueError``.
    """
    if per_period < 2:
        raise ValueError(f"per_period must be >= 2, got {per_period}")
    span = float(window[1]) - float(window[0])
    if span <= 0:
        raise ValueError(f"empty search window {window!r}")
    eigenvalues = _spectrum(h).eigenvalues
    spread = float(eigenvalues[-1] - eigenvalues[0])
    needed = span * spread * per_period / (2.0 * np.pi)
    # compared as a float: a huge window or spread would overflow the int cast
    if not needed < ARRAY_BUDGET:
        raise ValueError(f"a grid of {needed:.3g} points exceeds the budget of {ARRAY_BUDGET}")
    return max(floor, int(np.ceil(needed)) + 1)
