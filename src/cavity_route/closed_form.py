"""Closed-form amplitudes of every invariant block, from the normal modes of a uniform row.

A block is a row of ``cells`` identical atom-cavity cells (2 for
``end``/``upload``, 3 for ``mid``/``hop``) whose neighbouring cavities hop
with ``kappa``.  The row's standing waves ``phi[c, m] = sqrt(2 / (cells + 1))
sin(pi m (c + 1) / (cells + 1))`` shift the cavity energy by ``2 kappa
cos(pi m / (cells + 1))``, ``m = 1..cells``.  Taking cavities and atoms alike
into these modes splits the block into detuned Rabi sectors, one per mode,
with splittings ``hypot(shift_m + delta, 2g)``; each component is a sum over
the sectors.  No eigensolver is used, so the values are an independent oracle
for the numeric propagator; they keep the global ``exp(-i omega_c t)`` phase,
so ``validate_analytic`` compares them verbatim.
"""

from __future__ import annotations

import math

import numpy as np

from .collective import block_coupling, extract_block
from .evolution import eigendecompose, transition_amplitudes
from .network import SystemParams, _real

__all__ = [
    "analytic_u4",
    "analytic_u6",
    "validate_analytic",
]


def _cell_row_amplitudes(params: SystemParams, kappa: float, cells: int, t) -> np.ndarray:
    """Amplitudes ``(cav0, atom0, cav1, ...)`` of a row of ``cells`` cells from ``atom0``.

    Sector ``m`` couples the cavity mode at ``omega_c + shift_m`` to its atom
    combination at ``omega_c - delta``.  The component axis follows ``t``'s axes.
    """
    if not _real(kappa, "block coupling") > 0.0:
        raise ValueError(f"block coupling must be positive, got {kappa}")
    m = np.arange(1, cells + 1)
    phi = math.sqrt(2.0 / (cells + 1)) * np.sin(np.pi * np.outer(m, m) / (cells + 1))  # symmetric
    with np.errstate(over="ignore"):  # an overflow is refused just below
        shift = 2.0 * kappa * np.cos(np.pi * m / (cells + 1))
        d = shift + params.delta  # energy mismatch cavity-mode minus atom
        splitting = np.hypot(d, 2.0 * params.g)
    if not (np.isfinite(shift).all() and np.isfinite(splitting).all()):
        raise ValueError(f"closed form overflows: mode shifts {shift}, splittings {splitting}")
    mean = params.omega_c + 0.5 * (shift - params.delta)
    times = np.asarray(t, dtype=float)
    upper = np.exp(-1j * (mean - 0.5 * splitting) * times[..., None])
    lower = np.exp(-1j * (mean + 0.5 * splitting) * times[..., None])
    survive = ((splitting + d) * upper + (splitting - d) * lower) / (2.0 * splitting)
    leak = params.g * (lower - upper) / splitting
    weights = (phi[0] * phi).T  # weights[m, c] = phi[0, m] phi[c, m]
    return np.stack([leak @ weights, survive @ weights], axis=-1).reshape(*times.shape, 2 * cells)


def analytic_u4(params: SystemParams, kappa: float, t) -> np.ndarray:
    """Pair-block amplitudes ``(cav0, atom0, cav1, atom1)`` from a unit ``atom0`` excitation.

    ``kappa`` is the cavity-cavity coupling of the block (``sqrt(2) j`` for
    chain blocks, ``2 j`` for switch/lattice port blocks); the transfer target
    is ``atom1``.  Accepts a scalar or an array of times; the component axis
    is last.
    """
    return _cell_row_amplitudes(params, kappa, 2, t)


def analytic_u6(params: SystemParams, kappa: float, t) -> np.ndarray:
    """Trio-block amplitudes ``(cav0, atom0, ..., cav2, atom2)`` from a unit ``atom0`` excitation.

    ``kappa`` is the adjacent cavity-cavity coupling of the 6x6 block; the
    transfer target is ``atom2``.
    """
    return _cell_row_amplitudes(params, kappa, 3, t)


def validate_analytic(params: SystemParams, which: str, times) -> float:
    """Max deviation between closed-form and numeric block amplitudes.

    Builds the block selected by ``which`` (see ``extract_block``), evolves
    a unit excitation of the source atom numerically, and compares all block
    components against the closed form on the given time grid.  Returns the
    largest absolute difference.
    """
    block = extract_block(params, which)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    analytic = _cell_row_amplitudes(params, block_coupling(params, which), block.dim // 2, times)
    spectrum = eigendecompose(block)
    numeric = np.stack(
        [transition_amplitudes(spectrum, 1, component, times) for component in range(block.dim)],
        axis=-1,
    )
    return float(np.abs(numeric - analytic).max())
