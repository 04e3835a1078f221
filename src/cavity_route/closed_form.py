"""Closed-form amplitudes of every invariant block, from the normal modes of a uniform row.

A block is a row of ``cells`` identical atom-cavity cells (2 for
``end``/``upload``, 3 for ``mid``/``hop``) whose neighbouring cavities hop
with ``kappa`` (``sqrt(2) j`` in chain blocks, ``2 j`` in switch and lattice
blocks).  The row's standing waves ``phi[c, m] = sqrt(2 / (cells + 1))
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

from .collective import _block_kind, extract_block
from .evolution import eigendecompose, transition_amplitudes
from .network import SystemParams

__all__ = [
    "analytic_amplitudes",
    "validate_analytic",
]


def analytic_amplitudes(params: SystemParams, which: str, t) -> np.ndarray:
    """Amplitudes ``(cav0, atom0, cav1, ...)`` of block ``which`` from a unit ``atom0`` excitation.

    ``which`` is a block name of ``extract_block``; the transfer target is the
    last atom.  Sector ``m`` couples the cavity mode at ``omega_c + shift_m``
    to its atom combination at ``omega_c - delta``.  Accepts a scalar or an
    array of times; the component axis is last.
    """
    cells, kappa = _block_kind(params, which)
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


def validate_analytic(params: SystemParams, which: str, times) -> float:
    """Max deviation between closed-form and numeric block amplitudes.

    Builds the block selected by ``which`` (see ``extract_block``), evolves
    a unit excitation of the source atom numerically, and compares all block
    components against the closed form on the given time grid.  Returns the
    largest absolute difference.
    """
    block = extract_block(params, which)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    analytic = analytic_amplitudes(params, which, times)
    spectrum = eigendecompose(block)
    numeric = np.stack(
        [transition_amplitudes(spectrum, 1, component, times) for component in range(block.dim)],
        axis=-1,
    )
    return float(np.abs(numeric - analytic).max())
