"""Collective bases and invariant-subspace block decomposition.

The engineered coupling signs make certain symmetric/antisymmetric (chain)
and Hadamard-weighted (switch, lattice) combinations of site modes evolve
independently.  This module builds the orthogonal change of basis explicitly
and verifies that the transformed Hamiltonian is block diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .network import (
    ARRAY_BUDGET,
    HADAMARD_SIGNS,
    HexLatticeDescriptor,
    NetworkSpec,
    Site,
    SystemParams,
    _count,
    atom_index,
    build_single_excitation_hamiltonian,
    cavity_index,
    hex_lattice_layout,
)

__all__ = [
    "OrthogonalTransform",
    "BlockHamiltonian",
    "chain_collective_basis",
    "switch_collective_basis",
    "lattice_collective_basis",
    "block_decompose",
    "extract_block",
]


def _residual_bound(h: np.ndarray) -> float:
    """``1e-12 max(1, max |h|)``: the largest ``block_decompose`` residual that is rounding."""
    return 1e-12 * max(1.0, float(np.abs(h).max()))


def _padded(m: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``m``: indices and values of its nonzeros ``m[rows, cols]``, zero-padded."""
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)  # place inside its row
    index = np.zeros((m.shape[0], int(slot.max(initial=0)) + 1), dtype=np.intp)
    values = np.zeros(index.shape)
    index[rows, slot], values[rows, slot] = cols, m[rows, cols]
    return index, values


def _sparse_product(view: tuple[np.ndarray, np.ndarray], vec) -> np.ndarray:
    """``M @ vec`` from the ``_padded`` view of ``M``; ``vec`` may carry trailing axes."""
    index, values = view
    return np.einsum("rk,rk...->r...", values, np.asarray(vec)[index])


@dataclass(frozen=True)
class OrthogonalTransform:
    """Orthogonal change of basis with named rows grouped into blocks.

    ``matrix`` has one orthonormal row per collective mode (every row holds
    at most four nonzero entries, each ``+-1/2``, ``+-1/sqrt(2)`` or ``1``);
    ``groups`` partitions the row indices into the invariant subspaces.  The
    products with a vector use only the nonzeros, read once from ``matrix``.
    """

    matrix: np.ndarray
    labels: tuple[str, ...]
    groups: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        q = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("transform matrix must be square")
        if len(self.labels) != q.shape[0]:
            raise ValueError("one label per row required")
        covered = sorted(i for _, idx in self.groups for i in idx)
        if covered != list(range(q.shape[0])) or not all(idx for _, idx in self.groups):
            raise ValueError("groups must partition all rows exactly once")
        # the nonzeros of the rows of Q and of Q^T, for every product with a vector
        rows, cols = np.divmod(np.flatnonzero(q.ravel() != 0.0), q.shape[0])  # sorted by row
        by_col = np.lexsort((rows, cols))
        object.__setattr__(self, "_rows", _padded(q, rows, cols))
        object.__setattr__(self, "_columns", _padded(q.T, cols[by_col], rows[by_col]))
        # one fixed probe through the nonzeros costs O(dim); a dense Q Q^T would cost O(dim^3)
        probe = np.sin(np.arange(1.0, q.shape[0] + 1.0))  # no entry vanishes; no numpy.random
        round_trip = self.from_collective(self.to_collective(probe))
        if not np.abs(round_trip - probe).max(initial=0.0) <= 1e-10:
            raise ValueError("transform rows must be orthonormal")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_collective(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates of a site-basis vector in the collective basis."""
        return _sparse_product(self._rows, vec)

    def from_collective(self, vec: np.ndarray, modes=slice(None)) -> np.ndarray:
        """Site-basis amplitudes of collective coordinates ``vec``, on ``modes`` (default all)."""
        index, values = self._columns
        return _sparse_product((index[modes], values[modes]), vec)


@dataclass(frozen=True)
class BlockHamiltonian:
    """One invariant block of a transformed Hamiltonian."""

    matrix: np.ndarray
    labels: tuple[str, ...]
    name: str = ""

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("block matrix must be square")
        if len(self.labels) != m.shape[0]:
            raise ValueError("one label per block basis vector required")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


#: ``(label, {mode index: coefficient})`` per collective mode
Modes = list[tuple[str, dict[int, float]]]


def _modes(label: str, coefs: dict[int, float]) -> Modes:
    """Cavity and atom mode of the site combination ``coefs``.

    The last ``{}`` in ``label`` takes ``c`` or ``a`` (vertex names before it may hold braces).
    """
    head, _, tail = label.rpartition("{}")
    return [
        (f"{head}{tag}{tail}", {index(site): coef for site, coef in coefs.items()})
        for tag, index in (("c", cavity_index), ("a", atom_index))
    ]


def _hadamard_modes(label: str, inner, port: int) -> Modes:
    """Modes ``xi = sum_k HADAMARD_SIGNS[port][k] |inner_k> / 2`` of one vertex port."""
    return _modes(label, {site: sign / 2.0 for site, sign in zip(inner, HADAMARD_SIGNS[port])})


def _transform(dim: int, groups: list[tuple[str, Modes]]) -> OrthogonalTransform:
    """Dense transform of ``groups``, each ``(name, [(label, {mode: coef}), ...])``.

    Rows are numbered in group order, then mode order inside each group.
    """
    if dim * dim > ARRAY_BUDGET:
        raise ValueError(f"a {dim}-mode transform exceeds the budget of {ARRAY_BUDGET} elements")
    modes = [mode for _, members in groups for mode in members]
    rows = [row for row, (_, coefs) in enumerate(modes) for _ in coefs]
    cols = [col for _, coefs in modes for col in coefs]
    vals = [val for _, coefs in modes for val in coefs.values()]
    q = np.zeros((dim, dim))
    q[rows, cols] = vals
    ends = accumulate(len(members) for _, members in groups)
    index = tuple((name, tuple(range(end - len(m), end))) for (name, m), end in zip(groups, ends))
    return OrthogonalTransform(q, tuple(label for label, _ in modes), index)


def chain_collective_basis(n: int) -> OrthogonalTransform:
    """Collective basis of the diamond chain with ``n`` units.

    For unit ``k`` the control pair (site labels ``3k-1``, ``3k``) is
    replaced by its symmetric/antisymmetric combinations ``ck+/-`` (cavities)
    and ``ak+/-`` (atoms); vertex sites pass through unchanged.  Rows are
    ordered block by block: the sender block ``(c1, a1, c1+, a1+)``, then one
    6-dim relay block per unit boundary, then the receiver block
    ``(cn-, an-, c{n+1}, a{n+1})``.
    """
    n = _count(n, "chain units n", 1)
    s = 1.0 / np.sqrt(2.0)
    # unit k: vertex site id 3k (label 3k+1), control pair ids 3k-2 and 3k-1 (labels 3k-1, 3k)
    vertex = [_modes(f"{{}}{k + 1}", {3 * k: 1.0}) for k in range(n + 1)]
    plus = {k: _modes(f"{{}}{k}+", {3 * k - 2: s, 3 * k - 1: s}) for k in range(1, n + 1)}
    minus = {k: _modes(f"{{}}{k}-", {3 * k - 2: s, 3 * k - 1: -s}) for k in range(1, n + 1)}
    groups = [("block1", vertex[0] + plus[1])]
    groups += [(f"block{k + 1}", minus[k] + vertex[k] + plus[k + 1]) for k in range(1, n)]
    groups.append((f"block{n + 1}", minus[n] + vertex[n]))
    return _transform(2 * (3 * n + 1), groups)


def switch_collective_basis() -> OrthogonalTransform:
    """Collective basis of the switching vertex built by ``build_switch``.

    The four inner modes (ids 4-7) are replaced by Hadamard-weighted
    combinations ``xi_i = sum_k HADAMARD_SIGNS[i][k] |mu_k> / 2``; the outer
    sites ``nu_i`` (ids 0-3) pass through.  Block ``port i`` holds
    ``(nu_i.c, nu_i.a, xi_i.c, xi_i.a)`` and couples ``nu_i`` to ``xi_i``
    with strength ``2j``.
    """
    inner = (4, 5, 6, 7)
    groups = [
        (f"port{i}", _modes(f"nu{i}.{{}}", {i: 1.0}) + _hadamard_modes(f"xi{i}.{{}}", inner, i))
        for i in range(4)
    ]
    return _transform(16, groups)


def lattice_collective_basis(desc: HexLatticeDescriptor) -> OrthogonalTransform:
    """Collective basis of a lattice: per-vertex Hadamard modes.

    Produces one 4-dim block per vertex port occupied by an upload or
    dangling site and one 6-dim block per link
    ``(xi_a, link, xi_b)``; together they cover every mode exactly once.
    """
    layout = hex_lattice_layout(desc)

    def site(v: str, port: int):
        occ = layout.occupant[(v, port)]
        return _modes(f"{layout.sites[occ].label}.{{}}", {occ: 1.0})

    def xi(v: str, port: int):
        return _hadamard_modes(f"xi[{v},{port}].{{}}", layout.inner[v], port)

    linked = {(a, pa) for a, pa, _, _ in desc.links} | {(b, pb) for _, _, b, pb in desc.links}
    # port-0 blocks (upload or dangling) in vertex order
    groups = [
        (f"up[{v}]" if v in desc.uploads else f"p0[{v}]", site(v, 0) + xi(v, 0))
        for v in desc.vertices
    ]
    # 6-dim hop blocks in link order
    groups += [
        (f"hop[{a}{pa}-{b}{pb}]", xi(a, pa) + site(a, pa) + xi(b, pb))
        for a, pa, b, pb in desc.links
    ]
    # dangling planar ports in (vertex, port) order
    groups += [
        (f"p{port}[{v}]", site(v, port) + xi(v, port))
        for v in desc.vertices
        for port in (1, 2, 3)
        if (v, port) not in linked
    ]
    return _transform(2 * len(layout.sites), groups)


def block_decompose(
    h: np.ndarray, transform: OrthogonalTransform
) -> tuple[list[BlockHamiltonian], float]:
    """Transform ``h`` and slice it along ``transform.groups``.

    Returns the list of blocks and the off-block residual
    ``max |element outside every block|``; an exact invariant-subspace
    structure gives a residual at rounding level.
    """
    h = np.asarray(h, dtype=float)
    q = transform.matrix
    if h.shape != (transform.dim, transform.dim):
        raise ValueError(
            f"hamiltonian shape {h.shape} does not match transform dim {transform.dim}"
        )
    hc = q @ h @ q.T
    blocks: list[BlockHamiltonian] = []
    owner = np.empty(transform.dim, dtype=np.intp)  # group of each row
    for group, (name, idx) in enumerate(transform.groups):
        rows = np.array(idx, dtype=np.intp)
        owner[rows] = group
        labels = tuple(transform.labels[i] for i in idx)
        blocks.append(BlockHamiltonian(matrix=hc[rows[:, None], rows], labels=labels, name=name))
    residual = float(np.abs(hc[owner[:, None] != owner]).max(initial=0.0))
    return blocks, residual


def _cell_row(params: SystemParams, kappa: float, cells: int) -> np.ndarray:
    """``cells`` identical atom-cavity cells in a row; neighbouring cavities hop with ``kappa``."""
    sites = tuple(Site(id=cell, label=str(cell)) for cell in range(cells))
    edges = tuple((cell, cell + 1, 1) for cell in range(cells - 1))
    return build_single_excitation_hamiltonian(NetworkSpec(sites, edges, replace(params, j=kappa)))


#: Block name -> (cells in the row, coupling scale).  The cavity-cavity
#: coupling is sqrt(2) j inside a chain block, and 2 j inside a switch or
#: lattice block (four Hadamard-signed couplings of magnitude j collapse onto
#: one collective mode).
_BLOCKS = {
    "end": (2, float(np.sqrt(2.0))),
    "mid": (3, float(np.sqrt(2.0))),
    "upload": (2, 2.0),
    "hop": (3, 2.0),
}


def _block_kind(params: SystemParams, which: str) -> tuple[int, float]:
    """Cells in the row of the block named ``which`` and its cavity-cavity coupling."""
    if not isinstance(params, SystemParams):
        raise ValueError("params must be a SystemParams")
    if not (isinstance(which, str) and which in _BLOCKS):
        raise ValueError(f"unknown block name {which!r}; known: {', '.join(_BLOCKS)}")
    cells, scale = _BLOCKS[which]
    return cells, scale * params.j


def extract_block(params: SystemParams, which: str) -> BlockHamiltonian:
    """Build one block matrix directly from the physical parameters.

    Block names: ``end`` (chain sender/receiver block, 4x4, coupling
    ``sqrt(2) j``), ``mid`` (chain relay block, 6x6, same coupling),
    ``upload`` (switch or lattice port block, 4x4, coupling ``2j``), ``hop``
    (lattice link block, 6x6, coupling ``2j``).  Any other name raises
    ``ValueError``.

    The result matches the corresponding sub-matrix of a full
    ``block_decompose`` to rounding accuracy; blocks built here are handy for
    transfer-time searches without assembling a whole network.
    """
    cells, kappa = _block_kind(params, which)
    matrix = _cell_row(params, kappa, cells)
    labels = tuple(f"{tag}{cell}" for cell in range(cells) for tag in ("cav", "atom"))
    return BlockHamiltonian(matrix=matrix, labels=labels, name=which)

