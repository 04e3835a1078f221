"""Collective bases and invariant-subspace block decomposition.

The engineered coupling signs make certain symmetric/antisymmetric (chain)
and Hadamard-weighted (switch, lattice) combinations of site modes evolve
independently.  This module builds the orthogonal change of basis from its
nonzeros and sums the blocks of the transformed Hamiltonian, and the
off-block residual, from the nonzeros of both, with no ``dim x dim`` array.
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
    _listed,
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


def _residual_bound(values: np.ndarray) -> float:
    """``1e-12 max(1, max |H|)`` from H or its entries: the largest residual that is rounding."""
    return 1e-12 * max(1.0, float(np.abs(values).max(initial=0.0)))


def _nonzeros(m, dim: int, what: str, diagonal: bool = False):
    """The nonzeros ``m = (rows, cols, values)`` of a ``dim x dim`` matrix, as arrays.

    With ``diagonal``, ``m`` lists its whole diagonal, whose length is its own size: rows and
    cols must lie below it, and another size than ``dim`` is refused.
    """
    if not (isinstance(m, tuple) and len(m) == 3):
        raise ValueError(f"{what} entries must be (rows, cols, values), not {type(m).__name__}")
    rows, cols, values = (np.asarray(part) for part in m)
    ok = rows.shape == cols.shape == values.shape == (rows.size,)
    size = int(np.count_nonzero(rows == cols)) if ok and diagonal else dim
    ids = np.concatenate([rows, cols]) if ok else rows
    if not (ok and ids.dtype.kind == "i" and np.all((0 <= ids) & (ids < size))):
        raise ValueError(f"{what} entries must be integer rows and cols in [0, {size - 1}]")
    if size != dim:
        raise ValueError(f"a {size}-mode {what} does not match the {dim}-mode basis")
    return rows.astype(np.intp), cols.astype(np.intp), values.astype(float)


def _padded(dim: int, rows, cols, values) -> tuple[np.ndarray, np.ndarray]:
    """Per row ``i < dim``: its ``cols`` and ``values``, zero-padded; ``rows`` is sorted."""
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)  # place inside its row
    index = np.zeros((dim, int(slot.max(initial=0)) + 1), dtype=np.intp)
    padded = np.zeros(index.shape)
    index[rows, slot], padded[rows, slot] = cols, values
    return index, padded


def _sparse_product(view: tuple[np.ndarray, np.ndarray], vec) -> np.ndarray:
    """``M @ vec`` from the ``_padded`` view of ``M``; ``vec`` may carry trailing axes."""
    index, values = view
    return np.einsum("rk,rk...->r...", values, np.asarray(vec)[index])


@dataclass(frozen=True)
class OrthogonalTransform:
    """Orthogonal change of basis ``Q`` with named rows grouped into blocks.

    ``entries`` are the nonzeros ``(rows, cols, values)`` of ``Q``, one orthonormal row per
    label (repeated elements add up); no ``dim x dim`` array is ever formed.  A collective
    basis has at most four per row, each ``+-1/2``, ``+-1/sqrt(2)`` or ``1``.  ``labels`` are
    strings; ``groups``, ``(name, rows)`` pairs, partition the rows into the invariant subspaces
    block after block, each a run of consecutive rows (row numbers are only labels).
    """

    entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    labels: tuple[str, ...]
    groups: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", _listed(self.labels, "transform labels", str))
        dim = len(self.labels)
        rows, cols, values = _nonzeros(self.entries, dim, "transform")
        order = np.lexsort((cols, rows))  # row by row, each row by column
        rows, cols, values = rows[order], cols[order], values[order]
        object.__setattr__(self, "entries", (rows, cols, values))
        groups = _listed(self.groups, "groups", (list, tuple))
        if any(len(group) != 2 for group in groups):
            raise ValueError(f"groups must be (name, rows) pairs, got {self.groups!r}")
        ids = [_listed(idx, "group rows") for _, idx in groups]
        sizes = np.array([len(idx) for idx in ids], dtype=np.intp)
        members = [_count(i, "group row", 0, dim - 1) for idx in ids for i in idx]
        if not (dim and sizes.all() and members == list(range(dim))):
            raise ValueError("groups must partition the rows in order into runs of consecutive rows")
        # per row: its group, its place in it, and where its row of the group's block starts
        owner = np.repeat(np.arange(sizes.size), sizes)
        slot = np.arange(dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        ends = np.cumsum(sizes * sizes)  # of each block, with the blocks laid end to end
        base = ends[owner] - sizes[owner] * (sizes[owner] - slot)
        object.__setattr__(self, "_layout", (owner, slot, base, ends.tolist()))
        # the nonzeros of the rows of Q and of Q^T, for every product with a vector
        object.__setattr__(self, "_rows", _padded(dim, rows, cols, values))
        by_col = np.argsort(cols, kind="stable")  # each column in row order
        columns = _padded(dim, cols[by_col], rows[by_col], values[by_col])
        object.__setattr__(self, "_columns", columns)
        # one fixed probe through the nonzeros costs O(dim); a dense Q Q^T would cost O(dim^3)
        probe = np.sin(np.arange(1.0, dim + 1.0))  # no entry vanishes; no numpy.random
        round_trip = self.from_collective(self.to_collective(probe))
        if not np.abs(round_trip - probe).max(initial=0.0) <= 1e-10:
            raise ValueError("transform rows must be orthonormal")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def to_collective(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates of a site-basis vector in the collective basis."""
        return _sparse_product(self._rows, vec)

    def from_collective(self, vec: np.ndarray) -> np.ndarray:
        """Site-basis amplitudes of collective coordinates ``vec``."""
        return _sparse_product(self._columns, vec)


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


def _transform(groups: list[tuple[str, Modes]]) -> OrthogonalTransform:
    """Transform of ``groups``, each ``(name, [(label, {mode: coef}), ...])``.

    Rows are numbered in group order, then mode order inside each group.
    """
    modes = [mode for _, members in groups for mode in members]
    triples = [(r, col, val) for r, (_, coefs) in enumerate(modes) for col, val in coefs.items()]
    entries = tuple(np.array(part) for part in zip(*triples))  # rows, cols, values
    ends = accumulate(len(members) for _, members in groups)
    index = tuple((name, tuple(range(end - len(m), end))) for (name, m), end in zip(groups, ends))
    return OrthogonalTransform(entries, tuple(label for label, _ in modes), index)


def _one_block(dim: int) -> OrthogonalTransform:
    """The ``dim`` modes as their own collective modes, all in one block: the whole matrix."""
    return _transform([("network", [(str(m), {m: 1.0}) for m in range(dim)])])


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
    return _transform(groups)


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
    return _transform(groups)


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
    return _transform(groups)


def block_decompose(h, transform: OrthogonalTransform) -> tuple[list[BlockHamiltonian], float]:
    """The blocks of ``Q H Q^T`` along ``transform.groups``, and the off-block residual.

    ``h`` is the nonzeros ``(rows, cols, values)`` of H, as its builder lists them: an H whose
    diagonal is longer or shorter than the basis raises ``ValueError``.  Element ``(r, s)``
    sums ``Q[r, c] H[c, k] Q[s, k]`` over the entries of H and the rows of Q holding ``c`` and
    ``k``: ``O(nnz)`` terms.  The residual is the largest ``|element|`` outside every block.
    Blocks or terms above ``ARRAY_BUDGET`` elements raise ``ValueError``.
    """
    dim = transform.dim
    rows, cols, values = _nonzeros(h, dim, "hamiltonian", diagonal=True)
    owner, slot, base, ends = transform._layout
    index, coefs = transform._columns  # per mode: the rows of Q that hold it
    if max(ends[-1], rows.size * coefs.shape[1] ** 2) > ARRAY_BUDGET:
        raise ValueError(f"a {dim}-mode block decomposition exceeds the budget of {ARRAY_BUDGET}")
    left, right = coefs[rows], coefs[cols]
    e, i, j = np.nonzero((left != 0.0)[:, :, None] & (right != 0.0)[:, None, :])
    terms = left[e, i] * values[e] * right[e, j]
    r, s = index[rows[e], i], index[cols[e], j]
    inside = owner[r] == owner[s]
    flat = np.bincount(base[r[inside]] + slot[s[inside]], terms[inside], minlength=ends[-1])
    blocks = []
    for (name, idx), end in zip(transform.groups, ends):
        matrix = flat[end - len(idx) ** 2 : end].reshape(len(idx), -1)
        blocks.append(BlockHamiltonian(matrix, tuple(transform.labels[k] for k in idx), name))
    outside = ~inside
    if not outside.any():  # no off-block element to sum, and nothing to sort
        return blocks, 0.0
    _, element = np.unique(r[outside] * dim + s[outside], return_inverse=True)
    return blocks, float(np.abs(np.bincount(element, terms[outside])).max())


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
    # a row of identical cells whose neighbouring cavities hop with kappa; its 4-6 modes are
    # scattered here, at a fraction of the cost of a transform
    sites = tuple(Site(id=cell, label=str(cell)) for cell in range(cells))
    edges = tuple((cell, cell + 1, 1) for cell in range(cells - 1))
    rows, cols, values = build_single_excitation_hamiltonian(
        NetworkSpec(sites, edges, replace(params, j=kappa))
    )
    matrix = np.zeros((2 * cells, 2 * cells))
    matrix[rows, cols] = values
    labels = tuple(f"{tag}{cell}" for cell in range(cells) for tag in ("cav", "atom"))
    return BlockHamiltonian(matrix=matrix, labels=labels, name=which)

