"""Collective bases and invariant-subspace block decomposition.

The engineered coupling signs make certain symmetric/antisymmetric (chain)
and Hadamard-weighted (switch, lattice) combinations of site modes evolve
independently.  This module builds the orthogonal change of basis from its
nonzeros and sums the blocks of the transformed Hamiltonian, and the
off-block residual, from the nonzeros of both, with no ``dim x dim`` array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .network import (
    ARRAY_BUDGET,
    HADAMARD_SIGNS,
    HexLatticeDescriptor,
    NetworkSpec,
    Site,
    SystemParams,
    _count,
    _link_slots,
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
    counts = np.bincount(rows, minlength=dim)
    width = int(counts.max(initial=1))
    at = rows * width + np.arange(rows.size) - (counts.cumsum() - counts)[rows]  # row, place in it
    index, padded = np.zeros(dim * width, dtype=np.intp), np.zeros(dim * width)
    index[at], padded[at] = cols, values
    return index.reshape(dim, width), padded.reshape(dim, width)


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
        order = (rows * dim + cols).argsort(kind="stable")  # row by row, each row by column
        rows, cols, values = rows[order], cols[order], values[order]
        object.__setattr__(self, "entries", (rows, cols, values))
        groups = _listed(self.groups, "groups", (list, tuple))
        if set(map(len, groups)) - {2}:
            raise ValueError(f"groups must be (name, rows) pairs, got {self.groups!r}")
        ids = list(map(itemgetter(1), groups))
        # int rows are checked at once; others, or a failed check, row by row for the message
        members = list(chain.from_iterable(ids)) if set(map(type, ids)) <= {list, tuple} else ()
        partition = set(map(type, members)) <= {int} and members == list(range(dim))
        if not partition:
            ids = [_listed(idx, "group rows") for idx in ids]
            members = [_count(i, "group row", 0, dim - 1) for idx in ids for i in idx]
            partition = members == list(range(dim))
        sizes = np.fromiter(map(len, ids), np.intp, len(ids))
        if not (dim and sizes.all() and partition):
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


#: Weights of a vertex's pair ``xi_p`` over its inner sites (row p), and of an outer site's pair.
_HADAMARD, _OUTER = np.array(HADAMARD_SIGNS) / 2.0, np.array([1.0, 0.0, 0.0, 0.0])

#: Rows and cols of the chain basis's nonzeros in the rows ``c1+, a1+, c1-, a1-, c2, a2`` of
#: unit 1, and their values; unit k + 1 repeats them 6k rows and cols further on.
_CHAIN_AT = np.array([[2, 2, 3, 3, 4, 4, 5, 5, 6, 7], [2, 4, 3, 5, 2, 4, 3, 5, 6, 7]])
_CHAIN_VALUES = np.array([1, 1, 1, 1, 1, -1, 1, -1, np.sqrt(2.0), np.sqrt(2.0)]) / np.sqrt(2.0)
_CHAIN_TAGS = (("c", ""), ("a", ""), ("c", "+"), ("a", "+"), ("c", "-"), ("a", "-"))


def _vertex_modes(slots, xi, inner, occupant) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros of pairs ``u`` (cavity row ``2u``, atom row ``2u + 1``) at ``slots[u] = 4v + p``:
    ``xi_p`` over sites ``inner[v] + (0..3)`` if ``xi[u]``, else site ``occupant[slots[u]]``."""
    vertex, port = np.divmod(slots, 4)
    sites = np.where(xi[:, None], inner[vertex][:, None] + np.arange(4), occupant[slots][:, None])
    weights = np.where(xi[:, None], _HADAMARD[port], _OUTER)
    pair, k = weights.nonzero()
    rows, site, values = 2 * pair, sites[pair, k], weights[pair, k]
    cols = np.concatenate([cavity_index(site), atom_index(site)])
    return np.concatenate([rows, rows + 1]), cols, np.concatenate([values, values])


def _transform(entries, labels, names, runs) -> OrthogonalTransform:
    """Transform of ``entries`` and row ``labels``, whose rows make the blocks ``names`` in
    order: ``runs`` of ``(size, count)`` give ``count`` blocks of ``size`` rows each."""
    rows, index = iter(range(len(labels))), []
    for size, count in runs:
        index += zip(*[islice(rows, size * count)] * size)  # count tuples of size rows each
    return OrthogonalTransform(entries, tuple(labels), tuple(zip(names, index)))


def _one_block(dim: int) -> OrthogonalTransform:
    """The ``dim`` modes as their own collective modes, all in one block: the whole matrix."""
    entries = (np.arange(dim), np.arange(dim), np.ones(dim))
    return _transform(entries, list(map(str, range(dim))), ["network"], [(dim, 1)])


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
    offset = 6 * np.arange(n)[:, None]  # of unit k + 1's rows and cols from unit 1's
    rows, cols = (np.concatenate([[0, 1], (offset + at).ravel()]) for at in _CHAIN_AT)
    values = np.concatenate([[1.0, 1.0], np.tile(_CHAIN_VALUES, n)])
    units = "|".join(map(str, range(1, n + 2)))
    # per vertex k, the labels c{k}, a{k}, c{k}+, a{k}+, c{k}-, a{k}-; the last has no pair
    tagged = [(t + units.replace("|", f"{end}|{t}") + end).split("|") for t, end in _CHAIN_TAGS]
    labels = tuple(islice(chain.from_iterable(zip(*tagged)), 6 * n + 2))
    names = ("block" + units.replace("|", "|block")).split("|")
    return _transform((rows, cols, values), labels, names, [(4, 1), (6, n - 1), (4, 1)])


def switch_collective_basis() -> OrthogonalTransform:
    """Collective basis of the switching vertex built by ``build_switch``.

    The four inner modes (ids 4-7) are replaced by Hadamard-weighted
    combinations ``xi_i = sum_k HADAMARD_SIGNS[i][k] |mu_k> / 2``; the outer
    sites ``nu_i`` (ids 0-3) pass through.  Block ``port i`` holds
    ``(nu_i.c, nu_i.a, xi_i.c, xi_i.a)`` and couples ``nu_i`` to ``xi_i``
    with strength ``2j``.
    """
    ports = np.arange(4)
    entries = _vertex_modes(ports.repeat(2), np.array([False, True] * 4), np.array([4]), ports)
    labels = [f"{name}{i}.{tag}" for i in range(4) for name in ("nu", "xi") for tag in "ca"]
    return _transform(entries, labels, [f"port{i}" for i in range(4)], [(4, 4)])


def lattice_collective_basis(desc: HexLatticeDescriptor) -> OrthogonalTransform:
    """Collective basis of a lattice: per-vertex Hadamard modes.

    Produces one 4-dim block per vertex port occupied by an upload or
    dangling site and one 6-dim block per link
    ``(xi_a, link, xi_b)``; together they cover every mode exactly once.
    """
    layout = hex_lattice_layout(desc)
    vertices, links, size = desc.vertices, desc.links, 4 * len(desc.vertices)
    ends = _link_slots(desc)
    free = np.ones(size, dtype=bool)
    free[ends] = free[::4] = False
    free = free.nonzero()[0]  # the dangling planar ports, in (vertex, port) order
    # (site, xi) per port-0 block in vertex order, (xi_a, link, xi_b) per hop block in link
    # order, then (site, xi) per dangling planar port
    first = np.arange(0, size, 4)  # the port-0 slot and the first inner site of each vertex
    slots = np.concatenate([first.repeat(2), ends[:, [0, 0, 1]].ravel(), free.repeat(2)])
    xi = np.array([0, 1] * len(vertices) + [1, 0, 1] * len(links) + [0, 1] * free.size, dtype=bool)
    outer = [layout.sites[site].label for site in layout.occupant.values()]
    pairs = zip(slots.tolist(), xi.tolist())
    heads = [f"xi[{vertices[s // 4]},{s % 4}]" if x else outer[s] for s, x in pairs]
    labels = [f"{head}.{tag}" for head in heads for tag in "ca"]
    names = [f"up[{v}]" if v in desc.uploads else f"p0[{v}]" for v in vertices]
    names += ["hop[{}{}-{}{}]".format(*link) for link in links]
    names += [f"p{slot % 4}[{vertices[slot // 4]}]" for slot in free.tolist()]
    runs = [(4, len(vertices)), (6, len(links)), (4, free.size)]
    occupant = np.fromiter(layout.occupant.values(), np.intp, size)  # in slot order
    return _transform(_vertex_modes(slots, xi, first, occupant), labels, names, runs)


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
        blocks.append(BlockHamiltonian(matrix, transform.labels[idx[0] : idx[0] + len(idx)], name))
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

