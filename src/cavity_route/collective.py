"""Collective bases and invariant-subspace block decomposition.

The engineered coupling signs make certain symmetric/antisymmetric (chain)
and Hadamard-weighted (switch, lattice) combinations of site modes evolve
independently.  This module builds the orthogonal change of basis explicitly
and verifies that the transformed Hamiltonian is block diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    HADAMARD_SIGNS,
    HexLatticeDescriptor,
    NetworkSpec,
    SystemParams,
    atom_index,
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
    "block_coupling",
    "CHAIN_COUPLING_SCALE",
    "LATTICE_COUPLING_SCALE",
]

#: Cavity-cavity coupling inside a chain block is sqrt(2)*j ...
CHAIN_COUPLING_SCALE = float(np.sqrt(2.0))
#: ... and inside a switch/lattice block it is 2*j (four Hadamard-signed
#: couplings of magnitude j collapse onto one collective mode).
LATTICE_COUPLING_SCALE = 2.0


@dataclass(frozen=True)
class OrthogonalTransform:
    """Orthogonal change of basis with named rows grouped into blocks.

    ``matrix`` has one orthonormal row per collective mode (every row holds
    at most four nonzero entries, each ``+-1/2``, ``+-1/sqrt(2)`` or ``1``);
    ``groups`` partitions the row indices into the invariant subspaces.
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
        if covered != list(range(q.shape[0])):
            raise ValueError("groups must partition all rows exactly once")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_collective(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates of a site-basis vector in the collective basis."""
        return self.matrix @ np.asarray(vec)

    def from_collective(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix.T @ np.asarray(vec)


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


def chain_collective_basis(n: int) -> OrthogonalTransform:
    """Collective basis of the diamond chain with ``n`` units.

    For unit ``k`` the control pair (site labels ``3k-1``, ``3k``) is
    replaced by its symmetric/antisymmetric combinations ``ck+/-`` (cavities)
    and ``ak+/-`` (atoms); vertex sites pass through unchanged.  Rows are
    ordered block by block: the sender block ``(c1, a1, c1+, a1+)``, then one
    6-dim relay block per unit boundary, then the receiver block
    ``(cn-, an-, c{n+1}, a{n+1})``.
    """
    if n < 1:
        raise ValueError(f"chain basis needs n >= 1, got {n}")
    dim = 2 * (3 * n + 1)
    s = 1.0 / np.sqrt(2.0)
    rows: list[np.ndarray] = []
    labels: list[str] = []
    groups: list[tuple[str, tuple[int, ...]]] = []

    def unit_row(index: int) -> np.ndarray:
        row = np.zeros(dim)
        row[index] = 1.0
        return row

    def pair_row(i_first: int, i_second: int, sign: float) -> np.ndarray:
        row = np.zeros(dim)
        row[i_first] = s
        row[i_second] = sign * s
        return row

    def vertex_rows(k: int) -> tuple[np.ndarray, np.ndarray]:
        # vertex site of unit k has 0-based id 3k (label 3k+1)
        site = 3 * k
        return unit_row(cavity_index(site)), unit_row(atom_index(site))

    def control_rows(k: int, sign: float) -> tuple[np.ndarray, np.ndarray]:
        # control pair of unit k: ids 3k-2 and 3k-1 (labels 3k-1 and 3k)
        first, second = 3 * k - 2, 3 * k - 1
        return (
            pair_row(cavity_index(first), cavity_index(second), sign),
            pair_row(atom_index(first), atom_index(second), sign),
        )

    def add_group(name: str, entries: list[tuple[str, np.ndarray]]) -> None:
        start = len(rows)
        for label, row in entries:
            labels.append(label)
            rows.append(row)
        groups.append((name, tuple(range(start, len(rows)))))

    c1, a1 = vertex_rows(0)
    c1p, a1p = control_rows(1, +1.0)
    add_group("block1", [("c1", c1), ("a1", a1), ("c1+", c1p), ("a1+", a1p)])
    for k in range(1, n):
        cm, am = control_rows(k, -1.0)
        cv, av = vertex_rows(k)
        cp, ap = control_rows(k + 1, +1.0)
        add_group(
            f"block{k + 1}",
            [
                (f"c{k}-", cm),
                (f"a{k}-", am),
                (f"c{k + 1}", cv),
                (f"a{k + 1}", av),
                (f"c{k + 1}+", cp),
                (f"a{k + 1}+", ap),
            ],
        )
    cm, am = control_rows(n, -1.0)
    cv, av = vertex_rows(n)
    add_group(
        f"block{n + 1}",
        [(f"c{n}-", cm), (f"a{n}-", am), (f"c{n + 1}", cv), (f"a{n + 1}", av)],
    )
    return OrthogonalTransform(np.array(rows), tuple(labels), tuple(groups))


def switch_collective_basis() -> OrthogonalTransform:
    """Collective basis of the switching vertex built by ``build_switch``.

    The four inner modes (ids 4-7) are replaced by Hadamard-weighted
    combinations ``xi_i = sum_k HADAMARD_SIGNS[i][k] |mu_k> / 2``; the outer
    sites ``nu_i`` (ids 0-3) pass through.  Block ``port i`` holds
    ``(nu_i.c, nu_i.a, xi_i.c, xi_i.a)`` and couples ``nu_i`` to ``xi_i``
    with strength ``2j``.
    """
    dim = 16
    rows: list[np.ndarray] = []
    labels: list[str] = []
    groups: list[tuple[str, tuple[int, ...]]] = []
    for i in range(4):
        start = len(rows)
        for index, tag in ((cavity_index(i), "c"), (atom_index(i), "a")):
            row = np.zeros(dim)
            row[index] = 1.0
            rows.append(row)
            labels.append(f"nu{i}.{tag}")
        for pick, tag in ((cavity_index, "c"), (atom_index, "a")):
            row = np.zeros(dim)
            for k in range(4):
                row[pick(4 + k)] = HADAMARD_SIGNS[i][k] / 2.0
            rows.append(row)
            labels.append(f"xi{i}.{tag}")
        groups.append((f"port{i}", tuple(range(start, len(rows)))))
    return OrthogonalTransform(np.array(rows), tuple(labels), tuple(groups))


def lattice_collective_basis(desc: HexLatticeDescriptor) -> OrthogonalTransform:
    """Collective basis of a lattice: per-vertex Hadamard modes.

    Produces one 4-dim block per vertex port occupied by an upload or
    dangling site and one 6-dim block per link
    ``(xi_a, link, xi_b)``; together they cover every mode exactly once.
    """
    layout = hex_lattice_layout(desc)
    num_sites = len(layout.sites)
    dim = 2 * num_sites
    label_of = {site.id: site.label for site in layout.sites}

    def site_rows(site: int) -> list[tuple[str, np.ndarray]]:
        out = []
        for index, tag in ((cavity_index(site), "c"), (atom_index(site), "a")):
            row = np.zeros(dim)
            row[index] = 1.0
            out.append((f"{label_of[site]}.{tag}", row))
        return out

    def xi_rows(v: str, port: int) -> list[tuple[str, np.ndarray]]:
        out = []
        for pick, tag in ((cavity_index, "c"), (atom_index, "a")):
            row = np.zeros(dim)
            for k in range(4):
                row[pick(layout.inner[v][k])] = HADAMARD_SIGNS[port][k] / 2.0
            out.append((f"xi[{v},{port}].{tag}", row))
        return out

    rows: list[np.ndarray] = []
    labels: list[str] = []
    groups: list[tuple[str, tuple[int, ...]]] = []

    def add_group(name: str, entries: list[tuple[str, np.ndarray]]) -> None:
        start = len(rows)
        for label, row in entries:
            labels.append(label)
            rows.append(row)
        groups.append((name, tuple(range(start, len(rows)))))

    linked = {(a, pa) for a, pa, _, _ in desc.links} | {(b, pb) for _, _, b, pb in desc.links}
    # port-0 blocks (upload or dangling) in vertex order
    for v in desc.vertices:
        occ = layout.occupant[(v, 0)]
        name = f"up[{v}]" if v in desc.uploads else f"p0[{v}]"
        add_group(name, site_rows(occ) + xi_rows(v, 0))
    # 6-dim hop blocks in link order
    for a, pa, b, pb in desc.links:
        occ = layout.occupant[(a, pa)]
        add_group(
            f"hop[{a}{pa}-{b}{pb}]",
            xi_rows(a, pa) + site_rows(occ) + xi_rows(b, pb),
        )
    # dangling planar ports in (vertex, port) order
    for v in desc.vertices:
        for port in (1, 2, 3):
            if (v, port) not in linked:
                occ = layout.occupant[(v, port)]
                add_group(f"p{port}[{v}]", site_rows(occ) + xi_rows(v, port))
    return OrthogonalTransform(np.array(rows), tuple(labels), tuple(groups))


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
    mask = np.zeros_like(hc, dtype=bool)
    for name, idx in transform.groups:
        sel = np.ix_(idx, idx)
        mask[sel] = True
        blocks.append(
            BlockHamiltonian(
                matrix=hc[sel],
                labels=tuple(transform.labels[i] for i in idx),
                name=name,
            )
        )
    residual = float(np.abs(np.where(mask, 0.0, hc)).max())
    return blocks, residual


def _pair_block(params: SystemParams, kappa: float) -> np.ndarray:
    oc, oa, g = params.omega_c, params.omega_a, params.g
    return np.array(
        [
            [oc, g, kappa, 0.0],
            [g, oa, 0.0, 0.0],
            [kappa, 0.0, oc, g],
            [0.0, 0.0, g, oa],
        ]
    )


def _trio_block(params: SystemParams, kappa: float) -> np.ndarray:
    oc, oa, g = params.omega_c, params.omega_a, params.g
    h = np.zeros((6, 6))
    for cell in range(3):
        c, a = 2 * cell, 2 * cell + 1
        h[c, c] = oc
        h[a, a] = oa
        h[c, a] = h[a, c] = g
    h[0, 2] = h[2, 0] = kappa
    h[2, 4] = h[4, 2] = kappa
    return h


#: Block name -> (block builder, coupling scale).
_BLOCKS = {
    "end": (_pair_block, CHAIN_COUPLING_SCALE),
    "mid": (_trio_block, CHAIN_COUPLING_SCALE),
    "upload": (_pair_block, LATTICE_COUPLING_SCALE),
    "hop": (_trio_block, LATTICE_COUPLING_SCALE),
}


def _block_kind(which: str):
    if not (isinstance(which, str) and which in _BLOCKS):
        raise ValueError(f"unknown block name {which!r}; known: {', '.join(_BLOCKS)}")
    return _BLOCKS[which]


def extract_block(spec: NetworkSpec | SystemParams, which: str) -> BlockHamiltonian:
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
    params = spec.params if isinstance(spec, NetworkSpec) else spec
    if not isinstance(params, SystemParams):
        raise ValueError("spec must be a NetworkSpec or SystemParams")
    builder, scale = _block_kind(which)
    matrix = builder(params, scale * params.j)
    cells = matrix.shape[0] // 2
    labels = tuple(f"{tag}{cell}" for cell in range(cells) for tag in ("cav", "atom"))
    return BlockHamiltonian(matrix=matrix, labels=labels, name=which)


def block_coupling(params: NetworkSpec | SystemParams, which: str) -> float:
    """Cavity-cavity coupling inside the block named by ``which``."""
    if isinstance(params, NetworkSpec):
        params = params.params
    return _block_kind(which)[1] * params.j
