"""The array-template builders against the per-row builders they replaced.

Each reference below is the earlier code under its old name, its body kept verbatim: one dict
per collective row, one ``Site`` per site, and one ``_count`` per edge and group row.  The
library's builders are reached through their modules, so no name is shadowed.
"""

from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lattices
from cavity_route import collective, network
from cavity_route.collective import OrthogonalTransform
from cavity_route.network import (
    HADAMARD_SIGNS,
    HexLatticeDescriptor,
    HexLayout,
    NetworkSpec,
    Site,
    SystemParams,
    _count,
    atom_index,
    cavity_index,
)

SETTINGS = settings(derandomize=True, database=None, deadline=None)

# --- the per-row builders, verbatim ------------------------------------------------------

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
    inner = (4, 5, 6, 7)
    groups = [
        (f"port{i}", _modes(f"nu{i}.{{}}", {i: 1.0}) + _hadamard_modes(f"xi{i}.{{}}", inner, i))
        for i in range(4)
    ]
    return _transform(groups)


def lattice_collective_basis(desc: HexLatticeDescriptor) -> OrthogonalTransform:
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


def build_diamond_chain(n: int, params: SystemParams | None = None) -> NetworkSpec:
    n = _count(n, "chain units n", 1)
    params = params or SystemParams()
    num_sites = 3 * n + 1
    vertex_labels = {3 * k + 1 for k in range(n + 1)}  # 1, 4, 7, ..., 3n+1
    sites = tuple(
        Site(
            id=i,
            label=str(i + 1),
            role="vertex" if (i + 1) in vertex_labels else "control",
        )
        for i in range(num_sites)
    )
    edges: list[tuple[int, int, int]] = []
    for k in range(n):
        left = 3 * k          # vertex, label 3k+1
        up = 3 * k + 1        # control, label 3k+2
        down = 3 * k + 2      # control, label 3k+3
        right = 3 * k + 3     # vertex, label 3k+4
        edges.append((left, up, 1))
        edges.append((left, down, 1))
        edges.append((up, right, 1))
        edges.append((down, right, -1))
    return NetworkSpec(sites=sites, edges=tuple(edges), params=params)


def hex_lattice_layout(desc: HexLatticeDescriptor) -> HexLayout:
    if "_layout" in vars(desc):
        return desc._layout
    sites: list[Site] = []

    def new_site(label: str, role: str) -> int:
        sites.append(Site(id=len(sites), label=label, role=role))
        return sites[-1].id

    inner = {v: tuple(new_site(f"{v}.mu{i}", "control") for i in range(4)) for v in desc.vertices}
    link_of = {end: link for link in desc.links for end in (link[:2], link[2:])}
    occupant: dict[tuple[str, int], int] = {}
    for v in desc.vertices:
        for port in range(4):
            key, link = (v, port), link_of.get((v, port))
            if link is not None:
                far = link[2:] if link[:2] == key else link[:2]
                if far in occupant:
                    occupant[key] = occupant[far]
                    continue
                label, role = "{}{}-{}{}".format(*link), "port"
            elif port == 0 and v in desc.uploads:
                label, role = f"{v}.up", "upload"
            else:
                label, role = f"{v}.p{port}", "port"
            occupant[key] = new_site(label, role)
    edges = tuple(
        (inner[v][i], occupant[(v, port)], HADAMARD_SIGNS[i][port])
        for v in desc.vertices
        for i in range(4)
        for port in range(4)
    )
    layout = HexLayout(inner=inner, occupant=occupant, sites=tuple(sites), edges=edges)
    object.__setattr__(desc, "_layout", layout)  # on the frozen descriptor, not a field
    return layout


def spec_edges(sites, edges):
    """``NetworkSpec.__post_init__``'s check of ``sites`` and ``edges``, one edge at a time."""
    for pos, site in enumerate(sites):
        if site.id != pos:
            raise ValueError(
                f"site ids must be consecutive from 0; position {pos} has id {site.id}"
            )
    last, checked = len(sites) - 1, []
    seen: set[tuple[int, int]] = set()
    for edge in network._listed(edges, "edges", (list, tuple)):
        if len(edge) != 3:
            raise ValueError(f"edge must be (k, l, sign), got {edge!r}")
        k, l, sign = edge
        k, l = _count(k, "edge site", 0, last), _count(l, "edge site", 0, last)
        sign = _count(sign, "edge sign", -1, 1)
        if k == l:
            raise ValueError(f"edge {edge!r} is a self-loop")
        if sign == 0:
            raise ValueError(f"edge sign must be +1 or -1, got {sign!r}")
        pair = (min(k, l), max(k, l))
        if pair in seen:
            raise ValueError(f"duplicate edge for site pair {pair}")
        seen.add(pair)
        checked.append((k, l, sign))
    return tuple(checked)


def transform_groups(groups, dim):
    """``OrthogonalTransform.__post_init__``'s check of ``groups``, one row at a time."""
    groups = network._listed(groups, "groups", (list, tuple))
    if any(len(group) != 2 for group in groups):
        raise ValueError(f"groups must be (name, rows) pairs, got {groups!r}")
    ids = [network._listed(idx, "group rows") for _, idx in groups]
    sizes = np.array([len(idx) for idx in ids], dtype=np.intp)
    members = [_count(i, "group row", 0, dim - 1) for idx in ids for i in idx]
    if not (dim and sizes.all() and members == list(range(dim))):
        raise ValueError("groups must partition the rows in order into runs of consecutive rows")


# --- the properties ----------------------------------------------------------------------


def assert_same_transform(new, old):
    for part, reference in zip(new.entries, old.entries):
        assert part.dtype == reference.dtype and part.tobytes() == reference.tobytes()
    assert new.labels == old.labels and new.groups == old.groups


def assert_same_spec(new, old):
    assert [(s.id, s.label, s.role) for s in new.sites] == [
        (s.id, s.label, s.role) for s in old.sites
    ]
    assert all(type(s) is Site for s in new.sites) and new.sites == old.sites
    assert new.edges == old.edges and new.params == old.params


@example(1)
@example(2)
@example(3)
@example(30)
@example(100)
@example(1000)
@given(st.integers(1, 1000))
@settings(SETTINGS, max_examples=40)
def test_chain_matches_the_per_row_builders(n):
    assert_same_transform(collective.chain_collective_basis(n), chain_collective_basis(n))
    assert_same_spec(network.build_diamond_chain(n), build_diamond_chain(n))


def test_switch_basis_matches_the_per_row_builder():
    assert_same_transform(collective.switch_collective_basis(), switch_collective_basis())


@given(st.integers(1, 300))
@settings(SETTINGS, max_examples=40)
def test_one_block_matches_the_per_row_builder(dim):
    assert_same_transform(collective._one_block(dim), _one_block(dim))


# a link first met at its second-listed end, and two links joining one vertex pair
@example(HexLatticeDescriptor(("a", "b"), (("b", 2, "a", 1), ("a", 3, "b", 3)), ("a",)))
@example(HexLatticeDescriptor(("{x}", "[y]"), (("[y]", 1, "{x}", 3),), ("[y]",)))
@given(lattices())
@settings(SETTINGS, max_examples=300)
def test_lattice_matches_the_per_row_builders(desc):
    old = replace(desc)  # its own object, so each layout is kept on its own descriptor
    assert_same_transform(collective.lattice_collective_basis(desc), lattice_collective_basis(old))
    layout = hex_lattice_layout(old)
    spec = network.build_hex_lattice(desc)
    assert_same_spec(spec, NetworkSpec(sites=layout.sites, edges=layout.edges))


def outcome(call):
    """What ``call`` returns, or the message of the ``ValueError`` it raises."""
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


#: Edge entries: mostly small integers, some bools, floats, numpy and huge integers
ENTRIES = st.integers(-2, 4) | st.integers(-1, 2) | st.sampled_from(
    [True, False, 1.0, np.int64(1), np.int64(-1), np.int32(3), 2**70]
)
EDGES = st.lists(
    st.tuples(ENTRIES, ENTRIES, ENTRIES) | st.lists(ENTRIES, min_size=2, max_size=4).map(tuple),
    max_size=8,
)


@example(2, [(0, 1, 1), (-1, 1, 1)])
@example(3, [(0, 1, 1), (1, 2, 2)])
@example(2, [(0, 1, 1), (1, 0, -1), (1, 1, 1)])
@example(3, [(0, 1, 1), (1, 2, 0), (2, 2, 1), (0, 5, 1)])
@example(2, [(0, True, 1)])
@given(st.integers(1, 4), EDGES)
@settings(SETTINGS, max_examples=500)
def test_edges_are_checked_as_edge_by_edge(num_sites, edges):
    sites = tuple(Site(i, str(i)) for i in range(num_sites))
    new = outcome(lambda: NetworkSpec(sites, edges).edges)
    assert new == outcome(lambda: spec_edges(sites, edges))
    if not isinstance(new, str):
        assert all(type(x) is int for edge in new for x in edge)


ROWS = st.one_of(st.integers(-1, 5), st.sampled_from([True, 1.0, np.int64(2)]))
GROUPS = st.lists(
    st.tuples(st.just("g"), st.one_of(st.lists(ROWS, max_size=4), st.just(np.arange(2)))),
    max_size=4,
)


@example(4, [("g", [0, 1]), ("h", [2, 3])])
@example(2, [("g", [0, True])])
@given(st.integers(1, 5), GROUPS)
@settings(SETTINGS, max_examples=500)
def test_group_rows_are_checked_as_row_by_row(dim, groups):
    eye = (np.arange(dim), np.arange(dim), np.ones(dim))
    labels = tuple(map(str, range(dim)))
    new = outcome(lambda: OrthogonalTransform(eye, labels, tuple(groups)).groups)
    assert new == outcome(lambda: transform_groups(tuple(groups), dim) or tuple(groups))


@pytest.mark.parametrize("n", [1, 2, 8])
def test_sites_are_plain_sites(n):
    # sites made without Site.__init__ compare, hash and print as the checked ones do
    site, checked = network.build_diamond_chain(n).sites[-1], Site(3 * n, str(3 * n + 1), "vertex")
    assert site == checked and hash(site) == hash(checked) and repr(site) == repr(checked)
