import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brick_wall, dense_hamiltonian
from cavity_route import (
    DISPERSIVE,
    RESONANT,
    HexLatticeDescriptor,
    NetworkSpec,
    OrthogonalTransform,
    Site,
    SystemParams,
    block_decompose,
    build_diamond_chain,
    build_hex_lattice,
    build_single_excitation_hamiltonian,
    build_switch,
    chain_collective_basis,
    extract_block,
    lattice_collective_basis,
    run_schedule,
    switch_collective_basis,
)
from cavity_route.collective import _one_block
from cavity_route.evolution import ExcitationState, eigendecompose, propagate
from cavity_route.routing import Evolve, Schedule

TWO_VERTEX = HexLatticeDescriptor(
    vertices=("a", "b"), links=(("a", 1, "b", 1),), uploads=("a", "b")
)


def _decompose(spec, transform):
    return block_decompose(build_single_excitation_hamiltonian(spec), transform)


def _nonzeros(m):
    """The nonzeros ``(rows, cols, values)`` of a dense matrix."""
    rows, cols = np.nonzero(m)
    return rows, cols, m[rows, cols]


def _dense(t):
    """The dense ``Q`` of ``t``, scatter-added from ``t.entries`` (no product under test)."""
    rows, cols, values = t.entries
    q = np.zeros((t.dim, t.dim))
    np.add.at(q, (rows, cols), values)
    return q


EYE2 = _nonzeros(np.eye(2))


class TestOrthogonalTransform:
    def test_rows_must_be_orthonormal(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            OrthogonalTransform(_nonzeros(m), labels=("x", "y"), groups=(("g", (0, 1)),))

    def test_groups_must_partition_rows(self):
        with pytest.raises(ValueError):
            OrthogonalTransform(EYE2, labels=("x", "y"), groups=(("g", (0,)),))

    def test_empty_group_is_refused(self):
        groups = (("g", (0, 1)), ("empty", ()))
        with pytest.raises(ValueError, match="partition"):
            OrthogonalTransform(EYE2, labels=("x", "y"), groups=groups)

    @pytest.mark.parametrize(
        "groups",
        [
            (("b", (2, 3)), ("a", (0, 1))),
            (("a", (1, 0)), ("b", (2, 3))),
            (("a", (0, 2)), ("b", (1, 3))),
            (("a", (0, 1, 2, 3)), ("b", ())),
        ],
        ids=["runs-out-of-order", "rows-out-of-order", "rows-not-consecutive", "empty-run"],
    )
    def test_groups_must_be_runs_of_consecutive_rows_in_order(self, groups):
        message = "^groups must partition the rows in order into runs of consecutive rows$"
        with pytest.raises(ValueError, match=message):
            OrthogonalTransform(_nonzeros(np.eye(4)), tuple("wxyz"), groups)

    def test_entries_and_the_dense_matrix_give_one_transform(self):
        dense = chain_collective_basis(3)
        rows, cols, values = dense.entries
        assert rows.size == 2 * 4 + 4 * 3 * 2  # vertex modes hold one entry, +/- modes two
        from_dense = OrthogonalTransform(_nonzeros(_dense(dense)), dense.labels, dense.groups)
        assert all(np.array_equal(a, b) for a, b in zip(from_dense.entries, dense.entries))
        shuffled = np.random.default_rng(5).permutation(rows.size)
        again = OrthogonalTransform(
            (rows[shuffled], cols[shuffled], values[shuffled]), dense.labels, dense.groups
        )
        assert all(np.array_equal(a, b) for a, b in zip(again.entries, dense.entries))

    @pytest.mark.parametrize(
        "entries",
        [
            (np.array([0.0, 1.0]), np.array([0, 1]), np.ones(2)),  # float rows
            (np.array([0, 2]), np.array([0, 1]), np.ones(2)),  # row outside the two modes
            (np.array([0, 1]), np.array([0, -1]), np.ones(2)),  # negative column
            (np.array([0, 1]), np.array([0, 1]), np.ones(3)),  # one value too many
            (np.array([[0, 1]]), np.array([[0, 1]]), np.ones((1, 2))),  # not 1-d
        ],
    )
    def test_malformed_entries_are_refused(self, entries):
        with pytest.raises(ValueError, match="entries must be integer rows and cols in"):
            OrthogonalTransform(entries, ("x", "y"), (("g", (0, 1)),))
        with pytest.raises(ValueError, match="entries must be integer rows and cols in"):
            block_decompose(entries, OrthogonalTransform(EYE2, ("x", "y"), (("g", (0, 1)),)))

    @pytest.mark.parametrize("dense", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]], EYE2[:2]])
    def test_only_the_nonzeros_are_read(self, dense):
        # a dense matrix, or a pair, is not the nonzeros (rows, cols, values)
        message = r"entries must be \(rows, cols, values\), not (ndarray|list|tuple)$"
        with pytest.raises(ValueError, match=f"^transform {message}"):
            OrthogonalTransform(dense, ("x", "y"), (("g", (0, 1)),))
        with pytest.raises(ValueError, match=f"^hamiltonian {message}"):
            block_decompose(dense, OrthogonalTransform(EYE2, ("x", "y"), (("g", (0, 1)),)))

    def test_round_trip(self):
        t = chain_collective_basis(2)
        v = np.arange(t.dim, dtype=float)
        assert np.allclose(t.from_collective(t.to_collective(v)), v, atol=1e-14)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: chain_collective_basis(4),
            switch_collective_basis,
            lambda: lattice_collective_basis(TWO_VERTEX),
            lambda: OrthogonalTransform(
                _nonzeros(np.eye(3)[::-1]), ("x", "y", "z"), (("g", (0, 1, 2)),)
            ),
        ],
    )
    def test_products_use_the_nonzeros_of_the_matrix(self, make):
        t = make()
        rng = np.random.default_rng(3)
        vec = rng.normal(size=t.dim) + 1j * rng.normal(size=t.dim)
        samples = rng.normal(size=(t.dim, 5))
        q = _dense(t)
        assert np.abs(t.to_collective(vec) - q @ vec).max() <= 1e-15
        assert np.abs(t.from_collective(vec) - q.T @ vec).max() <= 1e-15
        assert np.abs(t.to_collective(samples) - q @ samples).max() <= 1e-15


class TestChainBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_orthogonality(self, n):
        t = chain_collective_basis(n)
        assert t.dim == 2 * (3 * n + 1)
        q = _dense(t)
        assert np.allclose(q @ q.T, np.eye(t.dim), atol=1e-14)

    def test_a_thousand_units_decompose_from_the_nonzeros(self):
        # 6002 modes: a dense 6002 x 6002 Q or H would hold more than 2**24 elements
        t = chain_collective_basis(1000)
        assert t.entries[0].size == 2 * 1001 + 8 * 1000
        h = build_single_excitation_hamiltonian(build_diamond_chain(1000))
        blocks, residual = block_decompose(h, t)
        assert [b.dim for b in blocks] == [4] + [6] * 999 + [4]
        assert residual == 0.0
        assert np.array_equal(blocks[500].matrix, blocks[1].matrix)

    def test_block_sizes_n2(self):
        blocks, residual = _decompose(build_diamond_chain(2), chain_collective_basis(2))
        assert [b.dim for b in blocks] == [4, 6, 4]
        assert residual <= 1e-12

    def test_block_names_in_chain_order(self):
        blocks, _ = _decompose(build_diamond_chain(3), chain_collective_basis(3))
        assert [b.name for b in blocks] == ["block1", "block2", "block3", "block4"]
        assert [b.dim for b in blocks] == [4, 6, 6, 4]

    @pytest.mark.parametrize("params", [RESONANT, DISPERSIVE])
    def test_first_block_matches_template(self, params):
        blocks, _ = _decompose(build_diamond_chain(2, params), chain_collective_basis(2))
        assert np.allclose(blocks[0].matrix, extract_block(params, "end").matrix, atol=1e-12)
        assert np.allclose(blocks[1].matrix, extract_block(params, "mid").matrix, atol=1e-12)
        assert np.allclose(blocks[2].matrix, extract_block(params, "end").matrix, atol=1e-12)

    def test_collective_labels_single_unit(self):
        t = chain_collective_basis(1)
        assert t.labels[:4] == ("c1", "a1", "c1+", "a1+")
        assert t.labels[4:] == ("c1-", "a1-", "c2", "a2")


class TestSwitchBasis:
    def test_four_port_blocks(self):
        blocks, residual = _decompose(build_switch(), switch_collective_basis())
        assert [b.dim for b in blocks] == [4, 4, 4, 4]
        assert [b.name for b in blocks] == ["port0", "port1", "port2", "port3"]
        assert residual <= 1e-12

    def test_blocks_all_identical_and_match_template(self):
        blocks, _ = _decompose(build_switch(), switch_collective_basis())
        template = extract_block(RESONANT, "upload").matrix
        for b in blocks:
            assert np.allclose(b.matrix, template, atol=1e-12)


class TestLatticeBasis:
    def test_two_vertex_block_sizes(self):
        spec = build_hex_lattice(TWO_VERTEX, RESONANT)
        blocks, residual = _decompose(spec, lattice_collective_basis(TWO_VERTEX))
        assert sorted(b.dim for b in blocks) == [4, 4, 4, 4, 4, 4, 6]
        assert residual <= 1e-12

    def test_upload_and_hop_blocks_match_templates(self):
        spec = build_hex_lattice(TWO_VERTEX, DISPERSIVE)
        blocks, _ = _decompose(spec, lattice_collective_basis(TWO_VERTEX))
        by_name = {b.name: b for b in blocks}
        assert np.allclose(
            by_name["up[a]"].matrix, extract_block(DISPERSIVE, "upload").matrix, atol=1e-12
        )
        assert np.allclose(
            by_name["hop[a1-b1]"].matrix, extract_block(DISPERSIVE, "hop").matrix, atol=1e-12
        )

    def test_dangling_slots_give_port_blocks(self):
        blocks, _ = _decompose(
            build_hex_lattice(TWO_VERTEX, RESONANT), lattice_collective_basis(TWO_VERTEX)
        )
        names = [b.name for b in blocks]
        for name in ("p2[a]", "p3[a]", "p2[b]", "p3[b]"):
            assert name in names


class TestExtractBlock:
    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            extract_block(RESONANT, "sideways")

    def test_aliases(self):
        # only the four block names are accepted; former aliases are unknown
        for alias in ("first", "last", "middle", "interior", "port", "port2", "link", "END"):
            with pytest.raises(ValueError, match="unknown block name"):
                extract_block(RESONANT, alias)

    def test_pair_block_layout(self):
        params = SystemParams(omega_c=2.0, delta=0.5, g=3.0, j=1.25)
        kappa = np.sqrt(2.0) * params.j
        m = extract_block(params, "end").matrix
        expected = np.array(
            [
                [params.omega_c, params.g, kappa, 0.0],
                [params.g, params.omega_a, 0.0, 0.0],
                [kappa, 0.0, params.omega_c, params.g],
                [0.0, 0.0, params.g, params.omega_a],
            ]
        )
        assert np.allclose(m, expected, atol=1e-15)

    def test_trio_block_layout(self):
        params = SystemParams(omega_c=1.0, delta=-2.0, g=4.0, j=0.75)
        kappa = 2.0 * params.j
        m = extract_block(params, "hop").matrix
        assert m.shape == (6, 6)
        assert m[0, 2] == m[2, 4] == kappa
        assert m[0, 4] == 0.0  # end cavities only talk through the middle
        for cell in range(3):
            assert m[2 * cell, 2 * cell + 1] == params.g
            assert m[2 * cell + 1, 2 * cell + 1] == params.omega_a

    def test_couplings(self):
        # matrix[0, 2] is the coupling of the first two cavities
        assert extract_block(RESONANT, "end").matrix[0, 2] == pytest.approx(np.sqrt(2.0))
        assert extract_block(RESONANT, "mid").matrix[0, 2] == pytest.approx(np.sqrt(2.0))
        assert extract_block(RESONANT, "upload").matrix[0, 2] == 2.0
        assert extract_block(RESONANT, "hop").matrix[0, 2] == 2.0


class TestResiduals:
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("params", [RESONANT, DISPERSIVE])
    def test_chain_residual(self, n, params):
        _, residual = _decompose(build_diamond_chain(n, params), chain_collective_basis(n))
        assert residual <= 1e-12

    def test_broken_sign_shows_in_the_residual(self):
        # unit 1's one -j edge (control 3 to vertex 4, ids 2 -> 3) flipped to +j: the
        # antisymmetric control pair now couples to vertex 4 with sqrt(2) j
        spec = build_diamond_chain(3, RESONANT)
        edges = tuple((k, l, 1) if (k, l) == (2, 3) else (k, l, s) for k, l, s in spec.edges)
        assert edges != spec.edges
        broken = dataclasses.replace(spec, edges=edges)
        _, residual = _decompose(broken, chain_collective_basis(3))
        assert round(residual, 11) == 1.41421356237
        assert residual == pytest.approx(np.sqrt(2.0) * RESONANT.j, rel=1e-12)

    def test_decompose_rejects_dim_mismatch(self):
        h = build_single_excitation_hamiltonian(build_diamond_chain(3))
        with pytest.raises(ValueError, match="^a 20-mode hamiltonian does not match the 14-mode"):
            block_decompose(h, chain_collective_basis(2))

    def test_decompose_rejects_a_smaller_hamiltonian(self):
        # rows and cols all lie inside the basis: only the diagonal tells the sizes apart
        h = build_single_excitation_hamiltonian(build_diamond_chain(2))
        with pytest.raises(ValueError, match="^a 14-mode hamiltonian does not match the 20-mode"):
            block_decompose(h, chain_collective_basis(3))


@st.composite
def lattice_descriptors(draw):
    """Valid descriptors: 1-4 vertices, links on free planar ports, any uploads."""
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    free = [(v, port) for v in vertices for port in (1, 2, 3)]
    links = []
    for _ in range(draw(st.integers(0, 5))):
        a = draw(st.sampled_from(free))
        others = [end for end in free if end[0] != a[0]]
        if not others:
            break
        b = draw(st.sampled_from(others))
        free = [end for end in free if end not in (a, b)]
        links.append((*a, *b))
    uploads = draw(st.lists(st.sampled_from(vertices), unique=True))
    return HexLatticeDescriptor(tuple(vertices), tuple(links), tuple(uploads))


@st.composite
def networks_with_bases(draw):
    params = SystemParams(
        omega_c=draw(st.floats(-10.0, 10.0)),
        delta=draw(st.floats(-1000.0, 1000.0)),
        g=draw(st.floats(0.1, 100.0)),
        j=draw(st.floats(0.1, 10.0)),
    )
    kind = draw(st.sampled_from(["chain", "switch", "lattice"]))
    if kind == "chain":
        n = draw(st.integers(1, 12))
        return build_diamond_chain(n, params), chain_collective_basis(n)
    if kind == "switch":
        return build_switch(params), switch_collective_basis()
    desc = draw(lattice_descriptors())
    return build_hex_lattice(desc, params), lattice_collective_basis(desc)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=networks_with_bases())
def test_every_basis_is_orthonormal_and_splits_into_blocks(case):
    spec, t = case
    q = _dense(t)
    assert np.allclose(q @ q.T, np.eye(t.dim), rtol=0.0, atol=1e-14)
    assert sorted(i for _, idx in t.groups for i in idx) == list(range(t.dim))
    assert len(t.labels) == t.dim
    _, residual = _decompose(spec, t)
    assert residual <= 1e-12


@st.composite
def system_params(draw):
    """Both regimes at the reference couplings, or anything in a wide range."""
    if draw(st.booleans()):
        return SystemParams(delta=draw(st.sampled_from([0.0, -1000.0])))
    return SystemParams(
        omega_c=draw(st.floats(-1e3, 1e6)),
        delta=draw(st.floats(-1e4, 1e4)),
        g=draw(st.floats(0.01, 1e3)),
        j=draw(st.floats(0.01, 10.0)),
    )


@st.composite
def chains_and_brick_walls(draw):
    params = draw(system_params())
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        return build_diamond_chain(n, params), chain_collective_basis(n), "chain"
    vertices, links = brick_wall(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    uploads = draw(st.lists(st.sampled_from(vertices), unique=True))
    desc = HexLatticeDescriptor(vertices, links, uploads)
    return build_hex_lattice(desc, params), lattice_collective_basis(desc), "lattice"


def _dense_decompose(h, t):
    """The blocks and the off-block residual of the dense product ``Q H Q^T``."""
    q = _dense(t)
    hc = q @ h @ q.T
    owner = np.empty(t.dim, dtype=int)
    for group, (_, idx) in enumerate(t.groups):
        owner[list(idx)] = group
    blocks = [hc[np.ix_(idx, idx)] for _, idx in t.groups]
    return blocks, float(np.abs(hc[owner[:, None] != owner]).max(initial=0.0))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=chains_and_brick_walls(), flip=st.integers(0, 10**6))
def test_sparse_blocks_agree_with_the_dense_product(case, flip):
    spec, t, kind = case
    h = dense_hamiltonian(spec)
    tolerance = 1e-12 * max(1.0, float(np.abs(h).max()))
    dense_blocks, dense_residual = _dense_decompose(h, t)
    blocks, residual = block_decompose(build_single_excitation_hamiltonian(spec), t)
    assert [(b.name, b.labels) for b in blocks] == [
        (name, tuple(t.labels[k] for k in idx)) for name, idx in t.groups
    ]
    for block, dense in zip(blocks, dense_blocks):
        assert np.abs(block.matrix - dense).max() <= tolerance
    assert abs(residual - dense_residual) <= tolerance
    if spec.edges:  # one flipped sign breaks the invariant subspaces on both paths
        k, l, sign = spec.edges[flip % len(spec.edges)]
        edges = tuple((a, b, -s if (a, b) == (k, l) else s) for a, b, s in spec.edges)
        broken = dataclasses.replace(spec, edges=edges)
        _, residual = block_decompose(build_single_excitation_hamiltonian(broken), t)
        _, dense_residual = _dense_decompose(dense_hamiltonian(broken), t)
        assert residual > 0.1 * spec.params.j
        assert abs(residual - dense_residual) <= tolerance
        if kind == "chain":  # a control pair and a vertex meet with sqrt(2) j across blocks
            assert residual == pytest.approx(math.sqrt(2.0) * spec.params.j, rel=1e-12)


@st.composite
def custom_networks(draw):
    m = draw(st.integers(1, 8))
    pairs = [(k, l) for k in range(m) for l in range(k + 1, m)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple((k, l, draw(st.sampled_from([1, -1]))) for k, l in chosen)
    sites = tuple(Site(id=i, label=f"s{i}") for i in range(m))
    return NetworkSpec(sites, edges, draw(system_params()))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(spec=custom_networks(), t=st.floats(0.01, 5.0), ends=st.tuples(st.integers(), st.integers()))
def test_one_block_run_is_the_dense_propagation(spec, t, ends):
    source, target = (end % spec.num_sites for end in ends)
    schedule = Schedule((Evolve(t),), (source, "atom"), (target, "cavity"))
    trace = run_schedule(spec, schedule, samples_per_window=2)
    spectrum = eigendecompose(dense_hamiltonian(spec))
    expected = propagate(spectrum, ExcitationState.excitation(spec.dim, 2 * source + 1), t)
    # the same eigenvectors and eigenvalues; exp of a longer time vector may round differently
    assert np.abs(trace.final_state.amps - expected.amps).max() <= 1e-12


@st.composite
def small_networks(draw):
    """Chains, switches, one-vertex lattices and custom networks of 1-9 sites, with random edge
    signs; on-site terms of 0, -0.0 or large, detunings of either sign."""
    onsite = st.sampled_from([0.0, -0.0, 1.0, -1e6, 1e6])
    positive = st.sampled_from([1e-3, 1.0, 65.0, 1e6])
    params = SystemParams(
        omega_c=draw(onsite),
        delta=draw(st.sampled_from([0.0, -0.0, -1.0, -1000.0, -1e6, 1000.0])),
        g=draw(positive),
        j=draw(positive),
    )
    kind = draw(st.sampled_from(["chain", "switch", "lattice", "custom"]))
    if kind == "chain":
        spec = build_diamond_chain(draw(st.integers(1, 2)), params)  # 4 or 7 sites
    elif kind == "switch":
        spec = build_switch(params)
    elif kind == "lattice":  # one vertex: 4 inner and 4 outer sites
        uploads = draw(st.sampled_from([(), ("v",)]))
        spec = build_hex_lattice(HexLatticeDescriptor(("v",), (), uploads), params)
    else:
        m = draw(st.integers(1, 9))
        pairs = [(k, l) for k in range(m) for l in range(k + 1, m)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        sites = tuple(Site(id=i, label=f"s{i}") for i in range(m))
        spec = NetworkSpec(sites, tuple((k, l, 1) for k, l in chosen), params)
    signs = [draw(st.sampled_from([1, -1])) for _ in spec.edges]
    edges = tuple((k, l, sign) for (k, l, _), sign in zip(spec.edges, signs))
    return dataclasses.replace(spec, edges=edges)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(spec=small_networks())
def test_the_one_block_is_the_whole_matrix(spec):
    (block,), residual = block_decompose(
        build_single_excitation_hamiltonian(spec), _one_block(spec.dim)
    )
    expected = dense_hamiltonian(spec)
    assert block.matrix.shape == expected.shape
    # every element equal: a nonzero bit for bit, a zero perhaps with the other sign
    assert np.array_equal(block.matrix, expected)
    assert residual == 0.0
