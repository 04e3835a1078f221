import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavity_route import (
    DISPERSIVE,
    HADAMARD_SIGNS,
    RESONANT,
    HexLatticeDescriptor,
    NetworkSpec,
    Site,
    SystemParams,
    atom_index,
    block_decompose,
    build_diamond_chain,
    build_hex_lattice,
    build_single_excitation_hamiltonian,
    build_switch,
    cavity_index,
    hex_lattice_layout,
)
from cavity_route.collective import _one_block


class TestSystemParams:
    def test_defaults(self):
        p = SystemParams()
        assert (p.omega_c, p.delta, p.g, p.j) == (1.0, 0.0, 65.0, 1.0)

    def test_omega_a_is_cavity_minus_detuning(self):
        p = SystemParams(delta=-1000.0)
        assert p.omega_a == p.omega_c - p.delta == 1001.0

    def test_regime_constants(self):
        assert RESONANT.delta == 0.0
        assert DISPERSIVE.delta == -1000.0
        assert RESONANT.g == DISPERSIVE.g == 65.0

    @pytest.mark.parametrize("bad", [dict(g=0.0), dict(g=-1.0), dict(j=0.0), dict(j=-2.0)])
    def test_rejects_nonpositive_couplings(self, bad):
        with pytest.raises(ValueError):
            SystemParams(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(omega_c=float("nan")),
            dict(delta=float("inf")),
            dict(delta=10**400),  # an int beyond the float range
            dict(omega_c=1e308, delta=-1e308),  # atom frequency overflows
        ],
    )
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            SystemParams(**bad)

    @pytest.mark.parametrize("name", ["omega_c", "delta", "g", "j"])
    def test_rejects_bools(self, name):
        with pytest.raises(ValueError, match="must be a finite number"):
            SystemParams(**{name: True})

    def test_json_round_trip(self):
        p = SystemParams(omega_c=2.0, delta=-5.0, g=10.0, j=0.5)
        assert SystemParams.from_json_dict(p.to_json_dict()) == p

    def test_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SystemParams.from_json_dict({"omega_c": 1.0, "kappa": 3.0})

    def test_json_defaults_for_missing_keys(self):
        assert SystemParams.from_json_dict({}) == SystemParams()


def test_mode_layout():
    assert cavity_index(0) == 0
    assert atom_index(0) == 1
    assert cavity_index(5) == 10
    assert atom_index(5) == 11


class TestDiamondChain:
    def test_single_unit_edges(self):
        spec = build_diamond_chain(1)
        assert spec.num_sites == 4
        assert set(spec.edges) == {(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, -1)}

    def test_sizes_and_labels(self):
        spec = build_diamond_chain(3)
        assert spec.num_sites == 10
        assert len(spec.edges) == 12
        assert [s.label for s in spec.sites] == [str(i) for i in range(1, 11)]

    def test_vertex_and_control_roles(self):
        spec = build_diamond_chain(2)
        vertices = [s.label for s in spec.sites if s.role == "vertex"]
        controls = [s.label for s in spec.sites if s.role == "control"]
        assert vertices == ["1", "4", "7"]
        assert controls == ["2", "3", "5", "6"]

    def test_negative_edge_per_unit(self):
        spec = build_diamond_chain(4)
        negative = sorted((k, l) for k, l, s in spec.edges if s == -1)
        assert negative == [(3 * k + 2, 3 * k + 3) for k in range(4)]

    def test_rejects_empty_chain(self):
        with pytest.raises(ValueError):
            build_diamond_chain(0)


class TestSwitch:
    def test_sites_and_roles(self):
        spec = build_switch()
        assert spec.num_sites == 8
        assert spec.sites[0].role == "upload"
        assert [s.role for s in spec.sites[1:4]] == ["port"] * 3
        assert [s.role for s in spec.sites[4:]] == ["control"] * 4
        assert [s.label for s in spec.sites[4:]] == ["mu0", "mu1", "mu2", "mu3"]

    def test_edges_follow_hadamard_signs(self):
        spec = build_switch()
        assert len(spec.edges) == 16
        for k, l, sign in spec.edges:
            inner, outer = k - 4, l
            assert sign == HADAMARD_SIGNS[inner][outer]

    def test_hadamard_rows_orthogonal(self):
        m = np.array(HADAMARD_SIGNS, dtype=float)
        assert np.array_equal(m @ m.T, 4.0 * np.eye(4))


class TestNetworkSpecValidation:
    def _sites(self, n):
        return tuple(Site(id=i, label=str(i), role="plain") for i in range(n))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            NetworkSpec(sites=self._sites(2), edges=((0, 0, 1),), params=SystemParams())

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            NetworkSpec(sites=self._sites(2), edges=((0, 1, 2),), params=SystemParams())

    def test_rejects_duplicate_edge_either_orientation(self):
        for dup in ((0, 1, 1), (1, 0, -1)):
            with pytest.raises(ValueError):
                NetworkSpec(
                    sites=self._sites(2), edges=((0, 1, 1), dup), params=SystemParams()
                )

    def test_rejects_non_consecutive_ids(self):
        sites = (Site(id=0, label="a", role="plain"), Site(id=2, label="b", role="plain"))
        with pytest.raises(ValueError):
            NetworkSpec(sites=sites, edges=(), params=SystemParams())

    def test_rejects_edge_outside_sites(self):
        with pytest.raises(ValueError):
            NetworkSpec(sites=self._sites(2), edges=((0, 5, 1),), params=SystemParams())

    def test_json_round_trip_is_structural_identity(self):
        spec = build_diamond_chain(2, DISPERSIVE)
        again = NetworkSpec.loads(spec.dumps())
        assert again == spec
        # and the JSON itself is stable
        assert json.loads(spec.dumps()) == json.loads(again.dumps())

    def test_json_key_layout(self):
        data = build_switch().to_json_dict()
        assert set(data) == {"sites", "edges", "params"}
        assert set(data["sites"][0]) == {"id", "label", "role"}
        assert set(data["params"]) == {"omega_c", "delta", "g", "j"}


def _elements(spec):
    """``{(row, col): value}`` of the nonzeros the builder lists for ``spec``."""
    rows, cols, values = build_single_excitation_hamiltonian(spec)
    return dict(zip(zip(rows.tolist(), cols.tolist()), values.tolist()))


class TestHamiltonian:
    def test_shape_and_symmetry(self):
        rows, cols, _ = build_single_excitation_hamiltonian(build_diamond_chain(2))
        assert max(rows.max(), cols.max()) == 13 and np.count_nonzero(rows == cols) == 14
        h = _elements(build_diamond_chain(2))
        assert h == {(c, r): value for (r, c), value in h.items()}

    def test_onsite_and_coupling_entries(self):
        params = SystemParams(omega_c=2.0, delta=-3.0, g=7.0, j=1.5)
        h = _elements(build_diamond_chain(1, params))
        for i in range(4):
            assert h[2 * i, 2 * i] == params.omega_c
            assert h[2 * i + 1, 2 * i + 1] == params.omega_a
            assert h[2 * i, 2 * i + 1] == params.g
        assert h[0, 2] == params.j  # +j hop
        assert h[4, 6] == -params.j  # the signed hop
        assert (1, 3) not in h  # atoms never couple directly

    @pytest.mark.parametrize(
        "spec",
        [
            build_diamond_chain(3, SystemParams(omega_c=2.0, delta=-3.0, g=7.0, j=1.5)),
            build_switch(DISPERSIVE),
            NetworkSpec((Site(id=0, label="alone"),), (), RESONANT),  # no edges
            build_diamond_chain(1, SystemParams(omega_c=0.0, delta=0.0)),  # a zero diagonal
        ],
    )
    def test_entries_name_every_element_once(self, spec):
        rows, cols, values = build_single_excitation_hamiltonian(spec)
        # the reference: two on-site terms and one g pair per site, one signed j pair per edge
        expected = {}
        for site in spec.sites:
            c, a = 2 * site.id, 2 * site.id + 1
            expected.update({(c, c): spec.params.omega_c, (a, a): spec.params.omega_a})
            expected.update({(c, a): spec.params.g, (a, c): spec.params.g})
        for k, l, sign in spec.edges:
            hop = sign * spec.params.j
            expected.update({(2 * k, 2 * l): hop, (2 * l, 2 * k): hop})
        assert _elements(spec) == expected
        assert rows.size == len(expected)
        assert sorted(rows[rows == cols].tolist()) == list(range(spec.dim))  # the whole diagonal

    def test_no_cavity_atom_cross_site_terms(self):
        h = _elements(build_switch())
        assert not [(r, c) for r, c in h if r % 2 == 0 and c % 2 == 1 and r // 2 != c // 2]


class TestHexDescriptor:
    def test_rejects_unknown_vertex_in_link(self):
        with pytest.raises(ValueError):
            HexLatticeDescriptor(vertices=("a",), links=(("a", 1, "z", 1),), uploads=("a",))

    def test_rejects_port_zero_in_link(self):
        with pytest.raises(ValueError):
            HexLatticeDescriptor(
                vertices=("a", "b"), links=(("a", 0, "b", 1),), uploads=("a",)
            )

    def test_rejects_slot_reuse(self):
        with pytest.raises(ValueError):
            HexLatticeDescriptor(
                vertices=("a", "b", "c"),
                links=(("a", 1, "b", 1), ("a", 1, "c", 2)),
                uploads=("a",),
            )

    def test_rejects_self_link(self):
        with pytest.raises(ValueError):
            HexLatticeDescriptor(vertices=("a",), links=(("a", 1, "a", 2),), uploads=())

    def test_rejects_upload_on_unknown_vertex(self):
        with pytest.raises(ValueError):
            HexLatticeDescriptor(vertices=("a",), links=(), uploads=("b",))

    def test_json_round_trip(self):
        desc = HexLatticeDescriptor(
            vertices=("a", "b"), links=(("a", 1, "b", 1),), uploads=("a", "b")
        )
        data = {"vertices": ["a", "b"], "links": [["a", 1, "b", 1]], "uploads": ["a", "b"]}
        assert HexLatticeDescriptor.from_json_dict(data) == desc


def _reference_layout(desc):
    """The three-registry numbering that ``hex_lattice_layout`` replaced, kept verbatim."""
    inner: dict[str, tuple[int, int, int, int]] = {}
    for v_pos, v in enumerate(desc.vertices):
        inner[v] = tuple(4 * v_pos + i for i in range(4))  # type: ignore[assignment]
    sites: list[Site] = [
        Site(id=inner[v][i], label=f"{v}.mu{i}", role="control")
        for v in desc.vertices
        for i in range(4)
    ]
    link_end: dict[tuple[str, int], tuple[str, int, str, int]] = {}
    for link in desc.links:
        a, pa, b, pb = link
        link_end[(a, pa)] = link
        link_end[(b, pb)] = link
    occupant: dict[tuple[str, int], int] = {}
    link_site: dict[tuple[str, int, str, int], int] = {}
    next_id = 4 * len(desc.vertices)
    for v in desc.vertices:
        for port in range(4):
            key = (v, port)
            if port == 0:
                role = "upload" if v in desc.uploads else "port"
                label = f"{v}.up" if v in desc.uploads else f"{v}.p0"
                sites.append(Site(id=next_id, label=label, role=role))
                occupant[key] = next_id
                next_id += 1
            elif key in link_end:
                link = link_end[key]
                if link in link_site:
                    occupant[key] = link_site[link]
                else:
                    a, pa, b, pb = link
                    sites.append(
                        Site(id=next_id, label=f"{a}{pa}-{b}{pb}", role="port")
                    )
                    link_site[link] = next_id
                    occupant[key] = next_id
                    next_id += 1
            else:
                sites.append(Site(id=next_id, label=f"{v}.p{port}", role="port"))
                occupant[key] = next_id
                next_id += 1
    edges = tuple(
        (inner[v][i], occupant[(v, port)], HADAMARD_SIGNS[i][port])
        for v in desc.vertices
        for i in range(4)
        for port in range(4)
    )
    return inner, occupant, sites, edges


@st.composite
def _descriptors(draw):
    """1-7 vertices named with braces and brackets, links between free ports in either
    orientation (a vertex pair may share several), uploads on a random subset."""
    names = st.text(alphabet="ab{}[]", min_size=1, max_size=3)
    vertices = draw(st.lists(names, min_size=1, max_size=7, unique=True))
    ends = draw(st.permutations([(v, p) for v in vertices for p in (1, 2, 3)]))
    pairs = zip(ends[0::2], ends[1::2])
    links = [(*x, *y) for x, y in pairs if x[0] != y[0] and draw(st.booleans())]
    uploads = [v for v in draw(st.permutations(vertices)) if draw(st.booleans())]
    return HexLatticeDescriptor(tuple(vertices), tuple(links), tuple(uploads))


class TestHexLayout:
    def _two_vertex(self):
        return HexLatticeDescriptor(
            vertices=("a", "b"), links=(("a", 1, "b", 1),), uploads=("a", "b")
        )

    def test_two_vertex_counts(self):
        layout = hex_lattice_layout(self._two_vertex())
        # 8 inner + 1 shared link + 2 uploads + 4 dangling
        assert len(layout.sites) == 15
        assert len(layout.edges) == 32

    def test_link_site_is_shared(self):
        desc = self._two_vertex()
        layout = hex_lattice_layout(desc)
        assert layout.occupant[("a", 1)] == layout.occupant[("b", 1)]

    def test_every_slot_occupied(self):
        desc = self._two_vertex()
        layout = hex_lattice_layout(desc)
        assert set(layout.occupant) == {(v, p) for v in desc.vertices for p in range(4)}

    def test_deterministic(self):
        desc = self._two_vertex()
        a, b = hex_lattice_layout(desc), hex_lattice_layout(desc)
        assert [s.label for s in a.sites] == [s.label for s in b.sites]
        assert a.edges == b.edges

    def test_edge_signs_follow_hadamard(self):
        desc = self._two_vertex()
        layout = hex_lattice_layout(desc)
        inner_a = layout.inner["a"]
        for i in range(4):
            for port in range(4):
                occupant = layout.occupant[("a", port)]
                matches = [
                    s for k, l, s in layout.edges if {k, l} == {inner_a[i], occupant}
                ]
                assert matches == [HADAMARD_SIGNS[i][port]]

    def test_onsite_terms_counted_once(self):
        # the shared link site must contribute a single omega_c, not two
        desc = self._two_vertex()
        spec = build_hex_lattice(desc, RESONANT)
        rows, cols, values = build_single_excitation_hamiltonian(spec)
        assert spec.dim == 30
        on_site = rows == cols
        assert sorted(rows[on_site].tolist()) == list(range(30))  # each diagonal element once
        expected = np.where(rows[on_site] % 2, RESONANT.omega_a, RESONANT.omega_c)
        assert np.array_equal(values[on_site], expected)

    # a link first met at its second-listed end, and two links joining one vertex pair
    @example(HexLatticeDescriptor(("a", "b"), (("b", 2, "a", 1), ("a", 3, "b", 3)), ("a",)))
    @example(HexLatticeDescriptor(("{x}", "[y]"), (("[y]", 1, "{x}", 3),), ("[y]",)))
    @given(_descriptors())
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    def test_numbering_matches_the_reference(self, desc):
        layout = hex_lattice_layout(desc)
        inner, occupant, sites, edges = _reference_layout(desc)
        assert layout.inner == inner and layout.occupant == occupant and layout.edges == edges
        assert [(s.id, s.label, s.role) for s in layout.sites] == [
            (s.id, s.label, s.role) for s in sites
        ]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "sites", [None, 3.0, [None], ["x"], [{"label": "a"}], [{"id": "0", "label": "a"}]]
    )
    def test_network_spec_sites(self, sites):
        data = {"sites": sites, "edges": [], "params": RESONANT.to_json_dict()}
        with pytest.raises(ValueError):
            NetworkSpec.from_json_dict(data)

    def test_network_spec_edges(self):
        data = {"sites": [{"id": 0, "label": "a"}], "edges": [5], "params": {}}
        with pytest.raises(ValueError, match="malformed network spec"):
            NetworkSpec.from_json_dict(data)

    @pytest.mark.parametrize(
        "edge", [(0, 1, True), (0.0, 1, 1), (0, 1.0, -1), (0, 1, 1.0), [0.7, 1.2, 1.9], 5]
    )
    def test_edges_are_never_coerced(self, edge):
        sites = (Site(0, "a"), Site(1, "b"))
        with pytest.raises(ValueError):
            NetworkSpec(sites=sites, edges=(edge,))
        data = {"sites": [{"id": 0, "label": "a"}, {"id": 1, "label": "b"}], "edges": [edge]}
        with pytest.raises(ValueError, match="malformed network spec"):
            NetworkSpec.from_json_dict({**data, "params": {}})

    @pytest.mark.parametrize("site_id", [True, 1.0, "1"])
    def test_site_id_must_be_int(self, site_id):
        with pytest.raises(ValueError, match="site id"):
            Site(site_id, "x")

    @pytest.mark.parametrize("label", [5, [1], None])
    def test_site_label_must_be_str(self, label):
        with pytest.raises(ValueError, match="site label"):
            Site(0, label)
        data = {"sites": [{"id": 0, "label": label}], "edges": [], "params": {}}
        with pytest.raises(ValueError, match="malformed network spec"):
            NetworkSpec.from_json_dict(data)

    @pytest.mark.parametrize("label", ["a,x", "a|x", "b\nc", "b\r\nc", "x\r", "a\u2028b"])
    def test_site_label_cannot_break_a_csv_column_or_basis_list(self, label):
        # labels name trace CSV columns and enter the '|'-joined basis of `blocks --out`
        with pytest.raises(ValueError, match="site label"):
            Site(0, label)
        desc = HexLatticeDescriptor((label, "b"), ((label, 1, "b", 1),), (label, "b"))
        with pytest.raises(ValueError, match="site label"):
            build_hex_lattice(desc)

    @pytest.mark.parametrize(
        "vertices, links, uploads",
        [
            (("a", "b"), (("a", True, "b", 1),), ()),
            (("a", "b"), (("a", 1, "b", 1.0),), ()),
            (("a", "b"), (("a", 1.7, "b", 1),), ()),
            ("ab", (), ()),
            (("a", 1), (), ()),
            (("a", "b"), (), "a"),
            (("a", "b"), (), (["a"],)),
            (("a", "b"), ((["a"], 1, "b", 1),), ()),
            (("a", "b"), "a1b1", ()),
        ],
    )
    def test_lattice_descriptor_types(self, vertices, links, uploads):
        with pytest.raises(ValueError):
            HexLatticeDescriptor(vertices, links, uploads)
        data = {"vertices": vertices, "links": links, "uploads": uploads}
        with pytest.raises(ValueError):
            HexLatticeDescriptor.from_json_dict(json.loads(json.dumps(data)))

    def test_hamiltonian_above_budget(self, monkeypatch):
        # a whole network's matrix is its one block: 16 modes at the limit, 18 above it
        monkeypatch.setattr("cavity_route.collective.ARRAY_BUDGET", 16 * 16)
        switch = build_switch()
        (block,), _ = block_decompose(build_single_excitation_hamiltonian(switch), _one_block(16))
        assert block.dim == 16
        spec = NetworkSpec((*switch.sites, Site(id=8, label="extra")), switch.edges)
        with pytest.raises(ValueError, match="^a 18-mode block decomposition exceeds the budget"):
            block_decompose(build_single_excitation_hamiltonian(spec), _one_block(18))
