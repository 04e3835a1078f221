import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import brick_wall, dense_hamiltonian
from cavity_route import (
    RESONANT,
    Evolve,
    ExcitationState,
    HexLatticeDescriptor,
    NetworkSpec,
    OrthogonalTransform,
    PhaseFlip,
    PhaseShift,
    Schedule,
    SystemParams,
    atom_index,
    build_diamond_chain,
    build_hex_lattice,
    build_switch,
    cavity_index,
    chain_collective_basis,
    chain_routing_schedule,
    entanglement_transfer,
    extract_block,
    find_transfer_time,
    hex_routing_schedule,
    lattice_collective_basis,
    local_phase_flip,
    photon_population,
    run_schedule,
    site_population,
    switch_collective_basis,
    switch_port_flip,
    switch_schedule,
)
from cavity_route import routing
from cavity_route.routing import NORM_TOLERANCE

TWO_VERTEX = HexLatticeDescriptor(
    vertices=("a", "b"), links=(("a", 1, "b", 1),), uploads=("a", "b")
)

# resonant transfer times, re-derived once per session
T_END = find_transfer_time(extract_block(RESONANT, "end"), 1, 3).t_star
T_MID = find_transfer_time(extract_block(RESONANT, "mid"), 1, 5).t_star
T_UPLOAD = find_transfer_time(extract_block(RESONANT, "upload"), 1, 3).t_star
T_HOP = find_transfer_time(extract_block(RESONANT, "hop"), 1, 5).t_star


class TestSteps:
    def test_evolve_rejects_negative(self):
        with pytest.raises(ValueError):
            Evolve(-0.1)

    def test_flip_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PhaseFlip(atom_sites=(2, 2))

    def test_flip_rejects_empty(self):
        with pytest.raises(ValueError):
            PhaseFlip(atom_sites=())

    @pytest.mark.parametrize("steps", [(), (PhaseFlip((2,)),), (PhaseShift(2, 0.5), PhaseFlip((2,)))])
    def test_schedule_needs_an_evolution_window(self, steps):
        # refused when built, not after run_schedule has decomposed a network
        with pytest.raises(ValueError, match="no evolution window"):
            Schedule(steps=steps, source=(0, "atom"), target=(6, "atom"))

    def test_schedule_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            Schedule(steps=(Evolve(1.0),), source=(0, "spin"), target=(1, "atom"))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PhaseShift(site=6, angle=math.nan),
            lambda: PhaseShift(site=6, angle=math.inf),
            lambda: PhaseShift(site=6, angle="0.5"),
            lambda: PhaseShift(site=6.0, angle=0.5),
            lambda: PhaseShift(site=True, angle=0.5),
            lambda: PhaseShift(site=-1, angle=0.5),
            lambda: PhaseFlip((2.0,)),
            lambda: PhaseFlip((True, 2)),
            lambda: Schedule(steps=(Evolve(1.0),), source=(0.0, "atom"), target=(1, "atom")),
            lambda: Schedule(steps=(Evolve(1.0),), source=(0, "atom"), target=(False, "atom")),
        ],
        ids=[
            "shift-nan-angle",
            "shift-inf-angle",
            "shift-str-angle",
            "shift-float-site",
            "shift-bool-site",
            "shift-negative-site",
            "flip-float-site",
            "flip-bool-site",
            "schedule-float-source",
            "schedule-bool-target",
        ],
    )
    def test_malformed_step_rejected_at_construction(self, make):
        # ids are never coerced and angles are finite, as in NetworkSpec
        with pytest.raises(ValueError):
            make()


class TestChainSchedule:
    def test_single_unit_structure(self):
        s = chain_routing_schedule(1, 2.0, 3.0)
        assert [type(x).__name__ for x in s.steps] == ["Evolve", "PhaseFlip", "Evolve"]
        assert s.source == (0, "atom")
        assert s.target == (3, "atom")

    def test_three_units(self):
        s = chain_routing_schedule(3, 2.0, 3.0)
        evolves = [x for x in s.steps if isinstance(x, Evolve)]
        flips = [x for x in s.steps if isinstance(x, PhaseFlip)]
        assert len(evolves) == 4 and len(flips) == 3
        assert [e.duration for e in evolves] == [2.0, 3.0, 3.0, 2.0]

    def test_flip_sites_are_second_control_of_each_unit(self):
        s = chain_routing_schedule(3, 1.0, 1.0)
        flip = next(x for x in s.steps if isinstance(x, PhaseFlip))
        assert flip.atom_sites == (2, 5, 8)

    def test_total_time_is_exact_sum(self):
        t1, t2 = 2.2231498, 3.1414072
        s = chain_routing_schedule(4, t1, t2)
        assert s.total_evolve_time() == math.fsum([t1, t2, t2, t2, t1])
        assert s.num_flips() == 4

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            chain_routing_schedule(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            chain_routing_schedule(2, 1.0, -1.0)


class TestLocalPhaseFlip:
    def test_double_flip_is_exact_identity(self):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = ExcitationState(amps=amps, vac=0.0)
        twice = local_phase_flip(local_phase_flip(state, (1, 3)), (1, 3))
        assert np.array_equal(twice.amps, state.amps)  # bitwise, not approximate

    def test_only_atom_amplitudes_change(self):
        amps = np.full(6, 1 / np.sqrt(6), dtype=complex)
        state = ExcitationState(amps=amps, vac=0.0)
        flipped = local_phase_flip(state, (1,))
        assert flipped.amps[3] == -state.amps[3]
        untouched = [0, 1, 2, 4, 5]
        assert np.array_equal(flipped.amps[untouched], state.amps[untouched])

    def test_rejects_site_outside_network(self):
        state = ExcitationState.excitation(4, 0)
        with pytest.raises(ValueError):
            local_phase_flip(state, (5,))

    @pytest.mark.parametrize(
        "sites, message", [((1, 1), "duplicate site"), ((), "at least one site")]
    )
    def test_refuses_what_a_phase_flip_refuses(self, sites, message):
        # a repeated site would flip back to the start, and no site would flip nothing
        state = ExcitationState.excitation(8, 0)
        with pytest.raises(ValueError, match=message):
            PhaseFlip(sites)
        with pytest.raises(ValueError, match=message):
            local_phase_flip(state, sites)


class TestSwitchScheduling:
    def test_port_flip_sites_match_sign_differences(self):
        # steering 1 -> 2 must flip exactly the middle two control atoms
        assert switch_port_flip(1, 2).atom_sites == (5, 6)
        assert switch_port_flip(0, 1).atom_sites == (6, 7)
        assert switch_port_flip(0, 2).atom_sites == (5, 7)
        assert switch_port_flip(0, 3).atom_sites == (5, 6)

    def test_port_flip_rejects_same_port(self):
        with pytest.raises(ValueError):
            switch_port_flip(2, 2)

    def test_schedule_shape(self):
        s = switch_schedule(2, 1.5948)
        assert s.source == (0, "atom") and s.target == (2, "atom")
        assert s.total_evolve_time() == pytest.approx(2 * 1.5948)

    def test_rejects_upload_port_as_target(self):
        with pytest.raises(ValueError):
            switch_schedule(0, 1.0)

    def test_all_ports_equal_fidelity(self):
        spec = build_switch(RESONANT)
        fids = []
        for port in (1, 2, 3):
            trace = run_schedule(spec, switch_schedule(port, T_UPLOAD), samples_per_window=2)
            fids.append(trace.final_population)
        assert max(fids) - min(fids) <= 1e-12

    def test_two_windows_compose_as_squared_single_transfer(self):
        # the flip hands exactly the collective atom amplitude across, so the
        # final population is the single-window fidelity squared
        spec = build_switch(RESONANT)
        single = find_transfer_time(extract_block(RESONANT, "upload"), 1, 3)
        trace = run_schedule(spec, switch_schedule(1, single.t_star), samples_per_window=2)
        assert trace.final_population == pytest.approx(single.fidelity**2, abs=1e-9)


class TestHexScheduling:
    def test_two_vertex_route(self):
        s = hex_routing_schedule(TWO_VERTEX, ["a", "b"], 1.5, 2.2)
        assert s.num_flips() == 2
        assert s.total_evolve_time() == pytest.approx(2 * 1.5 + 2.2)
        assert s.source == (8, "atom")  # a's upload site comes right after the inner sites
        assert s.target == (12, "atom")

    def test_rejects_zero_hop_path(self):
        with pytest.raises(ValueError):
            hex_routing_schedule(TWO_VERTEX, ["a"], 1.0, 1.0)

    def test_rejects_unlinked_consecutive_vertices(self):
        desc = HexLatticeDescriptor(
            vertices=("a", "b", "c"),
            links=(("a", 1, "b", 1),),
            uploads=("a", "b", "c"),
        )
        with pytest.raises(ValueError):
            hex_routing_schedule(desc, ["a", "c"], 1.0, 1.0)

    def test_rejects_endpoint_without_upload(self):
        desc = HexLatticeDescriptor(
            vertices=("a", "b"), links=(("a", 1, "b", 1),), uploads=("a",)
        )
        with pytest.raises(ValueError):
            hex_routing_schedule(desc, ["a", "b"], 1.0, 1.0)

    def test_three_vertex_path_flip_count(self):
        desc = HexLatticeDescriptor(
            vertices=("a", "b", "c"),
            links=(("a", 1, "b", 1), ("b", 2, "c", 3)),
            uploads=("a", "c"),
        )
        s = hex_routing_schedule(desc, ["a", "b", "c"], 1.5, 2.2)
        assert s.num_flips() == 3
        evolves = [x.duration for x in s.steps if isinstance(x, Evolve)]
        assert evolves == [1.5, 2.2, 2.2, 1.5]

    def test_full_lattice_transfer(self):
        spec = build_hex_lattice(TWO_VERTEX, RESONANT)
        s = hex_routing_schedule(TWO_VERTEX, ["a", "b"], T_UPLOAD, T_HOP)
        trace = run_schedule(spec, s, samples_per_window=2)
        assert trace.final_population >= 0.99


PARALLEL = HexLatticeDescriptor(
    vertices=("a", "b"), links=(("a", 1, "b", 1), ("a", 3, "b", 3)), uploads=("a", "b")
)


class TestRoutesThatNameTheirLinks:
    def test_exit_ports_pick_parallel_links(self):
        # out on a1-b1, back on b3-a3: the bare path a, b, a would turn back at b
        s = hex_routing_schedule(PARALLEL, [["a", 1], ["b", 3], "a"], T_UPLOAD, T_HOP)
        layout = routing.hex_lattice_layout(PARALLEL)
        a, b = layout.inner["a"], layout.inner["b"]
        flips = [step for step in s.steps if isinstance(step, PhaseFlip)]
        assert flips == [
            PhaseFlip(routing._port_flip_sites(a, 0, 1)),
            PhaseFlip(routing._port_flip_sites(b, 1, 3)),
            PhaseFlip(routing._port_flip_sites(a, 3, 0)),
        ]
        assert s.source == s.target == (layout.occupant[("a", 0)], "atom")
        trace = run_schedule(build_hex_lattice(PARALLEL, RESONANT), s, samples_per_window=2)
        assert trace.final_population >= 0.99

    def test_a_bare_name_over_parallel_links_is_refused(self):
        message = r"^2 links join 'a' and 'b'; give \['a', exit port\]$"
        with pytest.raises(ValueError, match=message):
            hex_routing_schedule(PARALLEL, ["a", "b", "a"], 1.0, 1.0)

    @pytest.mark.parametrize(
        "path, message",
        [
            ([["a", 2], "b"], r"^no link between 'a' and 'b' at port 2 of 'a'$"),
            ([["a", 1], ["b", 1], "a"], r"^path turns back at 'b' along the link it arrived by$"),
            ([["a", 1], ["b", 3], ["a", 1]], r"^the route ends at 'a', which takes no exit port$"),
            ([["a", 0], "b"], r"^exit port must be an integer in \[1, 3\], got 0$"),
            ([["a", 1, 2], "b"], r"^malformed path: "),
        ],
    )
    def test_refused_hops(self, path, message):
        with pytest.raises(ValueError, match=message):
            hex_routing_schedule(PARALLEL, path, 1.0, 1.0)


@st.composite
def walks_over_parallel_links(draw):
    """A 2-4-vertex descriptor whose links pair random free ports, often twice between one
    pair of vertices, and a random walk over it that never turns back along its arrival link:
    each step a ``[vertex, exit port]`` pair, or the bare name where one link joins the pair."""
    vertices = [f"v{i}" for i in range(draw(st.integers(2, 4)))]
    ends = draw(st.permutations([(v, port) for v in vertices for port in (1, 2, 3)]))
    links = [(*x, *y) for x, y in zip(ends[::2], ends[1::2]) if x[0] != y[0]]
    links = links[: draw(st.integers(1, max(1, len(links))))]
    assume(links)
    desc = HexLatticeDescriptor(tuple(vertices), tuple(links), tuple(vertices))
    exits = {}  # vertex -> {exit port: (next vertex, arrival port)}
    for a, pa, b, pb in links:
        exits.setdefault(a, {})[pa] = (b, pb)
        exits.setdefault(b, {})[pb] = (a, pa)
    here, arrived, path = draw(st.sampled_from(sorted(exits))), 0, []
    for _ in range(draw(st.integers(1, 5))):
        ports = sorted(set(exits[here]) - {arrived})
        if not ports:
            break
        port = draw(st.sampled_from(ports))
        there, arrived = exits[here][port]
        joining = [p for p, (v, _) in exits[here].items() if v == there]
        path.append(here if len(joining) == 1 and draw(st.booleans()) else [here, port])
        here = there
    assume(path)
    return desc, path + [here]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    case=walks_over_parallel_links(),
    times=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    g=st.floats(0.5, 15.0),
)
def test_routes_over_parallel_links_conserve_the_norm(case, times, g):
    desc, path = case
    schedule = hex_routing_schedule(desc, path, *times)
    assert schedule.num_flips() == len(path)
    trace = run_schedule(build_hex_lattice(desc, SystemParams(g=g)), schedule, samples_per_window=2)
    assert np.abs(trace.norms - 1.0).max() <= NORM_TOLERANCE


class TestRunSchedule:
    def _spec_and_schedule(self):
        return build_diamond_chain(2, RESONANT), chain_routing_schedule(2, T_END, T_MID)

    def test_sample_grid(self):
        spec, sched = self._spec_and_schedule()
        trace = run_schedule(spec, sched, samples_per_window=50)
        # 3 windows, window joints deduplicated
        assert trace.num_samples == 3 * 50 - 2
        assert np.all(np.diff(trace.times) >= 0)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(trace.total_time)

    def test_norm_column(self):
        spec, sched = self._spec_and_schedule()
        trace = run_schedule(spec, sched, samples_per_window=25)
        assert np.max(np.abs(trace.norms - 1.0)) <= 1e-12

    def test_default_track_labels(self):
        spec, sched = self._spec_and_schedule()
        trace = run_schedule(spec, sched, samples_per_window=5)
        assert trace.labels == ("atom[1]", "atom[7]")
        assert trace.populations.shape == (trace.num_samples, 2)
        assert trace.populations[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "target, labels",
        [((3, "atom"), ("cavity[1]", "atom[4]")), ((3, "cavity"), ("cavity[1]", "cavity[4]"))],
    )
    def test_default_track_labels_name_the_kind(self, target, labels):
        # a cavity source or target was once labelled atom[...]
        spec = build_diamond_chain(1, RESONANT)
        schedule = Schedule((Evolve(1.0),), (0, "cavity"), target)
        trace = run_schedule(spec, schedule, samples_per_window=5)
        assert trace.labels == labels
        assert trace.populations[0].tolist() == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_custom_track(self):
        spec, sched = self._spec_and_schedule()
        track = [(k, "cavity") for k in range(3)] + [(3, "atom")]
        trace = run_schedule(spec, sched, samples_per_window=5, track=track)
        assert trace.labels == ("cavity[1]", "cavity[2]", "cavity[3]", "atom[4]")
        final = trace.final_state
        expected = [site_population(final, site, kind) for site, kind in track]
        assert trace.populations[-1].tolist() == pytest.approx(expected, abs=1e-15)

    def test_rejects_undersampled_window(self):
        spec, sched = self._spec_and_schedule()
        with pytest.raises(ValueError):
            run_schedule(spec, sched, samples_per_window=1)

    def test_rejects_dimension_mismatch(self):
        spec, sched = self._spec_and_schedule()
        with pytest.raises(ValueError):
            run_schedule(spec, sched, initial=ExcitationState.excitation(10, 1))

    def test_rejects_schedule_without_evolution(self):
        spec, _ = self._spec_and_schedule()
        with pytest.raises(ValueError):
            bare = Schedule(steps=(PhaseFlip((2,)),), source=(0, "atom"), target=(6, "atom"))
            run_schedule(spec, bare)

    def test_final_amplitude_matches_final_state(self):
        spec, sched = self._spec_and_schedule()
        trace = run_schedule(spec, sched, samples_per_window=5)
        assert trace.final_amplitude == trace.final_state.amps[2 * 6 + 1]
        assert trace.final_population == pytest.approx(
            abs(trace.final_state.amps[13]) ** 2
        )

    def test_phase_shift_step_rotates_amplitude(self):
        spec, sched = self._spec_and_schedule()
        base = run_schedule(spec, sched, samples_per_window=2)
        shifted_sched = Schedule(
            steps=sched.steps + (PhaseShift(site=6, angle=-base.final_phase),),
            source=sched.source,
            target=sched.target,
        )
        shifted = run_schedule(spec, shifted_sched, samples_per_window=2)
        assert shifted.final_phase == pytest.approx(0.0, abs=1e-12)
        assert shifted.final_population == pytest.approx(base.final_population, abs=1e-15)


class TestRunScheduleBudget:
    def test_window_above_budget(self, monkeypatch):
        spec = build_switch(RESONANT)  # 16 modes
        schedule = switch_schedule(1, 1.0)
        monkeypatch.setattr("cavity_route.routing.ARRAY_BUDGET", 16 * 5)
        assert run_schedule(spec, schedule, samples_per_window=5).num_samples == 9
        with pytest.raises(ValueError, match="exceed"):
            run_schedule(spec, schedule, samples_per_window=6)


class TestEntanglementTransfer:
    def _setup(self):
        spec = build_diamond_chain(2, RESONANT)
        sched = chain_routing_schedule(2, T_END, T_MID)
        return spec, sched

    def test_compensated_formula(self):
        spec, sched = self._setup()
        res = entanglement_transfer(spec, sched, compensate=True)
        assert res.bell_fidelity == pytest.approx(((1 + abs(res.amplitude)) / 2) ** 2)
        assert res.bell_fidelity >= 0.99

    def test_uncompensated_matches_direct_overlap(self):
        spec, sched = self._setup()
        res = entanglement_transfer(spec, sched, compensate=False)
        s = 1 / np.sqrt(2)
        final = res.trace.final_state
        overlap = s * final.vac + s * final.amps[2 * 6 + 1]
        assert res.bell_fidelity == pytest.approx(abs(overlap) ** 2, abs=1e-12)

    def test_compensation_phase_aligns_amplitude(self):
        spec, sched = self._setup()
        res = entanglement_transfer(spec, sched)
        rotated = res.amplitude * np.exp(1j * res.compensation_phase)
        assert rotated.imag == pytest.approx(0.0, abs=1e-12)
        assert rotated.real > 0

    def test_vacuum_branch_stationary(self):
        spec, sched = self._setup()
        res = entanglement_transfer(spec, sched)
        assert res.trace.final_state.vac == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_encoding_independence(self):
        # the excited-branch transfer amplitude must not depend on how the
        # excitation is weighted against the vacuum
        spec, sched = self._setup()
        plain = run_schedule(spec, sched, samples_per_window=2)
        entangled = entanglement_transfer(spec, sched)
        alpha, beta = 0.3, np.sqrt(1 - 0.09)
        skewed_init = ExcitationState.with_vacuum(spec.dim, 1, beta, alpha)
        skewed = run_schedule(spec, sched, initial=skewed_init, samples_per_window=2)
        u_plain = plain.final_amplitude
        u_entangled = entangled.amplitude
        u_skewed = skewed.final_amplitude / beta
        assert abs(u_entangled - u_plain) <= 1e-12
        assert abs(u_skewed - u_plain) <= 1e-12


# --- run_schedule against an independent oracle -----------------------------

BRICK_WALLS = {
    # vertex (r, c) is "r{r}c{c}"; (r, c)-(r, c+1) joins ports 1 and 2, and
    # (r, c)-(r+1, c) joins the two port-3s when r + c is even
    "1x2": HexLatticeDescriptor(("r0c0", "r0c1"), (("r0c0", 1, "r0c1", 2),), ("r0c0", "r0c1")),
    "2x2": HexLatticeDescriptor(
        ("r0c0", "r0c1", "r1c0", "r1c1"),
        (("r0c0", 1, "r0c1", 2), ("r0c0", 3, "r1c0", 3), ("r1c0", 1, "r1c1", 2)),
        ("r0c0", "r0c1", "r1c0", "r1c1"),
    ),
    "2x3": HexLatticeDescriptor(
        ("r0c0", "r0c1", "r0c2", "r1c0", "r1c1", "r1c2"),
        (
            ("r0c0", 1, "r0c1", 2),
            ("r0c1", 1, "r0c2", 2),
            ("r1c0", 1, "r1c1", 2),
            ("r1c1", 1, "r1c2", 2),
            ("r0c0", 3, "r1c0", 3),
            ("r0c2", 3, "r1c2", 3),
        ),
        ("r0c0", "r1c1"),
    ),
}
BRICK_ROUTES = {
    "1x2": ["r0c0", "r0c1"],
    "2x2": ["r0c1", "r0c0", "r1c0", "r1c1"],
    "2x3": ["r0c0", "r0c1", "r0c2", "r1c2", "r1c1"],
}


@st.composite
def networks_and_schedules(
    draw,
    units=(1, 4),
    kinds=("chain", "switch", "1x2", "2x2"),
    vacuum=False,
    samples=(2, 5),
    builder=False,
):
    """A network of ``kinds`` (a chain of ``units``) with its collective basis, a builder
    schedule or random steps (the builder's steps, then random ones, whenever ``builder`` is
    set), an initial state (random, with a vacuum part, whenever ``vacuum`` is set), ``samples``
    per window, and the basis renumbered: its blocks, and the rows of each, in a drawn order,
    numbered consecutively in that order (block sizes interleave, and runs of one block matrix
    split or join)."""
    params = SystemParams(
        omega_c=draw(st.floats(-5.0, 5.0)),
        delta=draw(st.floats(-40.0, 40.0)),
        g=draw(st.floats(0.5, 15.0)),
        j=draw(st.floats(0.2, 5.0)),
    )
    # expm's cost grows with |H| t: these keep the whole test near a second
    times = st.floats(0.01, 1.0)
    kind = draw(st.sampled_from(kinds))
    if kind == "chain":
        n = draw(st.integers(*units))
        spec, basis = build_diamond_chain(n, params), chain_collective_basis(n)
        built = chain_routing_schedule(n, draw(times), draw(times))
    elif kind == "switch":
        spec, basis = build_switch(params), switch_collective_basis()
        built = switch_schedule(draw(st.integers(1, 3)), draw(times))
    else:
        desc = BRICK_WALLS[kind]
        spec, basis = build_hex_lattice(desc, params), lattice_collective_basis(desc)
        built = hex_routing_schedule(desc, BRICK_ROUTES[kind], draw(times), draw(times))
    sites = st.integers(0, spec.num_sites - 1)
    step = st.one_of(
        st.builds(Evolve, st.floats(0.0, 1.0)),
        st.builds(PhaseFlip, st.lists(sites, min_size=1, max_size=4, unique=True).map(tuple)),
        st.builds(PhaseShift, sites, st.floats(-math.pi, math.pi)),
    )
    steps = draw(st.lists(step, max_size=6))
    if builder or draw(st.booleans()) or not any(isinstance(s, Evolve) for s in steps):
        steps = list(built.steps) + steps
    kinds = st.sampled_from(["atom", "cavity"])
    schedule = Schedule(tuple(steps), (draw(sites), draw(kinds)), (draw(sites), draw(kinds)))
    initial = None
    if vacuum or draw(st.booleans()):  # a random normalised state with a vacuum part
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        amps = np.array([1.0, 1j]) @ rng.normal(size=(2, spec.dim + 1))
        amps /= np.linalg.norm(amps)
        initial = ExcitationState(amps=amps[1:], vac=amps[0])
    blocks = draw(st.permutations(basis.groups))
    drawn = [(name, draw(st.permutations(idx))) for name, idx in blocks]
    old = [row for _, idx in drawn for row in idx]  # the basis row of each new row
    new = np.argsort(old)  # the new row of each basis row
    starts = np.cumsum([0] + [len(idx) for _, idx in drawn])
    groups = tuple((name, tuple(range(a, a + len(idx)))) for (name, idx), a in zip(drawn, starts))
    rows, cols, values = basis.entries
    labels = tuple(basis.labels[row] for row in old)
    renumbered = OrthogonalTransform((new[rows], cols, values), labels, groups)
    return spec, schedule, initial, draw(st.integers(*samples)), basis, renumbered


def _expm_fold(spec, schedule, initial: ExcitationState) -> np.ndarray:
    """Final amplitudes from ``expm(-i H d)`` per window and a diagonal phase per atom step."""
    h = dense_hamiltonian(spec)
    windows = {}  # builder schedules repeat their durations
    amps = initial.amps
    for step in schedule.steps:
        if isinstance(step, Evolve):
            if step.duration not in windows:
                windows[step.duration] = expm(-1j * h * step.duration)
            amps = windows[step.duration] @ amps
        else:
            phases = np.ones(spec.dim, dtype=complex)
            phases[[atom_index(site) for site in step.atom_sites]] = step.factor
            amps = phases * amps
    return amps


def _matches_the_expm_fold(case):
    spec, schedule, initial, samples, basis, renumbered = case
    if initial is None:  # run_schedule starts from the source mode
        site, kind = schedule.source
        row = (atom_index if kind == "atom" else cavity_index)(site)
        initial = ExcitationState.excitation(spec.dim, row)
    expected = _expm_fold(spec, schedule, initial)
    # one block, the topology's blocks, and those blocks renumbered in a drawn order
    bases = (None, basis, renumbered)
    traces = [run_schedule(spec, schedule, initial, samples, basis=b) for b in bases]
    for trace in traces:
        assert np.abs(trace.final_state.amps - expected).max() <= 1e-10
        assert trace.final_state.vac == initial.vac
        assert np.abs(trace.norms - math.sqrt(initial.norm_sq)).max() <= NORM_TOLERANCE
        # the same cavity populations from other amplitudes: the last evolved column summed in
        # collective rows, and from_collective of the state summed in site rows
        assert trace.photon[-1] == pytest.approx(photon_population(trace.final_state), abs=1e-15)
    # renumbering the rows may change only the order of the photon and norm sums
    builder, reordered = traces[1:]
    assert np.abs(reordered.final_state.amps - builder.final_state.amps).max() <= 1e-12
    for name in ("times", "photon", "populations", "norms"):
        assert np.abs(getattr(reordered, name) - getattr(builder, name)).max() <= 1e-12, name


def _matches_the_one_block_path(case):
    spec, schedule, initial, samples, basis, renumbered = case
    dense = run_schedule(spec, schedule, initial, samples)
    for given_basis in (basis, renumbered):
        blocked = run_schedule(spec, schedule, initial, samples, basis=given_basis)
        assert np.abs(blocked.final_state.amps - dense.final_state.amps).max() <= 1e-10
        assert blocked.final_state.vac == dense.final_state.vac
        for name in ("times", "photon", "populations", "norms"):
            assert np.abs(getattr(blocked, name) - getattr(dense, name)).max() <= 1e-10, name


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(case=networks_and_schedules())
def test_run_schedule_matches_the_expm_fold(case):
    _matches_the_expm_fold(case)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    case=networks_and_schedules(
        units=(1, 6), kinds=("chain", "switch", "1x2", "2x2", "2x3"), vacuum=True
    )
)
def test_block_path_matches_the_one_block_path(case):
    _matches_the_one_block_path(case)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(case=networks_and_schedules(units=(14, 20), kinds=("chain",), vacuum=True, samples=(3, 6)))
def test_a_squeezed_run_matches_the_expm_fold_and_the_one_block_path(case):
    # the random state fills all 13-19 relay blocks, more than 2 x 6 plus any tracked one, so
    # in the builder basis every window evolves them as the 6 rows of R: the sums come from R
    _matches_the_expm_fold(case)
    _matches_the_one_block_path(case)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    case=networks_and_schedules(
        units=(1, 6), kinds=("chain", "switch", "1x2", "2x2", "2x3"), vacuum=True, builder=True
    )
)
def test_a_flip_updates_the_collective_rows_as_the_site_reference(case):
    # every builder flip, then random flips and shifts, such as one inner atom of a vertex,
    # whose action on the collective rows is no signed permutation.  An empty window comes
    # first, so the steps after it act on the collective rows that the run without them ends on
    spec, schedule, initial, _, basis, renumbered = case
    atom_steps = tuple(step for step in schedule.steps if not isinstance(step, Evolve))
    ends = (schedule.source, schedule.target)
    for given_basis in (None, basis, renumbered):
        runs = [
            run_schedule(spec, Schedule(steps, *ends), initial, 2, basis=given_basis).final_state
            for steps in ((Evolve(0.0),), (Evolve(0.0), *atom_steps))
        ]
        expected = runs[0]
        for step in atom_steps:
            if isinstance(step, PhaseFlip):
                expected = local_phase_flip(expected, step.atom_sites)
            else:
                expected.amps[atom_index(step.site)] *= np.exp(1j * step.angle)
        assert np.abs(runs[1].amps - expected.amps).max() <= 1e-14
        assert runs[1].vac == initial.vac


@pytest.fixture
def windows(monkeypatch):
    """Calls of the window kernel made by ``run_schedule``, each as its block size, the number
    of blocks (or rows of R) it evolves, and its number of samples."""
    calls = []
    original = routing._evolve

    def counted(spectrum, amps, phases, *out):
        calls.append((spectrum.dim, amps.shape[0], phases.shape[1]))
        return original(spectrum, amps, phases, *out)

    monkeypatch.setattr(routing, "_evolve", counted)
    return calls


@pytest.mark.parametrize(
    "spec, basis, calls",
    [
        # the first window holds only the sender block.  The flip at site 1 reaches the first
        # relay block, the next one in the window, so from then on the span covers the sender
        # and that relay: two runs of one block each.  The receiver block, last in the window,
        # stays outside the span
        (
            build_diamond_chain(3, RESONANT),
            chain_collective_basis(3),
            [(4, 1, 3)] + [(4, 1, 3), (6, 1, 3)] * 2,
        ),
        (build_diamond_chain(3, RESONANT), None, [(20, 1, 3)] * 3),  # one block of all 20 modes
        # the four port blocks are one run, and the flip at port 1's empty atom moves nothing
        (build_switch(RESONANT), switch_collective_basis(), [(4, 1, 3)] * 3),
    ],
)
def test_a_run_calls_the_kernel_once_per_live_run_per_window(windows, spec, basis, calls):
    # the refusals below assert no call at all, which only means something if a run makes them
    steps = (Evolve(0.3), PhaseFlip((1,)), Evolve(0.2), Evolve(0.1))
    schedule = Schedule(steps, (0, "atom"), (1, "atom"))
    run_schedule(spec, schedule, samples_per_window=3, basis=basis)
    assert windows == calls


@pytest.mark.parametrize(
    "samples, calls",
    [
        # 15 relay blocks, one of them holding the tracked target, are more than 2 x 6 + 1: per
        # window the 6 rows of R at every sample, the tracked block at every sample, and all 15
        # blocks at the last sample only.  The sender and receiver are runs of one block
        (5, [(4, 1, 5), (6, 6, 5), (6, 1, 5), (6, 15, 1), (4, 1, 5)] * 2),
        # a 2-sample window never squeezes: every block evolves at both samples
        (2, [(4, 1, 2), (6, 15, 2), (4, 1, 2)] * 2),
    ],
)
def test_a_long_run_evolves_the_rows_of_r_at_every_sample(windows, samples, calls):
    spec, basis = build_diamond_chain(16, RESONANT), chain_collective_basis(16)
    initial = ExcitationState(np.full(spec.dim, 1.0 / math.sqrt(spec.dim)))  # in every block
    # site 15 is the vertex of unit 5, in the fifth relay block
    schedule = Schedule((Evolve(0.3), PhaseFlip((1,)), Evolve(0.2)), (0, "atom"), (15, "atom"))
    run_schedule(spec, schedule, initial, samples, basis=basis)
    assert windows == calls


# the benchmark's first 10-hop route on its 6x6 brick wall: 99 blocks, 12 windows
ROUTE_6X6 = ["r0c0", "r1c0", "r1c1", "r2c1", "r2c0", "r3c0", "r3c1", "r4c1", "r4c0", "r5c0", "r5c1"]


@pytest.mark.parametrize(
    "delta, t_upload, t_hop",
    [(0.0, T_UPLOAD, T_HOP), (-1000.0, 188.495939869, 266.570425424)],
    ids=["resonant", "dispersive"],
)
def test_blocks_a_route_never_reaches_stay_exactly_empty(monkeypatch, delta, t_upload, t_hop):
    # a flip writes only the collective rows of its atoms, and a builder flip moves a live row
    # onto an empty one exactly, so no block gets rounding residue that the span then evolves:
    # one call per run of one block matrix, and every evolved block is empty or holds amplitude
    peaks = []  # per call: the largest |amplitude| of each block it evolves
    original = routing._evolve

    def spied(spectrum, amps, *rest):
        peaks.append(np.abs(amps).max(axis=1))
        return original(spectrum, amps, *rest)

    monkeypatch.setattr(routing, "_evolve", spied)
    vertices, links = brick_wall(6, 6)
    desc = HexLatticeDescriptor(vertices, links, (ROUTE_6X6[0], ROUTE_6X6[-1]))
    spec = build_hex_lattice(desc, SystemParams(delta=delta))
    schedule = hex_routing_schedule(desc, ROUTE_6X6, t_upload, t_hop)
    run_schedule(spec, schedule, samples_per_window=2, basis=lattice_collective_basis(desc))
    assert len(peaks) == 23
    peaks = np.concatenate(peaks)
    assert not np.any((0.0 < peaks) & (peaks < 1e-12))


def test_a_state_all_in_the_vacuum_evolves_no_block(windows):
    spec = build_diamond_chain(3, RESONANT)
    initial = ExcitationState(np.zeros(spec.dim), vac=1.0)
    schedule = chain_routing_schedule(3, T_END, T_MID)
    trace = run_schedule(spec, schedule, initial, 5, basis=chain_collective_basis(3))
    assert windows == []
    assert not (trace.photon.any() or trace.populations.any() or trace.final_state.amps.any())
    assert np.array_equal(trace.norms, np.ones(trace.num_samples))


class TestRunScheduleRefusals:
    def test_basis_that_does_not_block_diagonalize_the_network(self, windows):
        # unit 1's -j edge (ids 2 -> 3) flipped to +j leaves a residual of sqrt(2) j
        spec = build_diamond_chain(3, RESONANT)
        edges = [(k, l, 1) if (k, l) == (2, 3) else (k, l, s) for k, l, s in spec.edges]
        broken = NetworkSpec(spec.sites, edges, spec.params)
        schedule = chain_routing_schedule(3, T_END, T_MID)
        with pytest.raises(ValueError, match=r"residual 1\.414e\+00"):
            run_schedule(broken, schedule, basis=chain_collective_basis(3))
        assert windows == []
        # the one-block path has no residual to refuse
        assert run_schedule(broken, schedule, samples_per_window=2).num_samples == 5

    def test_basis_row_mixing_cavity_and_atom_modes(self, windows):
        spec = build_diamond_chain(1, RESONANT)  # 8 modes
        q = np.eye(spec.dim)
        q[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)  # cavity and atom of site 0
        rows, cols = np.nonzero(q)
        groups = (("all", tuple(range(8))),)
        basis = OrthogonalTransform((rows, cols, q[rows, cols]), tuple("abcdefgh"), groups)
        with pytest.raises(ValueError, match="basis row 'a' mixes cavity and atom modes"):
            run_schedule(spec, chain_routing_schedule(1, T_END, T_MID), basis=basis)
        assert windows == []

    def test_basis_of_another_network(self, windows):
        spec, schedule = build_diamond_chain(3, RESONANT), chain_routing_schedule(3, T_END, T_MID)
        message = "^a 20-mode hamiltonian does not match the 14-mode basis$"
        with pytest.raises(ValueError, match=message):
            run_schedule(spec, schedule, basis=chain_collective_basis(2))
        assert windows == []

    @pytest.mark.parametrize("step", [PhaseFlip((1, 4)), PhaseShift(4, 0.5)])
    def test_step_site_outside_the_network(self, windows, step):
        spec = build_diamond_chain(1, RESONANT)  # sites 0-3
        schedule = Schedule((Evolve(0.1), step, Evolve(0.1)), (0, "atom"), (3, "atom"))
        with pytest.raises(ValueError, match=r"atom site must be an integer in \[0, 3\], got 4"):
            run_schedule(spec, schedule)
        assert windows == []
