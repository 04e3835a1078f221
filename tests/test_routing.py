import math

import numpy as np
import pytest

from cavity_route import (
    RESONANT,
    Evolve,
    ExcitationState,
    HexLatticeDescriptor,
    PhaseFlip,
    PhaseShift,
    Schedule,
    build_diamond_chain,
    build_hex_lattice,
    build_switch,
    chain_routing_schedule,
    entanglement_transfer,
    extract_block,
    find_transfer_time,
    hex_routing_schedule,
    local_phase_flip,
    run_schedule,
    switch_port_flip,
    switch_schedule,
)

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

    def test_custom_track(self):
        spec, sched = self._spec_and_schedule()
        trace = run_schedule(
            spec, sched, samples_per_window=5, track=[("cav[1]", 0), ("atom[4]", 7)]
        )
        assert trace.labels == ("cav[1]", "atom[4]")

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
        bare = Schedule(steps=(PhaseFlip((2,)),), source=(0, "atom"), target=(6, "atom"))
        with pytest.raises(ValueError):
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
