"""Acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test also prints the measured numbers next to their targets.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import dense_hamiltonian
from cavity_route import (
    DISPERSIVE,
    RESONANT,
    Evolve,
    ExcitationState,
    HexLatticeDescriptor,
    PhaseFlip,
    auto_grid_points,
    build_diamond_chain,
    build_hex_lattice,
    build_single_excitation_hamiltonian,
    build_switch,
    block_decompose,
    chain_collective_basis,
    chain_routing_schedule,
    eigendecompose,
    entanglement_transfer,
    extract_block,
    find_transfer_time,
    hex_routing_schedule,
    lattice_collective_basis,
    local_phase_flip,
    propagate,
    run_schedule,
    site_population,
    switch_collective_basis,
    switch_port_flip,
    switch_schedule,
    transition_amplitudes,
    validate_analytic,
)

TWO_VERTEX = HexLatticeDescriptor(
    vertices=("a", "b"), links=(("a", 1, "b", 1),), uploads=("a", "b")
)

# published transfer times: block selector -> (source, target, t_resonant,
# resonant tolerance, t_dispersive); dispersive tolerance is 2% everywhere
TRANSFER_TARGETS = {
    "end": (1, 3, 2.2231, 0.02, 266.5300),
    "mid": (1, 5, 3.1410, 0.02, 376.9670),
    "upload": (1, 3, 1.5948, 0.03, 188.4710),
    "hop": (1, 5, 2.2230, 0.02, 266.5580),
}

RES_WINDOW = (0.0, 10.0)
DISP_WINDOW = (0.0, 600.0)


@lru_cache(maxsize=None)
def transfer_time(which: str, dispersive: bool):
    params = DISPERSIVE if dispersive else RESONANT
    window = DISP_WINDOW if dispersive else RES_WINDOW
    block = extract_block(params, which)
    source, target = TRANSFER_TARGETS[which][:2]
    grid = auto_grid_points(block, window)
    return find_transfer_time(block, source, target, window=window, grid_points=grid)


def test_criterion_01_block_structure():
    """Off-block residual <= 1e-12 for every topology."""
    cases = []
    for n in (1, 2, 5, 10):
        spec = build_diamond_chain(n, RESONANT)
        cases.append((f"chain n={n}", spec, chain_collective_basis(n)))
    cases.append(("switch", build_switch(RESONANT), switch_collective_basis()))
    cases.append(
        (
            "hex 2-vertex",
            build_hex_lattice(TWO_VERTEX, RESONANT),
            lattice_collective_basis(TWO_VERTEX),
        )
    )
    for name, spec, transform in cases:
        h = build_single_excitation_hamiltonian(spec)
        _, residual = block_decompose(h, transform)
        print(f"criterion 1 [{name}]: residual={residual:.3e} (<= 1e-12)")
        assert residual <= 1e-12, f"{name}: residual {residual:.3e} above 1e-12"


def test_criterion_02_analytic_oracle_equivalence():
    """Closed-form amplitudes match the numeric propagator to 1e-9."""
    from cavity_route import analytic_amplitudes

    grids = {False: np.linspace(*RES_WINDOW, 101), True: np.linspace(*DISP_WINDOW, 101)}
    for which in TRANSFER_TARGETS:
        for dispersive in (False, True):
            params = DISPERSIVE if dispersive else RESONANT
            times = grids[dispersive]
            err = validate_analytic(params, which, times)
            regime = "dispersive" if dispersive else "resonant"
            print(f"criterion 2 [{which} {regime}]: max_error={err:.3e} (<= 1e-9)")
            assert err <= 1e-9, f"{which} {regime}: analytic error {err:.3e}"
            # normalization of the closed-form amplitude vector
            u = analytic_amplitudes(params, which, times)
            norm_err = np.max(np.abs(np.sum(np.abs(u) ** 2, axis=1) - 1.0))
            assert norm_err <= 1e-9, f"{which} {regime}: normalization off by {norm_err:.3e}"


def test_criterion_03_resonant_transfer_times():
    """Published resonant peaks reproduced with fidelity >= 0.999."""
    for which, (_, _, target_t, tol, _) in TRANSFER_TARGETS.items():
        result = transfer_time(which, dispersive=False)
        rel = abs(result.t_star - target_t) / target_t
        print(
            f"criterion 3 [{which}]: t*={result.t_star:.6f} vs {target_t} "
            f"({100 * rel:.3f}% off, tol {100 * tol:.0f}%), F={result.fidelity:.6f}"
        )
        assert rel <= tol, f"{which}: t* {result.t_star:.6f} outside {target_t} +- {tol:.0%}"
        assert result.fidelity >= 0.999, f"{which}: fidelity {result.fidelity:.6f} < 0.999"


def test_criterion_04_dispersive_transfer_times():
    """Published dispersive peaks (delta = -1000) with fidelity >= 0.999."""
    for which, (_, _, _, _, target_t) in TRANSFER_TARGETS.items():
        result = transfer_time(which, dispersive=True)
        rel = abs(result.t_star - target_t) / target_t
        print(
            f"criterion 4 [{which}]: t*={result.t_star:.6f} vs {target_t} "
            f"({100 * rel:.3f}% off, tol 2%), F={result.fidelity:.6f}"
        )
        assert rel <= 0.02, f"{which}: t* {result.t_star:.6f} outside {target_t} +- 2%"
        assert result.fidelity >= 0.999, f"{which}: fidelity {result.fidelity:.6f} < 0.999"


@pytest.mark.parametrize("dispersive", [False, True], ids=["resonant", "dispersive"])
def test_criterion_05_chain_routing_n3(dispersive):
    """N=3 chain: final receiver-atom population >= 0.99, exact T identity."""
    params = DISPERSIVE if dispersive else RESONANT
    t1 = transfer_time("end", dispersive).t_star
    t2 = transfer_time("mid", dispersive).t_star
    spec = build_diamond_chain(3, params)
    schedule = chain_routing_schedule(3, t1, t2)
    trace = run_schedule(spec, schedule, samples_per_window=301)
    final = trace.final_population
    regime = "dispersive" if dispersive else "resonant"
    print(f"criterion 5 [{regime}]: final population={final:.6f} (>= 0.99)")
    assert final >= 0.99
    # the schedule is [t1, t2, t2, t1]; its total must be exactly 2 t1 + 2 t2
    assert schedule.total_evolve_time() == math.fsum([t1, t1, t2, t2])
    assert spec.sites[schedule.target[0]].label == "10"


def test_criterion_06_virtual_photon_regime():
    """Dispersive: photon population stays tiny; resonant: field shares half."""
    t1 = transfer_time("end", True).t_star
    t2 = transfer_time("mid", True).t_star
    spec = build_diamond_chain(3, DISPERSIVE)
    trace = run_schedule(spec, chain_routing_schedule(3, t1, t2), samples_per_window=2001)
    max_photon = float(trace.photon.max())
    bound = 4 * DISPERSIVE.g**2 / DISPERSIVE.delta**2
    print(f"criterion 6 [dispersive]: max F={max_photon:.5f} (<= 0.05, ~{bound:.4f} expected)")
    assert max_photon <= 0.05

    t1 = transfer_time("end", False).t_star
    t2 = transfer_time("mid", False).t_star
    spec = build_diamond_chain(3, RESONANT)
    trace = run_schedule(spec, chain_routing_schedule(3, t1, t2), samples_per_window=2001)
    mean_photon = float(np.trapezoid(trace.photon, trace.times) / trace.total_time)
    print(f"criterion 6 [resonant]: time-averaged F={mean_photon:.4f} (in [0.3, 0.7])")
    assert 0.3 <= mean_photon <= 0.7


def test_criterion_07_switch_steering():
    """Each port flip steers the uploaded state to its port; no cross-talk."""
    t = transfer_time("upload", dispersive=False).t_star
    spec = build_switch(RESONANT)
    spectrum = eigendecompose(dense_hamiltonian(spec))
    # the uploaded collective atom state the flips act on
    amps = np.zeros(spec.dim, dtype=complex)
    for site in (4, 5, 6, 7):
        amps[2 * site + 1] = 0.5
    uploaded = ExcitationState(amps=amps, vac=0.0)
    for port in (1, 2, 3):
        flipped = local_phase_flip(uploaded, switch_port_flip(0, port).atom_sites)
        delivered = propagate(spectrum, flipped, t)
        fidelity = site_population(delivered, port, "atom")
        leak = sum(site_population(delivered, k, "atom") for k in (1, 2, 3) if k != port)
        # and the complete upload-flip-download schedule must not cross-talk
        trace = run_schedule(spec, switch_schedule(port, t), samples_per_window=2)
        full_leak = sum(
            site_population(trace.final_state, k, "atom") for k in (1, 2, 3) if k != port
        )
        print(
            f"criterion 7 [port {port}]: steering fidelity={fidelity:.6f} (>= 0.999), "
            f"leakage={leak:.2e}, full-schedule leakage={full_leak:.2e} (<= 1e-6)"
        )
        assert fidelity >= 0.999, f"port {port}: steering fidelity {fidelity:.6f}"
        assert leak <= 1e-6 and full_leak <= 1e-6, f"port {port}: leakage {leak:.2e}"


def test_criterion_08_hex_lattice_routing():
    """2-vertex lattice: full-H routing >= 0.99 and block picture to 1e-9."""
    t_up = transfer_time("upload", dispersive=False).t_star
    t_hop = transfer_time("hop", dispersive=False).t_star
    spec = build_hex_lattice(TWO_VERTEX, RESONANT)
    schedule = hex_routing_schedule(TWO_VERTEX, ["a", "b"], t_up, t_hop)
    trace = run_schedule(spec, schedule, samples_per_window=2)
    print(f"criterion 8: full-lattice fidelity={trace.final_population:.6f} (>= 0.99)")
    assert trace.final_population >= 0.99

    # block-side replay: evolve under the block-diagonal part only
    transform = lattice_collective_basis(TWO_VERTEX)
    h = dense_hamiltonian(spec)
    q = np.zeros_like(h)  # the dense Q, scatter-added from its nonzeros
    np.add.at(q, transform.entries[:2], transform.entries[2])
    hc = q @ h @ q.T
    hb = np.zeros_like(hc)
    for _, rows in transform.groups:
        ix = np.ix_(rows, rows)
        hb[ix] = hc[ix]
    block_spectrum = eigendecompose(hb)
    y = transform.to_collective(
        ExcitationState.excitation(spec.dim, 2 * schedule.source[0] + 1).amps
    )
    for step in schedule.steps:
        if isinstance(step, Evolve):
            phases = np.exp(-1j * block_spectrum.eigenvalues * step.duration)
            y = block_spectrum.eigenvectors @ (phases * (block_spectrum.eigenvectors.T @ y))
        elif isinstance(step, PhaseFlip):
            flip_diag = np.ones(spec.dim)
            for site in step.atom_sites:
                flip_diag[2 * site + 1] = -1.0
            y = q @ (flip_diag * transform.from_collective(y))
    block_final = transform.from_collective(y)
    gap = float(np.max(np.abs(block_final - trace.final_state.amps)))
    print(f"criterion 8: full-vs-block per-amplitude gap={gap:.3e} (<= 1e-9)")
    assert gap <= 1e-9


def test_criterion_09_entanglement_transfer():
    """Bell fidelity >= 0.99 compensated; exact formula when uncompensated."""
    t1 = transfer_time("end", False).t_star
    t2 = transfer_time("mid", False).t_star
    spec = build_diamond_chain(2, RESONANT)
    schedule = chain_routing_schedule(2, t1, t2)

    compensated = entanglement_transfer(spec, schedule, compensate=True)
    print(f"criterion 9: compensated Bell fidelity={compensated.bell_fidelity:.6f} (>= 0.99)")
    assert compensated.bell_fidelity >= 0.99

    raw = entanglement_transfer(spec, schedule, compensate=False)
    u, theta = abs(raw.amplitude), np.angle(raw.amplitude)
    formula = ((1 + u * np.cos(theta)) ** 2 + (u * np.sin(theta)) ** 2) / 4
    # independent check: overlap of the evolved 2-branch state with the ideal
    final = raw.trace.final_state
    s = 1 / np.sqrt(2)
    overlap = abs(s * final.vac + s * final.amps[2 * schedule.target[0] + 1]) ** 2
    print(
        f"criterion 9: uncompensated={raw.bell_fidelity:.6f}, formula={formula:.6f}, "
        f"direct overlap={overlap:.6f}"
    )
    assert raw.bell_fidelity == pytest.approx(formula, abs=1e-12)
    assert raw.bell_fidelity == pytest.approx(overlap, abs=1e-12)


def test_criterion_10_property_suite():
    """Unitarity, composition, double flip, expm oracle, encoding freedom."""
    # unitarity: norm drift per evolution step
    h = dense_hamiltonian(build_diamond_chain(3, DISPERSIVE))
    spectrum = eigendecompose(h)
    state = ExcitationState.excitation(20, 1)
    worst_drift = 0.0
    for t in (0.7, 13.9, 266.53, 511.0):
        state = propagate(spectrum, state, t)
        worst_drift = max(worst_drift, abs(math.sqrt(state.norm_sq) - 1.0))
    print(f"criterion 10: norm drift={worst_drift:.3e} (<= 1e-12)")
    assert worst_drift <= 1e-12

    # composition
    s0 = ExcitationState.excitation(20, 1)
    once = propagate(spectrum, s0, 5.1)
    twice = propagate(spectrum, propagate(spectrum, s0, 2.3), 2.8)
    comp_gap = float(np.max(np.abs(once.amps - twice.amps)))
    print(f"criterion 10: composition gap={comp_gap:.3e} (<= 1e-10)")
    assert comp_gap <= 1e-10

    # double flip is exactly the identity
    rng = np.random.default_rng(42)
    amps = rng.normal(size=20) + 1j * rng.normal(size=20)
    amps /= np.linalg.norm(amps)
    st = ExcitationState(amps=amps, vac=0.0)
    assert np.array_equal(
        local_phase_flip(local_phase_flip(st, (2, 5, 8)), (2, 5, 8)).amps, st.amps
    )
    print("criterion 10: double flip exact (bitwise)")

    # matrix-exponential oracle on every small Hamiltonian
    oracles = [
        extract_block(RESONANT, "end").matrix,
        extract_block(DISPERSIVE, "mid").matrix,
        dense_hamiltonian(build_diamond_chain(1, RESONANT)),
        dense_hamiltonian(build_switch(DISPERSIVE)),
    ]
    worst_oracle = 0.0
    for hm in oracles:
        assert hm.shape[0] <= 16
        u = expm(-1j * hm * 1.618)
        sp = eigendecompose(hm)
        for src in range(hm.shape[0]):
            mine = transition_amplitudes(sp, src, src, np.array([1.618]))[0]
            worst_oracle = max(worst_oracle, abs(mine - u[src, src]))
            out = propagate(sp, ExcitationState.excitation(hm.shape[0], src), 1.618)
            worst_oracle = max(worst_oracle, float(np.max(np.abs(out.amps - u[:, src]))))
    print(f"criterion 10: expm oracle gap={worst_oracle:.3e} (<= 1e-10)")
    assert worst_oracle <= 1e-10

    # encoding independence of the routing fidelity
    t1 = transfer_time("end", False).t_star
    t2 = transfer_time("mid", False).t_star
    spec = build_diamond_chain(2, RESONANT)
    schedule = chain_routing_schedule(2, t1, t2)
    tgt = 2 * schedule.target[0] + 1
    plain = run_schedule(spec, schedule, samples_per_window=2).final_amplitude
    gaps = []
    for alpha in (0.0, 0.5, 1 / np.sqrt(2), 0.9):
        beta = math.sqrt(1.0 - alpha * alpha)
        init = ExcitationState.with_vacuum(spec.dim, 1, beta, alpha)
        out = run_schedule(spec, schedule, initial=init, samples_per_window=2)
        gaps.append(abs(out.final_state.amps[tgt] / beta - plain))
    print(f"criterion 10: encoding independence gap={max(gaps):.3e} (<= 1e-12)")
    assert max(gaps) <= 1e-12
