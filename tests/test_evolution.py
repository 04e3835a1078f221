import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cavity_route import (
    DISPERSIVE,
    RESONANT,
    ExcitationState,
    NetworkSpec,
    Site,
    SystemParams,
    auto_grid_points,
    build_diamond_chain,
    build_single_excitation_hamiltonian,
    build_switch,
    eigendecompose,
    extract_block,
    find_transfer_time,
    photon_population,
    propagate,
    site_population,
    transition_amplitudes,
)
from cavity_route import evolution
from cavity_route.network import ARRAY_BUDGET


class TestExcitationState:
    def test_excitation_constructor(self):
        s = ExcitationState.excitation(6, 3)
        assert s.dim == 6
        assert s.population(3) == 1.0
        assert s.vac == 0.0

    def test_with_vacuum(self):
        r = 1 / np.sqrt(2)
        s = ExcitationState.with_vacuum(4, 1, r, r)
        assert s.norm_sq == pytest.approx(1.0, abs=1e-15)
        assert s.population(1) == pytest.approx(0.5)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ExcitationState(amps=np.array([1.0, 1.0], dtype=complex), vac=0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ExcitationState(amps=np.eye(2, dtype=complex), vac=0.0)

    def test_amps_are_copied(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        s = ExcitationState(amps=amps, vac=0.0)
        amps[0] = 0.0
        assert s.population(0) == 1.0


class TestEigendecompose:
    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigendecompose(np.zeros((2, 3)))

    def test_spectrum_reconstructs_matrix(self):
        h = extract_block(RESONANT, "mid").matrix
        s = eigendecompose(h)
        assert np.all(np.diff(s.eigenvalues) >= 0)
        rebuilt = s.eigenvectors @ np.diag(s.eigenvalues) @ s.eigenvectors.T
        assert np.allclose(rebuilt, h, atol=1e-12)

    def test_accepts_block_hamiltonian(self):
        block = extract_block(RESONANT, "end")
        assert eigendecompose(block).dim == 4


class TestPropagate:
    def test_t_zero_is_identity(self):
        h = extract_block(RESONANT, "end")
        s0 = ExcitationState.excitation(4, 1)
        s1 = propagate(eigendecompose(h), s0, 0.0)
        assert np.allclose(s1.amps, s0.amps, atol=1e-15)

    @pytest.mark.parametrize("t", [0.1, 2.2231, 17.0, 266.53])
    def test_norm_preserved(self, t):
        h = build_single_excitation_hamiltonian(build_diamond_chain(3, DISPERSIVE))
        s = propagate(eigendecompose(h), ExcitationState.excitation(20, 1), t)
        assert abs(s.norm_sq - 1.0) <= 1e-12

    def test_composition(self):
        h = build_single_excitation_hamiltonian(build_diamond_chain(2))
        spectrum = eigendecompose(h)
        s0 = ExcitationState.excitation(14, 1)
        once = propagate(spectrum, s0, 3.7)
        twice = propagate(spectrum, propagate(spectrum, s0, 1.4), 2.3)
        assert np.max(np.abs(once.amps - twice.amps)) <= 1e-10

    def test_vacuum_component_is_stationary(self):
        h = extract_block(RESONANT, "end")
        r = 1 / np.sqrt(2)
        s = ExcitationState.with_vacuum(4, 1, r, r * 1j)
        out = propagate(eigendecompose(h), s, 5.0)
        assert out.vac == s.vac

    @pytest.mark.parametrize(
        "make",
        [
            lambda: extract_block(RESONANT, "end").matrix,
            lambda: extract_block(DISPERSIVE, "mid").matrix,
            lambda: build_single_excitation_hamiltonian(build_diamond_chain(1)),
            lambda: build_single_excitation_hamiltonian(build_switch(DISPERSIVE)),
        ],
    )
    def test_against_matrix_exponential(self, make):
        h = make()
        assert h.shape[0] <= 16
        t = 1.2345
        u = expm(-1j * h * t)
        spectrum = eigendecompose(h)
        for src in range(h.shape[0]):
            out = propagate(spectrum, ExcitationState.excitation(h.shape[0], src), t)
            assert np.max(np.abs(out.amps - u[:, src])) <= 1e-10


class TestAmplitudesAndPopulations:
    def test_transition_amplitudes_match_propagate(self):
        h = extract_block(RESONANT, "mid")
        spectrum = eigendecompose(h)
        times = np.linspace(0.0, 5.0, 7)
        amps = transition_amplitudes(spectrum, 1, 5, times)
        for k, t in enumerate(times):
            state = propagate(spectrum, ExcitationState.excitation(6, 1), t)
            assert abs(amps[k] - state.amps[5]) <= 1e-12

    def test_photon_population_counts_even_modes(self):
        amps = np.zeros(6, dtype=complex)
        amps[0] = 0.6  # cavity of site 0
        amps[3] = 0.8  # atom of site 1
        s = ExcitationState(amps=amps, vac=0.0)
        assert photon_population(s) == pytest.approx(0.36)

    def test_site_population_kinds(self):
        amps = np.zeros(4, dtype=complex)
        amps[2] = 0.6
        amps[3] = 0.8
        s = ExcitationState(amps=amps, vac=0.0)
        assert site_population(s, 1, "cavity") == pytest.approx(0.36)
        assert site_population(s, 1, "atom") == pytest.approx(0.64)
        with pytest.raises(ValueError):
            site_population(s, 1, "qubit")


class TestFindTransferTime:
    def test_resonant_end_block(self):
        r = find_transfer_time(extract_block(RESONANT, "end"), 1, 3)
        assert r.t_star == pytest.approx(2.2231, rel=0.02)
        assert r.fidelity >= 0.999

    def test_phase_is_consistent_with_amplitude(self):
        h = extract_block(RESONANT, "end")
        r = find_transfer_time(h, 1, 3)
        amp = transition_amplitudes(eigendecompose(h), 1, 3, np.array([r.t_star]))[0]
        assert abs(amp) ** 2 == pytest.approx(r.fidelity, abs=1e-12)
        assert np.angle(amp) == pytest.approx(r.phase, abs=1e-12)

    def test_rejects_empty_window(self):
        h = extract_block(RESONANT, "end")
        with pytest.raises(ValueError):
            find_transfer_time(h, 1, 3, window=(5.0, 5.0))

    def test_rejects_bad_indices(self):
        h = extract_block(RESONANT, "end")
        with pytest.raises(ValueError):
            find_transfer_time(h, 1, 9)

    def test_rejects_tiny_grid(self):
        h = extract_block(RESONANT, "end")
        with pytest.raises(ValueError):
            find_transfer_time(h, 1, 3, grid_points=2)

    def test_deterministic(self):
        h = extract_block(DISPERSIVE, "upload")
        window = (0.0, 600.0)
        n = auto_grid_points(h, window)
        a = find_transfer_time(h, 1, 3, window=window, grid_points=n)
        b = find_transfer_time(h, 1, 3, window=window, grid_points=n)
        assert a == b

    def test_decoupled_pair_on_dispersive_grid(self, monkeypatch):
        # F is exactly 0 on the ~770k-point grid: a flat stretch is no maximum, so the
        # fallback hands one candidate to the refinement, not every interior point
        sizes = []

        def counted(weights, eigenvalues, t, lo, hi):
            sizes.append(t.shape[0])
            return newton(weights, eigenvalues, t, lo, hi)

        newton = evolution._newton_peaks
        monkeypatch.setattr(evolution, "_newton_peaks", counted)
        spec = NetworkSpec(sites=(Site(0, "a"), Site(1, "b")), edges=(), params=DISPERSIVE)
        h = build_single_excitation_hamiltonian(spec)
        window = (0.0, 600.0)
        r = find_transfer_time(h, 1, 3, window=window, grid_points=auto_grid_points(h, window))
        assert r.fidelity == 0.0
        assert window[0] < r.t_star < window[1]
        assert sizes == [1]

    def test_spectrum_passes_through(self):
        h = extract_block(DISPERSIVE, "hop")
        window = (0.0, 60.0)
        spectrum = eigendecompose(h)
        n = auto_grid_points(spectrum, window)
        assert n == auto_grid_points(h, window)
        expected = find_transfer_time(h, 1, 5, window=window, grid_points=n)
        assert find_transfer_time(spectrum, 1, 5, window=window, grid_points=n) == expected


SEARCH_PAIRS = {"end": (1, 3), "mid": (1, 5), "upload": (1, 3), "hop": (1, 5)}


@st.composite
def near_resonant_blocks(draw):
    """A block at random params with ``|delta| <= g``, where the CLI searches (0, 10)."""
    g = draw(st.floats(20.0, 100.0))
    params = SystemParams(delta=g * draw(st.floats(-1.0, 1.0)), g=g, j=draw(st.floats(0.5, 2.0)))
    block = draw(st.sampled_from(sorted(SEARCH_PAIRS)))
    return extract_block(params, block), SEARCH_PAIRS[block]


class TestSearchProperties:
    WINDOW = (0.0, 10.0)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(case=near_resonant_blocks())
    def test_peak_is_a_grid_independent_maximum(self, case):
        h, (source, target) = case
        n = auto_grid_points(h, self.WINDOW)
        r = find_transfer_time(h, source, target, window=self.WINDOW, grid_points=n)
        fine = find_transfer_time(h, source, target, window=self.WINDOW, grid_points=2 * n - 1)
        assert abs(fine.t_star - r.t_star) <= 1e-9
        assert abs(fine.fidelity - r.fidelity) <= 1e-12
        times = r.t_star + np.array([-1e-6, 0.0, 1e-6])
        amps = transition_amplitudes(eigendecompose(h), source, target, times)
        assert (np.abs(amps[[0, 2]]) ** 2).max() <= r.fidelity + 1e-12
        assert np.angle(amps[1] * np.exp(-1j * r.phase)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="a deeply modulated carrier peak can read more than _CANDIDATE_BAND below "
        "its value on the auto grid and drop out of the candidates",
    )
    def test_long_window_at_deep_carrier_modulation(self):
        h = extract_block(SystemParams(delta=80.0, g=80.0, j=1.2), "end")
        window = (0.0, 60.0)
        n = auto_grid_points(h, window)
        r = find_transfer_time(h, 1, 3, window=window, grid_points=n)
        fine = find_transfer_time(h, 1, 3, window=window, grid_points=2 * n - 1)
        assert abs(fine.t_star - r.t_star) <= 1e-9


@st.composite
def uniform_grids(draw):
    """Spectral weights, eigenvalues and a uniform grid ``(t_lo, step, n)``.

    The matrix is a random real symmetric one or a protocol block in either regime;
    ``n`` is tiny, next to a square (where the ladder's last row is full, one short
    or one over), or anything up to 1e6.
    """
    if draw(st.booleans()):
        dim = draw(st.integers(2, 8))
        entries = draw(st.lists(st.floats(-1000.0, 1000.0), min_size=dim * dim, max_size=dim * dim))
        a = np.reshape(entries, (dim, dim))
        spectrum = eigendecompose(a + a.T)
    else:
        params = draw(st.sampled_from([RESONANT, DISPERSIVE]))
        block = draw(st.sampled_from(sorted(SEARCH_PAIRS)))
        spectrum = eigendecompose(extract_block(params, block))
    index = st.integers(0, spectrum.dim - 1)
    weights = evolution._transition_weights(spectrum, draw(index), draw(index))
    t_lo, span = draw(st.floats(-600.0, 600.0)), draw(st.floats(1e-6, 600.0))
    k = draw(st.integers(2, 1000))
    n = draw(st.sampled_from([3, 4, k * k - 1, k * k, k * k + 1]) | st.integers(3, 10**6))
    return weights, spectrum.eigenvalues, t_lo, span / (n - 1), n


#: ``find_transfer_time`` on the CLI's auto grids, pinned from the per-point scan.
PINNED_AUTO_SEARCHES = {
    ("resonant", "end"): (2.2231494114374115, 0.9999985414671586, 2.489239568947271),
    ("resonant", "mid"): (3.1414067935277687, 0.9998539897742134, -3.14140679352775),
    ("resonant", "upload"): (1.5947737046804351, 0.9994251955169071, -0.023977377885541773),
    ("resonant", "hop"): (2.223017938380948, 0.9997060275416372, 0.9185747152088269),
    ("dispersive", "end"): (266.5735451646762, 0.9999956467418658, 2.040764272277931),
    ("dispersive", "mid"): (376.9918858949116, 0.9999816182594441, -0.3844961339966463),
    ("dispersive", "upload"): (188.4959398635186, 0.999995634270167, 2.950891334170152),
    ("dispersive", "hop"): (266.57042541347624, 0.9999718131369257, -2.6794172006769235),
}


class TestUniformScan:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=uniform_grids())
    def test_ladder_matches_per_point_phases(self, case):
        weights, eigenvalues, t_lo, step, n = case
        amp = evolution._amp_on_uniform_grid(weights, eigenvalues, t_lo, step, n)
        assert amp.shape == (n,)
        # both ends, where the ladder's rows start and stop, and a spread in between
        spread = np.linspace(0, n - 1, 3000).astype(int)
        idx = np.unique(np.r_[0 : min(n, 3000), max(0, n - 3000) : n, spread])
        times = t_lo + idx * step
        expected = evolution._amp_on_grid(weights, eigenvalues, times)
        # phases round at eps * lambda * t on both sides
        scale = 1.0 + np.abs(eigenvalues).max() * np.abs(times).max()
        bound = 16 * np.finfo(float).eps * scale * np.abs(weights).sum()
        assert np.abs(amp[idx] - expected).max() <= bound

    @pytest.mark.parametrize("regime, block", sorted(PINNED_AUTO_SEARCHES))
    def test_auto_search_matches_pinned(self, regime, block):
        params, t_max = {"resonant": (RESONANT, 10.0), "dispersive": (DISPERSIVE, 600.0)}[regime]
        window = (0.0, t_max)  # the CLI's default window
        h = extract_block(params, block)
        n = auto_grid_points(h, window)
        r = find_transfer_time(h, *SEARCH_PAIRS[block], window=window, grid_points=n)
        t_star, fidelity, phase = PINNED_AUTO_SEARCHES[regime, block]
        assert abs(r.t_star - t_star) <= 1e-12
        assert abs(r.fidelity - fidelity) <= 1e-12
        assert abs(np.angle(np.exp(1j * (r.phase - phase)))) <= 1e-12


class TestAutoGridPoints:
    def test_floor_applies_on_short_windows(self):
        h = extract_block(RESONANT, "end")
        assert auto_grid_points(h, (0.0, 10.0)) == 20001

    def test_scales_with_window(self):
        h = extract_block(DISPERSIVE, "end")
        n_short = auto_grid_points(h, (0.0, 60.0))
        n_long = auto_grid_points(h, (0.0, 600.0))
        assert n_long > n_short > 20001 / 2
        assert n_long > 20001

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            auto_grid_points(extract_block(RESONANT, "end"), (1.0, 1.0))

    def test_default_dispersive_grid_well_inside_budget(self):
        n = auto_grid_points(extract_block(DISPERSIVE, "end"), (0.0, 600.0))
        assert 700_000 < n < ARRAY_BUDGET / 10

    @pytest.mark.parametrize(
        "params, window",
        [(RESONANT, (0.0, 1e308)), (SystemParams(delta=1e300), (0.0, 600.0))],
    )
    def test_budget_refuses_huge_grids(self, params, window):
        # compared as a float: no OverflowError from an infinite point count
        with pytest.raises(ValueError, match="budget"):
            auto_grid_points(extract_block(params, "end"), window)


class TestSearchGuards:
    def test_grid_above_budget(self):
        with pytest.raises(ValueError, match="grid_points"):
            find_transfer_time(extract_block(RESONANT, "end"), 1, 3, grid_points=ARRAY_BUDGET + 1)

    def test_non_finite_scan(self):
        h = extract_block(RESONANT, "end")
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            find_transfer_time(h, 1, 3, window=(0.0, 1e308), grid_points=9)
