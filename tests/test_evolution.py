import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import dense_hamiltonian
from cavity_route import (
    DISPERSIVE,
    RESONANT,
    ExcitationState,
    NetworkSpec,
    Site,
    SystemParams,
    auto_grid_points,
    build_diamond_chain,
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

    def test_rejects_deeper_stacks(self):
        # one matrix at a time: run_schedule broadcasts one spectrum over a stack of states
        for shape in ((2, 3, 3), (2, 2, 3, 3)):
            with pytest.raises(ValueError, match="square"):
                eigendecompose(np.zeros(shape))


def test_evolve_on_a_stack_matches_each_matrix():
    # run_schedule's form: one spectrum over a (blocks, dim) stack of states, in both regimes
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    times = np.linspace(0.0, 3.0, 11)
    for params in (RESONANT, DISPERSIVE):
        m = extract_block(params, "hop").matrix
        spectrum = eigendecompose(m)
        phases = evolution._phases(spectrum, times)
        stacked = evolution._evolve(spectrum, amps, phases)
        assert stacked.shape == (3, 6, 11)
        # the dispersive block reaches |H| t ~ 3e3, where expm itself keeps about 1e-12
        expected = expm(-1j * m * times[:, None, None]) @ amps.T  # (times, modes, blocks)
        for k in range(3):
            alone = evolution._evolve(spectrum, amps[k], phases)
            assert np.abs(alone - stacked[k]).max() <= 1e-13
            assert np.abs(stacked[k] - expected[:, :, k].T).max() <= 1e-10


@pytest.mark.parametrize("shape", [(1, 4, 1), (3, 6, 7), (40, 6, 241), (12, 1)])
def test_evolve_writes_the_complex_product_into_a_slice(shape):
    # the (blocks, dim) stacks of run_schedule and the (dim, 1) column of propagate; the real
    # GEMM on the float view must give the complex product of the real V, written into a view
    # of a buffer
    rng = np.random.default_rng(sum(shape))
    *stack, size, samples = shape
    m = rng.normal(size=(size, size))
    spectrum = eigendecompose(m + m.T)
    amps = rng.normal(size=(*stack, size)) + 1j * rng.normal(size=(*stack, size))
    phases = evolution._phases(spectrum, rng.uniform(0.0, 5.0, samples))
    buffer = np.full((3 + amps.size + 2, samples), np.nan, dtype=complex)
    window = buffer[3:-2].reshape(*stack, size, samples)
    weighted = np.empty_like(window)
    result = evolution._evolve(spectrum, amps, phases, (weighted, window))
    assert result is window
    assert np.isnan(buffer[:3]).all() and np.isnan(buffer[-2:]).all()
    v = spectrum.eigenvectors
    assert np.array_equal(weighted, phases * (v.T @ amps[..., None]))
    expected = v.astype(complex) @ weighted
    scale = size * np.abs(weighted).max()
    assert np.abs(result - expected).max() <= 4 * np.finfo(float).eps * scale
    # without buffers the same values come back
    assert np.array_equal(evolution._evolve(spectrum, amps, phases), result)


class TestPropagate:
    def test_t_zero_is_identity(self):
        h = extract_block(RESONANT, "end")
        s0 = ExcitationState.excitation(4, 1)
        s1 = propagate(eigendecompose(h), s0, 0.0)
        assert np.allclose(s1.amps, s0.amps, atol=1e-15)

    @pytest.mark.parametrize("t", [0.1, 2.2231, 17.0, 266.53])
    def test_norm_preserved(self, t):
        h = dense_hamiltonian(build_diamond_chain(3, DISPERSIVE))
        s = propagate(eigendecompose(h), ExcitationState.excitation(20, 1), t)
        assert abs(s.norm_sq - 1.0) <= 1e-12

    def test_composition(self):
        h = dense_hamiltonian(build_diamond_chain(2))
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
            lambda: dense_hamiltonian(build_diamond_chain(1)),
            lambda: dense_hamiltonian(build_switch(DISPERSIVE)),
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

    def test_amplitudes_hold_a_bounded_chunk_of_phases(self):
        # 8192 times at once would be 34 MB of phases on 256 modes, for a 131 kB result; a chunk
        # of _CHUNK // 256 times holds 1 MB
        h = np.diag(np.ones(255), 1)
        spectrum = eigendecompose(h + h.T)
        times = np.linspace(0.0, 50.0, 8192)
        tracemalloc.start()
        try:
            amps = transition_amplitudes(spectrum, 0, 255, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        for k in range(0, 8192, 1023):  # across the chunk joints
            state = propagate(spectrum, ExcitationState.excitation(256, 0), times[k])
            assert abs(amps[k] - state.amps[255]) <= 1e-12

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        dim=st.integers(2, 8),
        columns=st.sampled_from([(), (3,)]),
        chunks=st.integers(0, 2),
        edge=st.integers(-3, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_masked_rows_round_as_in_the_whole_product(self, dim, columns, chunks, edge, seed):
        # a row's place in a BLAS product sets its rounding: the search's masked final evaluation
        # is bitwise the whole pool's only if a mask keeps every row in its place
        rng = np.random.default_rng(seed)
        size = max(1, chunks * (evolution._CHUNK // dim) + edge)  # about a chunk boundary
        eigenvalues = np.sort(rng.uniform(-1000.0, 1000.0, dim))
        weights = rng.normal(size=(dim, *columns))  # real, as the transition weights are
        if columns:  # complex, as Newton's columns A, A', A'' are
            weights = weights + 1j * rng.normal(size=weights.shape)
        times, rows = rng.uniform(0.0, 600.0, size), rng.random(size) < rng.random()
        whole = evolution._amp_on_grid(weights, eigenvalues, times)
        masked = evolution._amp_on_grid(weights, eigenvalues, times, rows)
        assert masked[rows].tobytes() == whole[rows].tobytes()

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
        pools = pruning_inputs(monkeypatch)
        spec = NetworkSpec(sites=(Site(0, "a"), Site(1, "b")), edges=(), params=DISPERSIVE)
        h = dense_hamiltonian(spec)
        window = (0.0, 600.0)
        n = auto_grid_points(h, window)
        r = find_transfer_time(h, 1, 3, window=window, grid_points=n)
        assert r.fidelity == 0.0
        assert r.t_star == np.linspace(*window, n)[1]  # the first highest interior point
        for rows in (1, 2, 3):  # the flat stretch crosses every chunk joint
            scan_in_rows(monkeypatch, rows)
            assert find_transfer_time(h, 1, 3, window=window, grid_points=n) == r
        assert [len(pool) for pool in pools] == [1] * 4

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
    """A block at random params with ``|delta| <= g``, searched over (0, 10)."""
    g = draw(st.floats(20.0, 100.0))
    params = SystemParams(delta=g * draw(st.floats(-1.0, 1.0)), g=g, j=draw(st.floats(0.5, 2.0)))
    block = draw(st.sampled_from(sorted(SEARCH_PAIRS)))
    return extract_block(params, block), SEARCH_PAIRS[block]


@st.composite
def dispersive_blocks(draw):
    """A block at random params with ``g`` 40-90, ``j`` 0.5-1.5 and ``delta`` -1500 to -300."""
    g, j = draw(st.floats(40.0, 90.0)), draw(st.floats(0.5, 1.5))
    params = SystemParams(delta=draw(st.floats(-1500.0, -300.0)), g=g, j=j)
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

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(case=dispersive_blocks())
    @example(case=(extract_block(SystemParams(delta=-1500.0, g=40.0, j=0.5), "mid"), (1, 5)))
    def test_default_window_finds_the_first_period_peak(self, case):
        # the default window ends 0.05 periods past the first; twice it, 2.1 periods, on the
        # same grid step (so the wide grid starts with the default one), finds the same peak
        h, (source, target) = case
        spectrum = eigendecompose(h)
        window = evolution._default_window(spectrum, source, target)
        try:
            r = find_transfer_time(spectrum, source, target)
        except ValueError as exc:  # the default grid is over the budget
            assert "budget" in str(exc)
            return
        n = min(2 * auto_grid_points(spectrum, window) - 1, ARRAY_BUDGET)
        wide = find_transfer_time(spectrum, source, target, (0.0, 2 * window[1]), grid_points=n)
        assert abs(wide.t_star - r.t_star) <= 1e-9 * r.t_star
        assert abs(wide.fidelity - r.fidelity) <= 1e-12


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


#: ``find_transfer_time`` over (0, 10) and (0, 600) on their auto grids, pinned under the BLAS
#: kernel of ``conftest.py``; the CLI prints the same 12 digits from its default windows.
PINNED_AUTO_SEARCHES = {
    ("resonant", "end"): (2.2231494114374115, 0.9999985414671586, 2.489239568947271),
    ("resonant", "mid"): (3.141406793527768, 0.9998539897742122, -3.1414067935277714),
    ("resonant", "upload"): (1.5947737046804351, 0.9994251955169071, -0.02397737788554177),
    ("resonant", "hop"): (2.223017938380949, 0.9997060275416358, 0.9185747152088342),
    ("dispersive", "end"): (266.5735451646762, 0.9999956467418658, 2.040764272277931),
    ("dispersive", "mid"): (376.9918858949117, 0.9999816182599841, -0.3844961340256955),
    ("dispersive", "upload"): (188.4959398635186, 0.999995634270167, 2.950891334170152),
    ("dispersive", "hop"): (266.57042541347624, 0.9999718131381847, -2.679417200676919),
}


class TestUniformScan:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=uniform_grids())
    def test_ladder_matches_per_point_phases(self, case):
        weights, eigenvalues, t_lo, step, n = case
        amp = grid_amplitudes(weights, eigenvalues, t_lo, step, n)
        # both ends, where the ladder's rows start and stop, and a spread in between
        spread = np.linspace(0, n - 1, 3000).astype(int)
        idx = np.unique(np.r_[0 : min(n, 3000), max(0, n - 3000) : n, spread])
        times = t_lo + idx * step
        expected = evolution._amp_on_grid(weights, eigenvalues, times)
        # phases round at eps * lambda * t on both sides
        scale = 1.0 + np.abs(eigenvalues).max() * np.abs(times).max()
        bound = 16 * np.finfo(float).eps * scale * np.abs(weights).sum()
        assert np.abs(amp[idx] - expected).max() <= bound

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=uniform_grids())
    def test_row_bound_holds_on_every_point(self, case):
        # protocol blocks of both regimes reach |lambda t| ~ 1e6, random spectra ~ 1e7
        weights, eigenvalues, t_lo, step, n = case
        heads, ladder, bound = evolution._uniform_rows(weights, eigenvalues, t_lo, step, n)
        f = np.zeros(heads.shape[0] * ladder.shape[1])
        f[:n] = np.abs(grid_amplitudes(weights, eigenvalues, t_lo, step, n)) ** 2
        assert (f.reshape(heads.shape[0], -1).max(1) <= bound).all()

    @pytest.mark.parametrize("regime, block", sorted(PINNED_AUTO_SEARCHES))
    def test_auto_search_matches_pinned(self, regime, block):
        params, t_max = {"resonant": (RESONANT, 10.0), "dispersive": (DISPERSIVE, 600.0)}[regime]
        window = (0.0, t_max)
        h = extract_block(params, block)
        n = auto_grid_points(h, window)
        given = find_transfer_time(h, *SEARCH_PAIRS[block], window=window, grid_points=n)
        # the default window, (0, 1.05 P) on its own auto grid, finds the same peak; the
        # former default (0, 10) gave the dispersive end block t_star = 9.994 and F = 0.004
        default = find_transfer_time(h, *SEARCH_PAIRS[block])
        t_star, fidelity, phase = PINNED_AUTO_SEARCHES[regime, block]
        for r in (given, default):
            assert abs(r.t_star - t_star) <= 1e-12
            assert abs(r.fidelity - fidelity) <= 1e-12
            assert abs(np.angle(np.exp(1j * (r.phase - phase)))) <= 1e-12


def one_shot_peaks(amp):
    """The scan's candidates from the whole grid at once: the reference for the chunked scan."""
    f = np.abs(amp) ** 2
    interior = np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:])) + 1
    if interior.size == 0:
        interior = np.array([int(np.argmax(f[1:-1])) + 1])
    peaks = interior[f[interior] >= float(f[interior].max()) - evolution._CANDIDATE_BAND]
    return peaks, f[peaks], amp[peaks]


def grid_amplitudes(weights, eigenvalues, t_lo, step, n):
    """The whole grid from the uniform scan's chunks, checking their size and order."""
    heads, ladder, _ = evolution._uniform_rows(weights, eigenvalues, t_lo, step, n)
    starts, chunks = zip(*evolution._uniform_chunks(heads, ladder, n, [(0, heads.shape[0])]))
    # whole ladder rows of m = isqrt(n) + 1 points, at most _CHUNK points unless one row is more
    assert ladder.shape[1] == math.isqrt(n) + 1
    assert max(chunk.size for chunk in chunks) <= max(evolution._CHUNK, math.isqrt(n) + 1)
    assert list(starts) == [0, *np.cumsum([chunk.size for chunk in chunks[:-1]])]
    amp = np.concatenate(chunks)
    assert amp.shape == (n,)
    return amp


def scan_in_rows(monkeypatch, rows):
    """Make the uniform scan take ``rows`` ladder rows per chunk; ``_amp_on_grid`` keeps its own."""
    chunks = evolution._uniform_chunks

    def narrow(heads, ladder, n, runs):
        with monkeypatch.context() as patch:
            patch.setattr(evolution, "_CHUNK", rows * ladder.shape[1])
            yield from chunks(heads, ladder, n, runs)

    monkeypatch.setattr(evolution, "_uniform_chunks", narrow)


def skip_no_rows(monkeypatch):
    """The full in-order scan: no ladder row is skipped, whatever its bound."""

    def every_row(heads, ladder, bound, n):
        return [(0, heads.shape[0])]

    monkeypatch.setattr(evolution, "_rows_to_scan", every_row)


def count_scanned_points(monkeypatch):
    """Record, per ``_uniform_chunks`` call, the number of grid points it evaluates."""
    counts = []
    chunks = evolution._uniform_chunks

    def counted(heads, ladder, n, runs):
        counts.append(0)
        for start, amp in chunks(heads, ladder, n, runs):
            counts[-1] += amp.size
            yield start, amp

    monkeypatch.setattr(evolution, "_uniform_chunks", counted)
    return counts


def pruning_inputs(monkeypatch):
    """Record the grid indices of the candidate pool that the scan hands to the pruning step."""
    seen = []
    scan = evolution._scan_peaks

    def spy(chunks, n, window):
        pool = scan(chunks, n, window)
        seen.append(pool[0].tolist())
        return pool

    monkeypatch.setattr(evolution, "_scan_peaks", spy)
    return seen


@st.composite
def search_cases(draw):
    """A block at random params, near resonance or dispersive, and a window in its regime.

    A dispersive window is up to 600 long, or holds two periods of the slow envelope.
    """
    g = draw(st.floats(20.0, 100.0))
    dispersive = draw(st.booleans())
    delta = g * draw(st.floats(-12.0, -3.0) if dispersive else st.floats(-1.0, 1.0))
    params = SystemParams(delta=delta, g=g, j=draw(st.floats(0.5, 2.0)))
    block = draw(st.sampled_from(sorted(SEARCH_PAIRS)))
    h, (source, target) = extract_block(params, block), SEARCH_PAIRS[block]
    span = draw(st.floats(20.0, 600.0) if dispersive else st.floats(2.0, 10.0))
    if dispersive and draw(st.booleans()):
        spectrum = eigendecompose(h)
        weights = evolution._transition_weights(spectrum, source, target)
        span = 2 * evolution._envelope_period(weights, spectrum.eigenvalues)
    t_lo = draw(st.floats(0.0, 5.0))
    return h, (source, target), (t_lo, t_lo + span)


class TestStreamingScan:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 0.5, 0.7, 0.9, 1.0, -1.0, 0.9j]), min_size=3),
        cuts=st.lists(st.integers(1, 4), min_size=1, max_size=40),
    )
    def test_chunked_candidates_match_the_whole_grid(self, values, cuts):
        # few distinct |A|: maxima, flat stretches and ties land on every chunk joint
        amp = np.array(values, dtype=complex)
        ends = np.cumsum(cuts)
        starts = [0, *ends[ends < amp.size]]
        pieces = np.split(amp, starts[1:])
        got = evolution._scan_peaks(zip(starts, pieces), amp.size, (0.0, 1.0))
        for have, want in zip(got, one_shot_peaks(amp)):
            assert have.tobytes() == want.tobytes()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        runs=st.lists(
            st.lists(st.sampled_from([0.0, 0.5, 0.7, 0.9, 1.0, 0.9j]), min_size=1, max_size=12),
            min_size=1,
            max_size=4,
        ),
        gaps=st.lists(st.integers(1, 3), min_size=4, max_size=4),
    )
    def test_a_gap_restarts_the_maxima_test(self, runs, gaps):
        # each run of points is tested on its own: its first point is no maximum, its last is
        # never tested, and only the band is measured from the top over all runs
        chunks, want, start = [], [], 0
        for values, gap in zip(runs, gaps):
            amp = np.array(values, dtype=complex)
            chunks.append((start, amp))
            f = np.abs(amp) ** 2
            hits = np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:])) + 1
            want += [(start + h, f[h], amp[h]) for h in hits]
            start += amp.size + gap
        assume(want)  # without a maximum the candidate comes from a scan of every point
        top = max(f for _, f, _ in want)
        want = [w for w in want if w[1] >= top - evolution._CANDIDATE_BAND]
        got = evolution._scan_peaks(iter(chunks), start, (0.0, 1.0))
        for have, column in zip(got, zip(*want)):
            assert have.tobytes() == np.array(column).tobytes()

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(case=search_cases())
    def test_chunk_boundaries_leave_the_search_unchanged(self, case):
        h, (source, target), window = case
        spectrum = eigendecompose(h)
        n = auto_grid_points(spectrum, window)
        with pytest.MonkeyPatch.context() as patch:
            seen = pruning_inputs(patch)
            expected = find_transfer_time(spectrum, source, target, window=window, grid_points=n)
            for rows in (1, 2, 3):
                scan_in_rows(patch, rows)
                result = find_transfer_time(spectrum, source, target, window=window, grid_points=n)
                assert np.array(result).tobytes() == np.array(expected).tobytes()
        assert seen[1:] == seen[:1] * 3

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(case=search_cases())
    @example(case=(extract_block(DISPERSIVE, "end"), SEARCH_PAIRS["end"], (0.0, 1200.0)))
    def test_skipped_rows_leave_the_search_unchanged(self, case):
        h, (source, target), window = case
        spectrum = eigendecompose(h)
        n = auto_grid_points(spectrum, window)
        with pytest.MonkeyPatch.context() as patch:
            seen = pruning_inputs(patch)
            result = find_transfer_time(spectrum, source, target, window=window, grid_points=n)
            skip_no_rows(patch)
            expected = find_transfer_time(spectrum, source, target, window=window, grid_points=n)
        assert np.array(result).tobytes() == np.array(expected).tobytes()
        assert seen[0] == seen[1]

    def test_a_candidate_on_the_edge_of_a_kept_row(self):
        # F = 0.914, 0.947, 0.979, 0.998, 0.997 in rows (0, 1, 2) and (3, 4): only the second
        # row's bound reaches the band, and its maximum, point 3, needs point 2 of the first
        eigenvalues = np.array([-0.6653679750813827, 0.652647409592608])
        weights = np.array([0.9710645599605856, 0.028935440039414433])
        t_lo, step, n = 93.73307627384357, 0.46177320451585735, 5
        heads, ladder, bound = evolution._uniform_rows(weights, eigenvalues, t_lo, step, n)
        assert bound[0] < bound[1] - evolution._CANDIDATE_BAND
        runs = evolution._rows_to_scan(heads, ladder, bound, n)
        assert runs == [[0, 2]]  # the run of row 1, widened by its neighbour
        peaks = evolution._scan_peaks(evolution._uniform_chunks(heads, ladder, n, runs), n, None)
        assert peaks[0].tolist() == [3]

    @pytest.mark.parametrize("regime", ["resonant", "dispersive"])
    def test_points_scanned_on_the_reference_blocks(self, monkeypatch, regime):
        params, t_max = {"resonant": (RESONANT, 10.0), "dispersive": (DISPERSIVE, 600.0)}[regime]
        for block, (source, target) in SEARCH_PAIRS.items():
            h = extract_block(params, block)
            n = auto_grid_points(h, (0.0, t_max))
            with monkeypatch.context() as patch:
                counts = count_scanned_points(patch)
                result = find_transfer_time(h, source, target, window=(0.0, t_max), grid_points=n)
            assert result == PINNED_AUTO_SEARCHES[regime, block]
            if regime == "resonant":  # every row's bound reaches the band: no seed pass
                assert counts == [n]
            else:  # the seed pass and the rows near the peak
                assert len(counts) == 2 and sum(counts) <= 0.15 * n

    @pytest.mark.parametrize("place", [0, -1], ids=["first-of-a-chunk", "last-of-a-chunk"])
    def test_maximum_on_a_chunk_boundary(self, monkeypatch, place):
        spectrum = eigendecompose(extract_block(RESONANT, "end"))
        weights, window = evolution._transition_weights(spectrum, 1, 3), (0.0, 10.0)
        for n in range(20001, 20401):  # a grid with a candidate at that end of a ladder row
            step = window[1] / (n - 1)
            heads, ladder, _ = evolution._uniform_rows(weights, spectrum.eigenvalues, 0.0, step, n)
            chunks = evolution._uniform_chunks(heads, ladder, n, [(0, heads.shape[0])])
            peaks = evolution._scan_peaks(chunks, n, window)[0]
            if np.any((peaks - place) % (math.isqrt(n) + 1) == 0):
                break
        else:
            pytest.fail("no grid puts a candidate at that end of a row")
        seen = pruning_inputs(monkeypatch)
        expected = find_transfer_time(spectrum, 1, 3, window=window, grid_points=n)  # one chunk
        scan_in_rows(monkeypatch, 1)  # one row per chunk: the candidate is on a joint
        assert find_transfer_time(spectrum, 1, 3, window=window, grid_points=n) == expected
        assert seen[1] == seen[0]

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        t_lo=st.floats(-1e300, 1e300),
        t_hi=st.floats(-1e300, 1e300),
        n=st.integers(3, 10**6),
        picks=st.lists(st.floats(0.0, 1.0), max_size=5),
    )
    @example(t_lo=0.0, t_hi=1e-320, n=20001, picks=[0.5])  # the step underflows to 0
    @example(t_lo=-600.0, t_hi=600.0, n=771901, picks=[])
    def test_grid_times_match_linspace(self, t_lo, t_hi, n, picks):
        assume(t_hi > t_lo and np.isfinite(t_hi - t_lo))
        index = np.unique([0, 1, n - 2, n - 1, *(int(p * (n - 1)) for p in picks)])
        times = evolution._grid_times(index, t_lo, t_hi, n)
        assert times.tobytes() == np.linspace(t_lo, t_hi, n)[index].tobytes()

    def test_dispersive_search_never_holds_its_grid(self):
        # the 772k-point grid alone would be 12 MB of amplitudes and 6 MB of |A|^2
        h = extract_block(DISPERSIVE, "mid")
        assert auto_grid_points(h, (0.0, 600.0)) > 700_000
        tracemalloc.start()
        try:
            result = find_transfer_time(h, 1, 5, window=(0.0, 600.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == PINNED_AUTO_SEARCHES["dispersive", "mid"]
        assert peak < 8e6


#: Candidates that Newton refines past its first step in each reference search: on the default
#: window, then on (0, 10) or (0, 600), as in ``test_auto_search_matches_pinned``.  The scan's
#: pools hold 3-12 resonant candidates, refined whole but for those past the first envelope
#: period, and 1,125-3,008 dispersive ones.
NEWTON_COUNTS = {
    "resonant": {"end": [5, 5], "mid": [5, 5], "upload": [4, 4], "hop": [3, 3]},
    "dispersive": {"end": [13, 34], "mid": [39, 7], "upload": [15, 3], "hop": [20, 8]},
}


class TestPruning:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(case=uniform_grids(), place=st.floats(0.0, 1.0))
    def test_bracket_bound_holds_and_follows_the_clusters(self, case, place):
        weights, eigenvalues, t_lo, step, n = case
        peak = 1 + round(place * (n - 3))
        t, t_hi = t_lo + peak * step, max(abs(t_lo), abs(t_lo + (n - 1) * step))
        heads, ladder, _ = evolution._uniform_rows(weights, eigenvalues, t_lo, step, n)
        args = (heads, ladder, np.array([peak]), step, t_hi)
        bound = evolution._bracket_bounds(weights, eigenvalues, *args)
        brackets = np.array([[t], [t - step], [t + step]])
        refined = evolution._newton_peaks(weights, eigenvalues, brackets)
        times = np.append(np.linspace(t - step, t + step, 257), refined)
        assert (np.abs(evolution._amp_on_grid(weights, eigenvalues, times)) ** 2 <= bound).all()
        # no looser than each cluster's own spread allows: sum |w_k w_l| (lambda_k - lambda_l)^2
        # within a cluster is at most (W_c spread_c)^2
        cuts = np.flatnonzero(np.diff(eigenvalues) > 0.1 * (eigenvalues[-1] - eigenvalues[0])) + 1
        reach = 0.0
        for lam, w in zip(np.split(eigenvalues, cuts), np.split(weights, cuts)):
            ends = np.abs(evolution._amp_on_grid(w, lam, [t - step, t, t + step])) ** 2
            curvature = (np.abs(w).sum() * np.ptp(lam)) ** 2
            reach += math.sqrt(ends.max() + curvature * step**2 / 8)
        assert bound[0] <= (reach + 1e-6 * np.abs(weights).sum()) ** 2

    def test_bound_gathers_a_large_pool_in_chunks(self, monkeypatch):
        spectrum = eigendecompose(extract_block(DISPERSIVE, "end"))
        weights, (t_lo, t_hi) = evolution._transition_weights(spectrum, 1, 3), (0.0, 600.0)
        n = auto_grid_points(spectrum, (t_lo, t_hi))
        step = (t_hi - t_lo) / (n - 1)
        heads, ladder, _ = evolution._uniform_rows(weights, spectrum.eigenvalues, t_lo, step, n)
        chunks = evolution._uniform_chunks(heads, ladder, n, [(0, heads.shape[0])])
        peaks, f_grid, _ = evolution._scan_peaks(chunks, n, (t_lo, t_hi))
        args = (weights, spectrum.eigenvalues, heads, ladder, peaks, step, t_hi)
        ceiling = evolution._bracket_bounds(*args)
        assert peaks.size > 1000 and (f_grid <= ceiling).all()
        monkeypatch.setattr(evolution, "_CHUNK", 7 * spectrum.dim)  # 7 candidates at a time
        assert np.allclose(evolution._bracket_bounds(*args), ceiling, rtol=1e-12, atol=0)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(case=search_cases())
    @example(case=(extract_block(DISPERSIVE, "end"), SEARCH_PAIRS["end"], (0.0, 1200.0)))
    # pruned against the best refined F with no horizon rule, this search picks t* = 7.877
    @example(case=(extract_block(RESONANT, "upload"), SEARCH_PAIRS["upload"], (0.0, 10.0)))
    def test_unrefined_candidates_lose_the_pick(self, case):
        h, (source, target), window = case
        spectrum = eigendecompose(h)
        n = auto_grid_points(spectrum, window)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evolution, "_WHOLE_POOL", 0)  # prune even the smallest pools
            result = find_transfer_time(spectrum, source, target, window=window, grid_points=n)
            patch.setattr(evolution, "_WHOLE_POOL", math.inf)  # no pool bounded, none pruned
            expected = find_transfer_time(spectrum, source, target, window=window, grid_points=n)
        assert np.array(result).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("regime", ["resonant", "dispersive"])
    def test_newton_refines_few_candidates_on_the_reference_blocks(self, monkeypatch, regime):
        params, t_max = {"resonant": (RESONANT, 10.0), "dispersive": (DISPERSIVE, 600.0)}[regime]
        counts = []
        newton = evolution._newton_peaks

        def counted(weights, eigenvalues, brackets):
            counts[-1] += brackets.shape[1]
            return newton(weights, eigenvalues, brackets)

        monkeypatch.setattr(evolution, "_newton_peaks", counted)
        for block, (source, target) in SEARCH_PAIRS.items():
            h = extract_block(params, block)
            for window in (None, (0.0, t_max)):
                n = None if window is None else auto_grid_points(h, window)
                counts.append(0)
                result = find_transfer_time(h, source, target, window=window, grid_points=n)
                assert result == PINNED_AUTO_SEARCHES[regime, block]
        assert counts == [c for block in SEARCH_PAIRS for c in NEWTON_COUNTS[regime][block]]


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
        spectrum = eigendecompose(extract_block(DISPERSIVE, "end"))
        window = evolution._default_window(spectrum, 1, 3)  # 1.05 envelope periods
        assert window == pytest.approx((0.0, 559.0608935900))
        assert 700_000 < auto_grid_points(spectrum, window) < ARRAY_BUDGET / 10

    @pytest.mark.parametrize(
        "params, window",
        [(RESONANT, (0.0, 1e308)), (SystemParams(delta=1e300), (0.0, 600.0))],
    )
    def test_budget_refuses_huge_grids(self, params, window):
        # compared as a float: no OverflowError from an infinite point count
        with pytest.raises(ValueError, match="budget"):
            auto_grid_points(extract_block(params, "end"), window)


class TestDefaultWindow:
    def test_underflowed_weight_products_carry_no_beat(self):
        # every weight is about 1.4e-300, so every product of two is 0: once all pairs were
        # kept, and the carrier's 6.3e-300 came back as the envelope period
        spectrum = eigendecompose(extract_block(SystemParams(delta=1e300), "end"))
        weights = evolution._transition_weights(spectrum, 1, 3)
        assert 0 < np.abs(weights).max() < 1e-290
        assert evolution._envelope_period(weights, spectrum.eigenvalues) == np.inf

    def test_no_beat_is_refused(self):
        # two decoupled sites: every weight is 0, so no window comes from the spectrum
        spec = NetworkSpec(sites=(Site(0, "a"), Site(1, "b")), edges=(), params=DISPERSIVE)
        h = dense_hamiltonian(spec)
        with pytest.raises(ValueError, match="no beat carries the transfer; give a search window"):
            find_transfer_time(h, 1, 3)
        assert find_transfer_time(h, 1, 3, window=(0.0, 1.0)).fidelity == 0.0


class TestSearchGuards:
    def test_grid_above_budget(self):
        with pytest.raises(ValueError, match="grid_points"):
            find_transfer_time(extract_block(RESONANT, "end"), 1, 3, grid_points=ARRAY_BUDGET + 1)

    def test_non_finite_scan(self):
        h = extract_block(RESONANT, "end")
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            find_transfer_time(h, 1, 3, window=(0.0, 1e308), grid_points=9)
