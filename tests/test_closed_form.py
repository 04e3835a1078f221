import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_route import (
    DISPERSIVE,
    RESONANT,
    SystemParams,
    analytic_u4,
    analytic_u6,
    block_coupling,
    eigendecompose,
    extract_block,
    transition_amplitudes,
    validate_analytic,
)

RES_TIMES = np.linspace(0.0, 10.0, 101)
DISP_TIMES = np.linspace(0.0, 600.0, 101)


BLOCKS = ("end", "mid", "upload", "hop")


class TestCellRow:
    def test_rejects_bad_kappa(self):
        for amplitudes in (analytic_u4, analytic_u6):
            for kappa in (0.0, -1.0, np.nan, np.inf):
                with pytest.raises(ValueError, match="coupling"):
                    amplitudes(RESONANT, kappa, 0.0)

    @pytest.mark.parametrize("amplitudes", [analytic_u4, analytic_u6])
    @pytest.mark.parametrize(
        "params, kappa",
        [
            (RESONANT, 1e308),
            (dataclasses.replace(RESONANT, g=1e308), 1.0),
            (dataclasses.replace(RESONANT, delta=1.7e308), 0.6e308),  # overflows shift + delta
        ],
    )
    def test_refuses_overflowing_shift_or_splitting(self, amplitudes, params, kappa):
        # refused before any exp: no NaN amplitudes and no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                amplitudes(params, kappa, 0.0)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        params=st.builds(
            SystemParams,
            omega_c=st.floats(-10.0, 10.0),
            delta=st.floats(-1000.0, 1000.0),
            g=st.floats(1.0, 100.0),
            j=st.floats(0.2, 5.0),
        ),
        which=st.sampled_from(BLOCKS),
        t_max=st.floats(1e-3, 600.0),
    )
    def test_matches_numeric_and_stays_normalised(self, params, which, t_max):
        times = np.linspace(0.0, t_max, 41)
        block = extract_block(params, which)
        # rounding of the phases grows with t times the largest energy
        scale = 1.0 + t_max * np.linalg.norm(block.matrix, np.inf)
        assert validate_analytic(params, which, times) <= 1e-13 * scale
        amplitudes = analytic_u4 if block.dim == 4 else analytic_u6
        u = amplitudes(params, block_coupling(params, which), times)
        assert np.abs(np.sum(np.abs(u) ** 2, axis=1) - 1.0).max() <= 1e-13


class TestPairAmplitudes:
    def test_initial_condition(self):
        u = analytic_u4(RESONANT, np.sqrt(2.0), 0.0)
        assert u.shape == (4,)
        assert np.allclose(u, [0, 1, 0, 0], atol=1e-14)

    @pytest.mark.parametrize(
        "params,times", [(RESONANT, RES_TIMES), (DISPERSIVE, DISP_TIMES)]
    )
    @pytest.mark.parametrize("which", ["end", "upload"])
    def test_matches_numeric_propagator(self, params, times, which):
        kappa = block_coupling(params, which)
        u = analytic_u4(params, kappa, times)
        spectrum = eigendecompose(extract_block(params, which))
        for slot in range(4):
            numeric = transition_amplitudes(spectrum, 1, slot, times)
            assert np.max(np.abs(u[:, slot] - numeric)) <= 1e-9

    @pytest.mark.parametrize("params", [RESONANT, DISPERSIVE])
    def test_normalized(self, params):
        u = analytic_u4(params, np.sqrt(2.0) * params.j, RES_TIMES)
        norms = np.sum(np.abs(u) ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_vectorized_shape(self):
        u = analytic_u4(RESONANT, 2.0, np.linspace(0, 1, 13))
        assert u.shape == (13, 4)


class TestTrioAmplitudes:
    def test_initial_condition(self):
        u = analytic_u6(RESONANT, 2.0, 0.0)
        assert u.shape == (6,)
        assert np.allclose(u, [0, 1, 0, 0, 0, 0], atol=1e-14)

    @pytest.mark.parametrize(
        "params,times", [(RESONANT, RES_TIMES), (DISPERSIVE, DISP_TIMES)]
    )
    @pytest.mark.parametrize("which", ["mid", "hop"])
    def test_matches_numeric_propagator(self, params, times, which):
        kappa = block_coupling(params, which)
        u = analytic_u6(params, kappa, times)
        spectrum = eigendecompose(extract_block(params, which))
        for slot in range(6):
            numeric = transition_amplitudes(spectrum, 1, slot, times)
            assert np.max(np.abs(u[:, slot] - numeric)) <= 1e-9

    @pytest.mark.parametrize("params", [RESONANT, DISPERSIVE])
    def test_normalized(self, params):
        u = analytic_u6(params, 2.0 * params.j, DISP_TIMES)
        norms = np.sum(np.abs(u) ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_end_cavities_symmetric_under_swap(self):
        # starting on the first atom, slots (cav0, cav2) and (atom0, atom2)
        # differ only through the kappa-sign sectors; at resonance the
        # transfer is mirror-symmetric in distribution: |u1|=|u1|, and the
        # middle cavity couples evenly, so total probability splits evenly
        # between the two end cells at the revival halfway point
        u = analytic_u6(RESONANT, 2.0, 0.0)
        assert abs(u[2]) == abs(u[4]) == 0.0


class TestValidate:
    @pytest.mark.parametrize("which", BLOCKS)
    def test_resonant_error_small(self, which):
        assert validate_analytic(RESONANT, which, RES_TIMES) <= 1e-9

    @pytest.mark.parametrize("which", BLOCKS)
    def test_dispersive_error_small(self, which):
        assert validate_analytic(DISPERSIVE, which, DISP_TIMES) <= 1e-9

    def test_unknown_block(self):
        with pytest.raises(ValueError):
            validate_analytic(RESONANT, "nonsense", RES_TIMES)
