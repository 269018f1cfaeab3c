"""Property-based invariant tests on random small Gaussian states and cavities.

Covariances come from conftest.random_covariance, seeded by Hypothesis, so
each example is a physical state of 1 to 4 modes with a known symplectic
spectrum.  Examples are derandomized: every run checks the same states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entfarm import cavity, dynamics, gaussian, protocol, thermo
from conftest import eigvals_symplectic_eigenvalues, random_covariance

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

modes = st.integers(min_value=1, max_value=3)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
excitations = st.floats(min_value=0.05, max_value=2.0)


@PROPERTY
@given(n=modes, seed=seeds, excitation=excitations)
def test_relative_entropy_is_nonnegative(n, seed, excitation):
    rng = np.random.default_rng(seed)
    sigma_a, _ = random_covariance(n, rng, excitation)
    sigma_b, _ = random_covariance(n, rng, excitation)
    assert thermo.relative_entropy(sigma_a, sigma_b) >= -1e-9


@PROPERTY
@given(n=modes, seed=seeds, excitation=excitations)
def test_relative_entropy_to_itself_vanishes(n, seed, excitation):
    sigma, _ = random_covariance(n, np.random.default_rng(seed), excitation)
    assert thermo.relative_entropy(sigma, sigma) == pytest.approx(0.0, abs=1e-9)


@PROPERTY
@given(
    n=modes,
    seed=seeds,
    excitation=excitations,
    coupling=st.floats(min_value=0.0, max_value=0.05),
    cycle_time=st.floats(min_value=0.5, max_value=40.0),
)
def test_full_cycle_keeps_states_physical(n, seed, excitation, coupling, cycle_time):
    rng = np.random.default_rng(seed)
    cav = cavity.standard_config(n, coupling=coupling, cycle_time=cycle_time)
    sigma_f, _ = random_covariance(n, rng, excitation)
    sigma_d, _ = random_covariance(2, rng, excitation)
    detector_out, _, field_out = protocol.full_cycle(
        sigma_f, sigma_d, protocol.blocks_for(cav)
    )
    gaussian.assert_physical(field_out)
    gaussian.assert_physical(detector_out)


@PROPERTY
@given(
    n=modes,
    coupling=st.floats(min_value=0.0, max_value=0.2),
    cycle_time=st.floats(min_value=0.5, max_value=30.0),
)
def test_propagator_is_symplectic(n, coupling, cycle_time):
    cav = cavity.standard_config(n, coupling=coupling, cycle_time=cycle_time)
    prop = dynamics.propagator(cavity.hamiltonian_matrix(cav), cav.cycle_time)
    assert gaussian.check_symplectic(prop.s) <= 1e-9


@PROPERTY
@given(n=st.integers(min_value=1, max_value=4), seed=seeds, excitation=excitations)
def test_symplectic_eigenvalues_match_eigvals_oracle(n, seed, excitation):
    sigma, nus = random_covariance(n, np.random.default_rng(seed), excitation)
    got = gaussian.symplectic_eigenvalues(sigma)
    np.testing.assert_allclose(got, eigvals_symplectic_eigenvalues(sigma), rtol=1e-10, atol=0)
    np.testing.assert_allclose(got, nus, rtol=1e-10, atol=0)


@PROPERTY
@given(n=st.integers(min_value=1, max_value=4), seed=seeds, excitation=excitations)
def test_williamson_reconstructs_the_state(n, seed, excitation):
    sigma, _ = random_covariance(n, np.random.default_rng(seed), excitation)
    s, d = gaussian.williamson_normal_form(sigma)
    np.testing.assert_allclose(s @ d @ s.T, sigma, rtol=0, atol=1e-10 * np.abs(sigma).max())
    assert gaussian.check_symplectic(s) < 1e-9
    np.testing.assert_allclose(
        np.diag(d), np.repeat(gaussian.symplectic_eigenvalues(sigma), 2), rtol=1e-12, atol=0
    )
