"""Tests for the phase-space toolkit.

Expected values come from independent closed forms: geometric-series
thermodynamics of a single thermal oscillator, two-mode squeezed vacuum
identities, and construction of random states with a known symplectic
spectrum.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

from entfarm import cavity, gaussian, protocol
from conftest import random_covariance, random_symplectic

RNG = np.random.default_rng(20240807)


def thermal_oracle(omega: float, temperature: float) -> dict:
    """Single-mode thermal state facts from the Boltzmann distribution.

    p_n = (1 - q) q^n with q = exp(-omega/T).  Everything below follows
    from geometric sums, with no phase-space input.
    """
    q = math.exp(-omega / temperature)
    nbar = q / (1.0 - q)
    entropy = -math.log(1.0 - q) - q * math.log(q) / (1.0 - q)
    return {
        "nu": 2.0 * nbar + 1.0,
        "purity": (1.0 - q) / (1.0 + q),
        "entropy": entropy,
        "mean_energy": omega * (nbar + 0.5),
        "nbar": nbar,
    }


def tmsv(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum covariance matrix."""
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    top = np.hstack([c * np.eye(2), s * z])
    bot = np.hstack([s * z, c * np.eye(2)])
    return np.vstack([top, bot])


# ---------------------------------------------------------------------------
# constructors


def test_vacuum_is_identity():
    assert np.array_equal(gaussian.vacuum_state(3), np.eye(6))


@pytest.mark.parametrize("omega,temperature", [(1.0, 0.5), (0.4, 2.0), (np.pi, 1.0)])
def test_thermal_state_matches_boltzmann(omega, temperature):
    oracle = thermal_oracle(omega, temperature)
    sigma = gaussian.thermal_state([omega], temperature)
    assert np.allclose(np.diag(sigma), [oracle["nu"], oracle["nu"]])
    assert np.allclose(sigma, np.diag(np.diag(sigma)))


def test_thermal_state_zero_temperature_is_vacuum():
    sigma = gaussian.thermal_state([0.3, 1.7], 0.0)
    assert np.array_equal(sigma, np.eye(4))


def test_thermal_state_rejects_bad_input():
    with pytest.raises(ValueError):
        gaussian.thermal_state([1.0], -0.1)
    with pytest.raises(ValueError):
        gaussian.thermal_state([0.0], 1.0)
    with pytest.raises(ValueError):
        gaussian.vacuum_state(0)


# ---------------------------------------------------------------------------
# symplectic spectrum and Williamson form


def test_symplectic_eigenvalues_recover_construction():
    for n in (1, 2, 5):
        sigma, nus = random_covariance(n, RNG)
        got = gaussian.symplectic_eigenvalues(sigma)
        assert np.allclose(got, nus, atol=1e-9)


def test_symplectic_eigenvalues_of_squeezed_thermal():
    nu, r = 3.0, 0.7
    sigma = np.diag([nu * math.exp(2 * r), nu * math.exp(-2 * r)])
    assert np.allclose(gaussian.symplectic_eigenvalues(sigma), [nu])


def test_symplectic_eigenvalues_reject_non_positive_matrix():
    # the Cholesky route has no factor to work from
    with pytest.raises(gaussian.DecompositionError):
        gaussian.symplectic_eigenvalues(np.diag([2.0, -0.5]))


def test_assert_physical_names_the_least_eigenvalue():
    with pytest.raises(gaussian.InvalidStateError,
                       match=r"^covariance is not positive definite \(eigenvalue -2\)$"):
        gaussian.assert_physical(np.diag([3.0, -2.0, 1.0, 1.0]))


def test_williamson_round_trip():
    for n in (1, 2, 4):
        sigma, nus = random_covariance(n, RNG)
        s, d = gaussian.williamson_normal_form(sigma)
        assert np.allclose(s @ d @ s.T, sigma, atol=1e-9)
        assert gaussian.check_symplectic(s) < 1e-9
        assert np.allclose(np.diag(d), np.repeat(nus, 2), atol=1e-9)
        # D is diagonal with eigenvalues sorted descending
        assert np.allclose(d, np.diag(np.diag(d)))
        assert np.all(np.diff(np.diag(d)[::2]) <= 1e-12)


def test_williamson_rejects_non_positive_matrix():
    with pytest.raises(gaussian.DecompositionError):
        gaussian.williamson_normal_form(np.diag([1.0, -1.0]))


def test_check_symplectic_flags_non_symplectic():
    assert gaussian.check_symplectic(np.eye(4)) == 0.0
    assert gaussian.check_symplectic(2.0 * np.eye(4)) == pytest.approx(3.0)


@pytest.mark.parametrize("n", [1, 3, 17, 64])
def test_symplectic_form_by_row_swaps_is_the_dense_product(n):
    # each entry of Omega x is one entry of x or its negative, so the swaps
    # reproduce the dense products bit for bit, drift value included
    rng = np.random.default_rng(n)
    omega = gaussian.symplectic_form(n)
    x = rng.standard_normal((2 * n, 3 * n))
    assert np.array_equal(gaussian.apply_symplectic_form(x), omega @ x)
    s = rng.standard_normal((2 * n, 2 * n))
    assert gaussian.check_symplectic(s) == float(np.max(np.abs(s @ omega @ s.T - omega)))


# ---------------------------------------------------------------------------
# entropy, purity, energy


@pytest.mark.parametrize("omega,temperature", [(1.0, 0.5), (0.4, 2.0), (np.pi, 1.0)])
def test_thermal_entropy_purity_energy(omega, temperature):
    oracle = thermal_oracle(omega, temperature)
    sigma = gaussian.thermal_state([omega], temperature)
    assert gaussian.von_neumann_entropy(sigma) == pytest.approx(oracle["entropy"], rel=1e-12)
    assert gaussian.purity(sigma) == pytest.approx(oracle["purity"], rel=1e-12)
    # paper convention counts double the zero-point energy
    assert gaussian.energy(sigma, [omega], "paper") == pytest.approx(
        2.0 * oracle["mean_energy"], rel=1e-12
    )
    assert gaussian.energy(sigma, [omega], "normal_ordered") == pytest.approx(
        omega * oracle["nbar"], rel=1e-12
    )


def test_pure_state_entropy_is_zero():
    sigma, _ = random_covariance(3, RNG, excitation=0.0)
    assert gaussian.von_neumann_entropy(sigma) == pytest.approx(0.0, abs=1e-9)
    assert gaussian.purity(sigma) == pytest.approx(1.0, rel=1e-9)


def test_entropy_additive_over_blocks():
    s1, _ = random_covariance(2, RNG)
    s2, _ = random_covariance(1, RNG)
    from scipy.linalg import block_diag

    joint = block_diag(s1, s2)
    assert gaussian.von_neumann_entropy(joint) == pytest.approx(
        gaussian.von_neumann_entropy(s1) + gaussian.von_neumann_entropy(s2), rel=1e-10
    )


def test_purity_is_inverse_product_of_eigenvalues():
    sigma, nus = random_covariance(3, RNG)
    assert gaussian.purity(sigma) == pytest.approx(1.0 / np.prod(nus), rel=1e-9)


def test_entropy_rejects_unphysical_state():
    with pytest.raises(gaussian.InvalidStateError):
        gaussian.von_neumann_entropy(0.5 * np.eye(2))


def mpmath_entropy(sigma: np.ndarray, digits: int = 40) -> float:
    """Entropy in nats by Cholesky and symmetric eigensolve at `digits` digits.

    The float matrix is taken as exact.  Like von_neumann_entropy, a
    symplectic eigenvalue at or below 1 contributes nothing.
    """
    n = sigma.shape[0] // 2
    with mpmath.workdps(digits):
        t = mpmath.cholesky(mpmath.matrix(sigma.tolist()))
        k = t.T * mpmath.matrix(gaussian.symplectic_form(n).tolist()) * t
        squares = sorted(mpmath.eigsy(k.T * k, eigvals_only=True), reverse=True)
        total = mpmath.mpf(0)
        for i in range(n):
            nu = (mpmath.sqrt(squares[2 * i]) + mpmath.sqrt(squares[2 * i + 1])) / 2
            if nu > 1:
                hi, lo = (nu + 1) / 2, (nu - 1) / 2
                total += hi * mpmath.log(hi) - lo * mpmath.log(lo)
        return float(total)


def test_entropy_matches_high_precision_oracle():
    # early cycles leave most field modes within 1e-12 of the vacuum, where
    # the entropy is most sensitive to rounding in the eigenvalues
    states = {"field": lambda s: s.field_out}
    traj = protocol.run_cycles(cavity.standard_config(8), n_cycles=20, observables=states)
    for cycle in (1, 5, 20):
        sigma = traj.records[cycle - 1].values["field"]
        want = mpmath_entropy(sigma)
        assert gaussian.von_neumann_entropy(sigma) == pytest.approx(want, rel=1e-11, abs=0)


def test_energy_convention_validation():
    with pytest.raises(ValueError):
        gaussian.energy(np.eye(2), [1.0], "banana")
    with pytest.raises(ValueError):
        gaussian.energy(np.eye(4), [1.0], "paper")


# ---------------------------------------------------------------------------
# reduction


def test_reduce_modes_picks_blocks():
    from scipy.linalg import block_diag

    s1, _ = random_covariance(1, RNG)
    s2, _ = random_covariance(1, RNG)
    s3, _ = random_covariance(1, RNG)
    joint = block_diag(s1, s2, s3)
    assert np.allclose(gaussian.reduce_modes(joint, [1]), s2)
    assert np.allclose(gaussian.reduce_modes(joint, [2, 0]), block_diag(s3, s1))


def test_reduce_modes_of_entangled_state_is_thermal():
    r = 0.9
    reduced = gaussian.reduce_modes(tmsv(r), [0])
    # each half of a two-mode squeezed vacuum is thermal with nu = cosh(2r)
    assert np.allclose(reduced, math.cosh(2 * r) * np.eye(2))


def test_reduce_modes_validates_indices():
    sigma = gaussian.vacuum_state(2)
    with pytest.raises(ValueError):
        gaussian.reduce_modes(sigma, [0, 0])
    with pytest.raises(ValueError):
        gaussian.reduce_modes(sigma, [2])


# ---------------------------------------------------------------------------
# log negativity


@pytest.mark.parametrize("r", [0.1, 0.5, 4.0 / 3.0])
def test_tmsv_log_negativity(r):
    sigma = tmsv(r)
    assert gaussian.ppt_minimum_eigenvalue(sigma) == pytest.approx(math.exp(-2 * r), rel=1e-10)
    assert gaussian.log_negativity(sigma) == pytest.approx(2.0 * r, rel=1e-10)


def test_log_negativity_zero_for_separable():
    assert gaussian.log_negativity(gaussian.vacuum_state(2)) == 0.0
    assert gaussian.log_negativity(gaussian.thermal_state([1.0, 2.0], 1.5)) == 0.0


def test_log_negativity_symmetric_under_swap():
    sigma = tmsv(0.8)
    # local rotation on mode 2 breaks the standard form but not entanglement
    s_local = np.eye(4)
    theta = 0.6
    s_local[2:, 2:] = [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    sigma = s_local @ sigma @ s_local.T
    swap = np.zeros((4, 4))
    swap[0:2, 2:4] = np.eye(2)
    swap[2:4, 0:2] = np.eye(2)
    swapped = swap @ sigma @ swap.T
    assert gaussian.log_negativity(swapped) == pytest.approx(
        gaussian.log_negativity(sigma), rel=1e-12
    )


def test_log_negativity_needs_two_modes():
    with pytest.raises(ValueError):
        gaussian.log_negativity(np.eye(6))


# ---------------------------------------------------------------------------
# random-state invariants


def test_random_symplectics_are_symplectic():
    for n in (1, 3):
        s = random_symplectic(n, RNG)
        assert gaussian.check_symplectic(s) < 1e-10


def test_symmetry_is_enforced():
    bad = np.eye(2)
    bad[0, 1] = 0.3
    with pytest.raises(gaussian.InvalidStateError):
        gaussian.symplectic_eigenvalues(bad)


def test_symmetry_check_matches_allclose():
    # the check accepts exactly what np.allclose(s, s.T, atol) accepts, with
    # atol = 1e-10 max(1, max |s|): asymmetries on both sides of the atol
    # and 1e-5 |s^T| terms, and the inf and nan cases
    rng = np.random.default_rng(8)
    cases = []
    for size in (1e-14, 1e-11, 1e-10, 2e-10, 1e-7, 5e-6, 1e-5, 2e-5, 1e-3):
        for scale in (0.1, 1.0, 300.0):
            m = scale * rng.normal(size=(4, 4))
            m = m + m.T
            m[1, 2] += size * scale * rng.choice((-1.0, 1.0))
            cases.append(m)
    for bad in ((np.inf, np.inf), (np.inf, 1.0), (-np.inf, np.inf), (np.nan, np.nan), (np.nan, 0.0)):
        m = np.eye(4)
        m[0, 3], m[3, 0] = bad
        cases.append(m)
    verdicts = []
    for m in cases:
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # atol = inf
            want = np.allclose(m, m.T, atol=1e-10 * max(1.0, np.abs(m).max()))
        try:
            gaussian.reduce_modes(m, [0])
            got = True
        except gaussian.InvalidStateError:
            got = False
        assert got == want, m
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)
