"""Tests for thermodynamic diagnostics.

Cross-checks: the free-energy route to relative entropy (beta * (F_A - F_B)
from mean energy and entropy alone) against the quadratic-log-density
formula, and a scipy root solve against the package's own Newton solver.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from entfarm import cavity, gaussian, protocol, spectral, thermo
from conftest import (
    entropy_difference_check,
    random_covariance,
    random_symplectic,
    williamson_log_density,
)

RNG = np.random.default_rng(31415)


def free_energy_relative_entropy(sigma_a, frequencies, temperature):
    """S(A || thermal(T)) = beta (F_A - F_th) from energies and entropies only.

    Uses normal-ordered energies; the zero-point shift cancels between the
    two free energies.  Valid in nats.
    """
    beta = 1.0 / temperature
    tau = gaussian.thermal_state(frequencies, temperature)
    f_a = gaussian.energy(sigma_a, frequencies, "normal_ordered") - temperature * (
        gaussian.von_neumann_entropy(sigma_a)
    )
    f_b = gaussian.energy(tau, frequencies, "normal_ordered") - temperature * (
        gaussian.von_neumann_entropy(tau)
    )
    return beta * (f_a - f_b)


# ---------------------------------------------------------------------------
# log-density coefficients


def log_density_of(sigma):
    return thermo.log_density(gaussian.StateAnalysis(sigma))


def test_log_density_single_mode_closed_form():
    sigma = 3.0 * np.eye(2)
    ref = log_density_of(sigma)
    assert ref.c == pytest.approx(0.5 * math.log(4.0 / 8.0), rel=1e-12)
    assert np.allclose(ref.h, 0.5 * math.log(2.0 / 4.0) * np.eye(2))


def test_log_density_mean_is_minus_entropy():
    # <log rho>_rho = c + (1/2) sum H_ij sigma_ij must equal -S(rho)
    for n in (1, 3):
        sigma, _ = random_covariance(n, RNG, excitation=0.8)
        ref = log_density_of(sigma)
        mean_log = ref.c + 0.5 * np.sum(ref.h * sigma)
        assert mean_log == pytest.approx(-gaussian.von_neumann_entropy(sigma), abs=1e-9)


def test_log_density_diverges_for_pure_state():
    with pytest.raises(thermo.DivergentLogDensityError):
        log_density_of(gaussian.vacuum_state(2))


@pytest.mark.parametrize("seed", range(4))
def test_log_density_of_a_transformed_thermal_state(seed):
    # a thermal state at beta has H = -(beta w / 2) on each quadrature and
    # c = sum log(2 sinh(beta w / 2)); sigma = S tau S^T has H = S^-T H_tau S^-1
    # and the same c; the expected side takes no Williamson form and no factor.
    rng = np.random.default_rng(seed)
    n = seed + 1
    freqs = rng.uniform(0.3, 3.0, n)
    beta = float(rng.uniform(0.2, 2.0))
    s = random_symplectic(n, rng)
    sigma = s @ gaussian.thermal_state(freqs, 1.0 / beta) @ s.T
    ref = log_density_of((sigma + sigma.T) / 2.0)
    s_inv = np.linalg.inv(s)
    want = s_inv.T @ np.diag(np.repeat(-beta * freqs / 2.0, 2)) @ s_inv
    assert ref.c == pytest.approx(float(np.sum(np.log(2.0 * np.sinh(beta * freqs / 2.0)))), rel=1e-12)
    assert np.max(np.abs(ref.h - want)) <= 1e-12 * np.max(np.abs(want))


def assert_matches_williamson_oracle(sigma, tol=1e-12):
    ref = log_density_of(sigma)
    c, h = williamson_log_density(sigma)
    assert ref.c == pytest.approx(c, rel=tol, abs=tol)
    assert np.max(np.abs(ref.h - h)) <= tol * np.max(np.abs(h))


@pytest.mark.parametrize("seed", range(24))
def test_log_density_matches_the_williamson_oracle(seed):
    # near a pure direction log(nu - 1) amplifies the rounding of nu by
    # 1 / (nu_min - 1), and reading nu^2 off K^T K costs a further nu_max; at
    # nu_min - 1 = 1.5e-4 and nu_max = 16 both routes were off a 50-digit
    # reference (4e-11 and 1.1e-11), so the bound grows with that condition
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(1, 9))
    sigma, nus = random_covariance(n, rng, float(10 ** rng.uniform(-2.0, 0.5)))
    assert_matches_williamson_oracle(sigma, 1e-12 * max(1.0, 0.01 * nus[0] ** 2 / (nus[-1] - 1.0)))


@pytest.mark.parametrize("modes", [4, 8, 16])
def test_log_density_matches_the_williamson_oracle_at_the_fixed_point(modes):
    blocks = protocol.blocks_for(cavity.standard_config(modes))
    assert_matches_williamson_oracle(spectral.fixed_point(blocks.coupled_map).sigma_star)


# ---------------------------------------------------------------------------
# relative entropy


def test_relative_entropy_of_state_with_itself():
    sigma, _ = random_covariance(2, RNG, excitation=0.6)
    assert thermo.relative_entropy(sigma, sigma) == pytest.approx(0.0, abs=1e-9)


def test_relative_entropy_vacuum_vs_thermal_free_energy_oracle():
    omega, temperature = 1.0, 1.0
    vac = gaussian.vacuum_state(1)
    tau = gaussian.thermal_state([omega], temperature)
    expected = free_energy_relative_entropy(vac, [omega], temperature)
    assert thermo.relative_entropy(vac, tau) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("temperature", [0.4, 1.0, 3.0])
def test_relative_entropy_matches_free_energy_route(temperature):
    freqs = np.array([0.7, 1.3, 2.1])
    tau = gaussian.thermal_state(freqs, temperature)
    for _ in range(3):
        sigma, _ = random_covariance(3, RNG, excitation=0.5)
        expected = free_energy_relative_entropy(sigma, freqs, temperature)
        assert thermo.relative_entropy(sigma, tau) == pytest.approx(expected, abs=1e-8)


def test_relative_entropy_nonnegative():
    for _ in range(5):
        a, _ = random_covariance(2, RNG)
        b, _ = random_covariance(2, RNG)
        assert thermo.relative_entropy(a, b) >= -1e-9


def test_relative_entropy_to_pure_reference_is_infinite():
    sigma, _ = random_covariance(1, RNG)
    assert thermo.relative_entropy(sigma, gaussian.vacuum_state(1)) == math.inf


def test_relative_entropy_to_a_reference_with_no_cholesky_factor():
    with pytest.raises(gaussian.InvalidStateError, match="not positive definite"):
        thermo.relative_entropy(np.eye(2), np.diag([1.0, -1.0]))


def test_relative_entropy_shape_mismatch():
    with pytest.raises(ValueError):
        thermo.relative_entropy(np.eye(2), np.eye(4))


# ---------------------------------------------------------------------------
# effective temperature


def test_effective_temperature_round_trip():
    freqs = np.array([0.5, 1.0, 1.7])
    sigma = gaussian.thermal_state(freqs, 0.7)
    fit = thermo.effective_temperature(sigma, freqs)
    assert 1.0 / fit.beta == pytest.approx(0.7, rel=1e-8)
    assert np.allclose(gaussian.thermal_state(freqs, 1.0 / fit.beta), sigma, rtol=1e-8)


def test_thermal_fit_builds_no_dense_thermal_state(monkeypatch):
    freqs = np.array([0.5, 1.0, 1.7])
    state = gaussian.StateAnalysis(gaussian.thermal_state(freqs, 0.7))

    def dense(frequencies, temperature):
        raise AssertionError("the 2M x 2M thermal state was built")

    monkeypatch.setattr(gaussian, "thermal_state", dense)
    assert thermo.thermality_of(state, freqs) == pytest.approx(1.0, rel=1e-8)


def test_effective_temperature_of_vacuum_has_no_match():
    with pytest.raises(thermo.NoThermalMatchError):
        thermo.effective_temperature(gaussian.vacuum_state(2), [1.0, 2.0])


def test_effective_temperature_of_squeezed_mode():
    # solve for T reproducing the squeezed state's energy with scipy, then
    # compare against the package solver
    omega = 1.0
    sigma = np.diag([math.exp(2.0), math.exp(-2.0)])
    target_nu = math.cosh(2.0)  # (tr sigma) / 2
    t_oracle = brentq(
        lambda t: 1.0 / math.tanh(omega / (2.0 * t)) - target_nu, 1e-6, 1e6
    )
    fit = thermo.effective_temperature(sigma, [omega])
    assert 1.0 / fit.beta == pytest.approx(t_oracle, rel=1e-8)
    want = gaussian.energy(sigma, [omega], "paper")
    got = gaussian.energy(gaussian.thermal_state([omega], 1.0 / fit.beta), [omega], "paper")
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_effective_temperature_matches_brentq_on_many_modes(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    freqs = rng.uniform(0.3, 12.0, n)
    sigma, _ = random_covariance(n, rng, float(10 ** rng.uniform(-6.0, 0.5)))
    target = gaussian.energy(sigma, freqs, "normal_ordered")

    def excess(beta):
        return float(np.sum(freqs * (1.0 / np.tanh(freqs * beta / 2.0) - 1.0) / 2.0)) - target

    beta_oracle = brentq(excess, 1e-6, 1e6, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=1000)
    calls = []
    solve = thermo._thermal_excitation_energy
    monkeypatch.setattr(
        thermo, "_thermal_excitation_energy", lambda f, beta: calls.append(beta) or solve(f, beta)
    )
    fit = thermo.effective_temperature(sigma, freqs)
    assert fit.beta == pytest.approx(beta_oracle, rel=1e-12, abs=0)
    # the bisection this replaced evaluated E(beta) 43 to 52 times on these states
    assert len(calls) <= 20


def test_thermal_excitation_energy_keeps_precision_at_large_beta():
    # at w beta = 40, coth(w beta / 2) rounds to 1 and E(beta) used to read 0
    freqs = np.array([1.0])
    with mpmath.workdps(40):
        nbar = 1 / mpmath.expm1(40)
        want_energy, want_slope = float(nbar), float(-nbar * (nbar + 1))
    energy, slope = thermo._thermal_excitation_energy(freqs, 40.0)
    assert energy == pytest.approx(want_energy, rel=1e-15, abs=0)
    assert slope == pytest.approx(want_slope, rel=1e-15, abs=0)
    # past expm1's overflow the occupation is exactly 0, without a warning
    assert thermo._thermal_excitation_energy(freqs, 1e3) == (0.0, -0.0)


def mpmath_beta(frequencies, target: float, start: float, digits: int = 40) -> float:
    """Root of sum w / (exp(w beta) - 1) = target, with the float target taken as exact."""
    with mpmath.workdps(digits):
        ws = [mpmath.mpf(float(w)) for w in frequencies]
        goal = mpmath.mpf(target)
        return float(mpmath.findroot(lambda b: sum(w / mpmath.expm1(w * b) for w in ws) - goal, start))


def test_effective_temperature_matches_high_precision_root():
    # early field states sit close to the vacuum, so w_min beta is large and
    # coth(w beta / 2) - 1 cancelled: beta was off by 1.4e-13 at cycle 1
    cav = cavity.standard_config(4)
    freqs = cavity.mode_frequencies(cav)
    states = {"field": lambda s: s.field_out}
    traj = protocol.run_cycles(cav, n_cycles=5, observables=states)
    for cycle in (1, 5):
        sigma = traj.records[cycle - 1].values["field"]
        fit = thermo.effective_temperature(sigma, freqs)
        target = gaussian.energy(sigma, freqs, "normal_ordered")
        want = mpmath_beta(freqs, target, fit.beta)
        assert fit.beta == pytest.approx(want, rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# thermality estimator


def test_thermality_of_thermal_state_is_one():
    freqs = np.array([0.8, 1.9])
    sigma = gaussian.thermal_state(freqs, 1.2)
    assert thermo.thermality_estimator(sigma, freqs) == pytest.approx(1.0, abs=1e-8)


def test_thermality_of_pure_squeezed_state_is_zero():
    sigma = np.diag([math.exp(1.0), math.exp(-1.0)])
    assert thermo.thermality_estimator(sigma, [1.0]) == pytest.approx(0.0, abs=1e-9)


def test_thermality_of_vacuum_is_undefined():
    with pytest.raises(thermo.UndefinedEstimatorError):
        thermo.thermality_estimator(gaussian.vacuum_state(1), [1.0])


def test_thermality_between_zero_and_one():
    freqs = np.array([0.9, 1.4])
    for _ in range(5):
        sigma, _ = random_covariance(2, RNG, excitation=0.7)
        d = thermo.thermality_estimator(sigma, freqs)
        assert 0.0 <= d <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# entropy-difference identity


def test_entropy_difference_check_thermal_state():
    freqs = np.array([1.0, 2.0])
    sigma = gaussian.thermal_state(freqs, 0.9)
    rel, diff = entropy_difference_check(sigma, freqs)
    assert rel == pytest.approx(0.0, abs=1e-8)
    assert diff == pytest.approx(0.0, abs=1e-8)


def test_entropy_difference_check_agreement():
    freqs = np.array([0.6, 1.1, 1.8])
    for _ in range(5):
        sigma, _ = random_covariance(3, RNG, excitation=0.6)
        rel, diff = entropy_difference_check(sigma, freqs)
        assert rel == pytest.approx(diff, abs=1e-8)
