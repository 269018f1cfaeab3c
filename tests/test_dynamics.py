"""Tests for symplectic propagation.

The matrix-exponential path is cross-checked against an analytic rotation,
a fixed-step RK4 integration of the equation of motion, and conservation
laws that hold exactly for the continuous dynamics.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from entfarm import cavity, dynamics, gaussian
from conftest import random_covariance, total_energy

RNG = np.random.default_rng(97)


def small_config(**overrides):
    return cavity.standard_config(4, **overrides)


def test_zero_time_is_identity():
    f = cavity.hamiltonian_matrix(small_config())
    prop = dynamics.propagator(f, 0.0)
    assert np.allclose(prop.s, np.eye(f.shape[0]))


def test_free_single_mode_is_rotation():
    omega, t = 0.9, 2.7
    f = np.diag([omega, omega])
    prop = dynamics.propagator(f, t)
    c, s = math.cos(omega * t), math.sin(omega * t)
    assert np.allclose(prop.s, [[c, s], [-s, c]], atol=1e-12)


def test_propagator_is_symplectic_and_unimodular():
    cfg = small_config()
    prop = dynamics.propagator_for(cfg)
    assert gaussian.check_symplectic(prop.s) < 1e-9
    assert np.linalg.det(prop.s) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("modes", [4, 64])
def test_propagator_matches_dense_generator(modes):
    # Omega F_sym by row swaps hands expm the same matrix as the dense product
    cfg = cavity.standard_config(modes)
    f = cavity.hamiltonian_matrix(cfg)
    want = expm(gaussian.symplectic_form(modes + 2) @ f * cfg.cycle_time)
    assert np.array_equal(dynamics.propagator(f, cfg.cycle_time).s, want)


def test_propagator_composes():
    f = cavity.hamiltonian_matrix(small_config())
    s1 = dynamics.propagator(f, 7.0).s
    s2 = dynamics.propagator(f, 13.0).s
    s12 = dynamics.propagator(f, 20.0).s
    assert np.max(np.abs(s2 @ s1 - s12)) < 1e-9


def test_propagator_input_validation():
    with pytest.raises(ValueError):
        dynamics.propagator(np.ones((3, 3)), 1.0)
    f = np.zeros((2, 2))
    f[0, 1] = 1.0
    with pytest.raises(ValueError):
        dynamics.propagator(f, 1.0)
    with pytest.raises(ValueError):
        dynamics.propagator(np.eye(2), -1.0)


def test_propagator_cache_reuses_instance():
    a = dynamics.propagator_for(small_config())
    b = dynamics.propagator_for(small_config())
    assert a is b


def test_evolve_preserves_symplectic_spectrum():
    cfg = small_config()
    prop = dynamics.propagator_for(cfg)
    sigma, nus = random_covariance(cfg.n_modes, RNG)
    evolved = dynamics.evolve(sigma, prop)
    assert np.allclose(gaussian.symplectic_eigenvalues(evolved), nus, atol=1e-8)


def test_evolve_keeps_vacuum_fixed_without_coupling():
    cfg = small_config(coupling=0.0)
    prop = dynamics.propagator_for(cfg)
    vac = gaussian.vacuum_state(cfg.n_modes)
    assert np.allclose(dynamics.evolve(vac, prop), vac, atol=1e-12)


def test_evolve_dimension_mismatch():
    prop = dynamics.propagator_for(small_config())
    with pytest.raises(ValueError):
        dynamics.evolve(np.eye(4), prop)


def test_total_energy_conserved_along_evolution():
    cfg = small_config()
    f = cavity.hamiltonian_matrix(cfg)
    sigma, _ = random_covariance(cfg.n_modes, RNG)
    e0 = total_energy(sigma, f)
    for t in (1.0, 5.0, 20.0):
        evolved = dynamics.evolve(sigma, dynamics.propagator(f, t))
        assert total_energy(evolved, f) == pytest.approx(e0, abs=1e-9)


def test_decoupled_mode_block_is_free_rotation():
    cfg = cavity.standard_config(6)  # modes 3 and 6 sit on nodes of both detectors
    prop = dynamics.propagator_for(cfg)
    for pos in cavity.decoupled_positions(cfg):
        n = cfg.mode_numbers[pos]
        omega = n * math.pi / cfg.length
        c, s = math.cos(omega * cfg.cycle_time), math.sin(omega * cfg.cycle_time)
        i = 4 + 2 * pos
        block = prop.s[i : i + 2, i : i + 2]
        assert np.allclose(block, [[c, s], [-s, c]], atol=1e-10)
        # and that mode's rows/columns carry no mixing with anything else
        row = prop.s[i : i + 2].copy()
        row[:, i : i + 2] = 0.0
        assert np.max(np.abs(row)) < 1e-10


def test_detector_correlations_grow_quadratically():
    cfg = small_config()
    f = cavity.hamiltonian_matrix(cfg)
    vac = gaussian.vacuum_state(cfg.n_modes)
    times = np.geomspace(1e-3, 1e-2, 7)
    norms = []
    for t in times:
        evolved = dynamics.evolve(vac, dynamics.propagator(f, t))
        norms.append(np.linalg.norm(evolved[0:2, 2:4]))
    slope = np.polyfit(np.log(times), np.log(norms), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


# ---------------------------------------------------------------------------
# integrator oracle


class StepTooLargeError(RuntimeError):
    """The integrator step left too much symplectic drift."""


def integrate_propagator(f_sym_of_t, t: float, step: float) -> dynamics.Propagator:
    """Fixed-step RK4 integration of dS/dt = Omega F_sym(t) S from S(0) = I.

    f_sym_of_t maps a time to the (symmetric) Hamiltonian matrix, so
    time-dependent generators are supported.  Used as the independent check
    on the exponential path.  Symplectic drift beyond 1e-6 raises
    StepTooLargeError.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    f0 = np.asarray(f_sym_of_t(0.0), dtype=float)
    n = f0.shape[0] // 2
    omega = gaussian.symplectic_form(n)
    s = np.eye(2 * n)
    n_steps = max(1, int(np.ceil(t / step)))
    h = t / n_steps
    for i in range(n_steps):
        t0 = i * h
        a1 = omega @ np.asarray(f_sym_of_t(t0), dtype=float)
        a2 = omega @ np.asarray(f_sym_of_t(t0 + h / 2.0), dtype=float)
        a4 = omega @ np.asarray(f_sym_of_t(t0 + h), dtype=float)
        k1 = a1 @ s
        k2 = a2 @ (s + h / 2.0 * k1)
        k3 = a2 @ (s + h / 2.0 * k2)
        k4 = a4 @ (s + h * k3)
        s = s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    drift = gaussian.check_symplectic(s)
    if drift > 1e-6:
        raise StepTooLargeError(
            f"integration drifted off the symplectic manifold by {drift:.3e}; "
            "reduce the step"
        )
    return dynamics.Propagator(s=s, t=float(t))


def test_integrator_zero_time():
    f = cavity.hamiltonian_matrix(small_config())
    prop = integrate_propagator(lambda t: f, 0.0, 1e-2)
    assert np.allclose(prop.s, np.eye(f.shape[0]))


def test_integrator_matches_exponential_on_reference_config():
    cfg = cavity.standard_config(16)
    f = cavity.hamiltonian_matrix(cfg)
    exact = dynamics.propagator(f, cfg.cycle_time).s
    integrated = integrate_propagator(lambda t: f, cfg.cycle_time, 1e-3).s
    assert np.max(np.abs(integrated - exact)) < 1e-8


def test_integrator_fourth_order_convergence():
    f = cavity.hamiltonian_matrix(small_config())
    exact = dynamics.propagator(f, 2.0).s
    err = []
    for step in (2e-2, 1e-2):
        s = integrate_propagator(lambda t: f, 2.0, step).s
        err.append(np.max(np.abs(s - exact)))
    ratio = err[0] / err[1]
    assert 12.0 < ratio < 20.0


def test_integrator_flags_too_large_step():
    cfg = cavity.standard_config(8, coupling=0.3)
    f = cavity.hamiltonian_matrix(cfg)
    with pytest.raises(StepTooLargeError):
        integrate_propagator(lambda t: f, 50.0, 1.0)


def test_integrator_handles_time_dependence():
    # ramped frequency: compare against two-piece composition with
    # piecewise-constant generator approximated finely
    def f_of_t(t):
        w = 1.0 + 0.5 * t
        return np.diag([w, w])

    prop = integrate_propagator(f_of_t, 1.0, 1e-4)
    # analytic: phase = integral of w dt = 1.25
    phase = 1.25
    expected = [[math.cos(phase), math.sin(phase)], [-math.sin(phase), math.cos(phase)]]
    assert np.allclose(prop.s, expected, atol=1e-8)
