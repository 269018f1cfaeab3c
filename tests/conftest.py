"""Shared test helpers."""

import numpy as np
from scipy.linalg import expm, schur

from entfarm import gaussian, spectral, thermo


def random_symplectic(n_modes: int, rng: np.random.Generator, scale: float = 0.4) -> np.ndarray:
    """Random symplectic matrix exp(Omega A) with A symmetric."""
    a = rng.normal(scale=scale, size=(2 * n_modes, 2 * n_modes))
    a = (a + a.T) / 2.0
    return expm(gaussian.symplectic_form(n_modes) @ a)


def random_covariance(
    n_modes: int, rng: np.random.Generator, excitation: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Random physical covariance matrix and its symplectic spectrum.

    Built as S D S^T from a random symplectic S, so the spectrum is known
    by construction.  Returns (sigma, nus_descending).
    """
    nus = np.sort(1.0 + rng.exponential(excitation, size=n_modes))[::-1]
    d = np.diag(np.repeat(nus, 2))
    s = random_symplectic(n_modes, rng)
    return s @ d @ s.T, nus


def evolve(sigma: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sigma(t) = S sigma S^T for a propagator matrix S; symmetrized to absorb rounding."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != s.shape:
        raise ValueError(f"state shape {sigma.shape} does not match propagator {s.shape}")
    out = s @ sigma @ s.T
    return (out + out.T) / 2.0


def total_energy(sigma: np.ndarray, f_sym: np.ndarray) -> float:
    """Mean of the full quadratic Hamiltonian, <H> = Tr(F_sym sigma) / 4.

    Conserved exactly along evolve() with the same generator,
    interaction term included, so it doubles as an integration sanity check.
    """
    return float(np.trace(np.asarray(f_sym) @ np.asarray(sigma)) / 4.0)


def entropy_difference_check(
    sigma: np.ndarray, frequencies: np.ndarray
) -> tuple[float, float]:
    """Relative entropy to the equal-energy thermal state, two ways.

    Returns (S(sigma || thermal), S_thermal - S_sigma).  At equal energy the
    energy terms of the free-energy difference cancel, so the two numbers
    agree for any valid state; disagreement flags an implementation bug.
    """
    fit = thermo.effective_temperature(sigma, frequencies)
    direct = thermo.relative_entropy(sigma, fit.thermal_sigma)
    difference = fit.thermal_entropy - gaussian.von_neumann_entropy(sigma)
    return direct, difference


def eigvals_symplectic_eigenvalues(sigma: np.ndarray, pair_tol: float = 1e-8) -> np.ndarray:
    """Symplectic eigenvalues by the nonsymmetric eigensolve, sorted descending.

    The moduli of the eigenvalues of Omega sigma come in +/- pairs; each
    pair is averaged.  An independent oracle for the Cholesky route of
    gaussian.symplectic_eigenvalues; it needs no positive definiteness.
    """
    sigma = np.asarray(sigma, dtype=float)
    w = np.linalg.eigvals(gaussian.symplectic_form(sigma.shape[0] // 2) @ sigma)
    moduli = np.sort(np.abs(w))[::-1]
    first, second = moduli[0::2], moduli[1::2]
    if np.max(np.abs(first - second)) > pair_tol * max(1.0, moduli[0]):
        raise gaussian.DecompositionError("eigenvalue moduli of Omega @ sigma did not pair up")
    return (first + second) / 2.0


def both_fixed_point_solvers(field_map) -> tuple[np.ndarray, np.ndarray]:
    """The fixed point of field_map by the Kronecker and by the Stein solver.

    spectral.fixed_point picks one of the two by size; each is the other's
    oracle on the same map.
    """
    d, q = field_map.d, field_map.q
    t, u = schur(d.astype(complex), output="complex")
    return spectral._fixed_point_kronecker(d, q), spectral._fixed_point_stein(t, u, q)
