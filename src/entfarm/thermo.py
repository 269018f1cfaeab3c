"""Thermodynamic diagnostics for Gaussian states.

Relative entropy between two Gaussian states, the closest thermal state at
equal energy, and the entropy-ratio thermality estimator.  The reference
state enters through its quadratic log-density log rho = c + sum H_ij x_i x_j,
whose coefficients are read off the state's own Cholesky factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from entfarm import gaussian


# a symplectic eigenvalue within this of 1 is a pure direction
PURE_TOL = 1e-9
# relative precision at which effective_temperature stops refining beta
BETA_TOL = 1e-12


class DivergentLogDensityError(ValueError):
    """The reference state has a pure direction, so its log-density diverges."""


class NoThermalMatchError(ValueError):
    """No positive-temperature thermal state matches the target energy."""


class UndefinedEstimatorError(ValueError):
    """The thermality estimator is ill-defined (vacuum-energy state)."""


@dataclass(frozen=True)
class QuadraticLogDensity:
    """Coefficients of log rho = c + sum_ij H_ij x_i x_j for a Gaussian state."""

    c: float
    h: np.ndarray

    def relative_entropy(self, state: gaussian.StateAnalysis) -> float:
        """S(rho_A || rho) in nats: -S(A) - c - (1/2) sum_ij sigma^A_ij H_ij.

        rho_A is given by its analysis, so a caller that already factored
        it (such as a cycle's field_analysis, restricted to the coupled
        modes) pays for no second factorization.
        """
        if state.sigma.shape != self.h.shape:
            raise ValueError("states must have the same mode count")
        return float(-state.entropy - self.c - 0.5 * np.sum(state.sigma * self.h))


@dataclass(frozen=True)
class ThermalFit:
    """Thermal state matched to a target energy."""

    beta: float
    thermal_entropy: float


def log_density(state: gaussian.StateAnalysis) -> QuadraticLogDensity:
    """Quadratic log-density coefficients (c, H) of a mixed Gaussian state.

    Read off the state's Cholesky factor sigma = T T^T: with K = T^T Omega T
    and K^T K = U diag(s) U^T (each s = nu^2 twice), the Williamson form
    sigma = S D S^T has S^-1 T = D^(1/2) Q^T, Q orthogonal with
    Q D^2 Q^T = K^T K.  So H = S^-T diag((1/2) log((nu - 1)/(nu + 1))) S^-1
    = W diag(phi(s)) W^T with W = T^-T U and phi(s) = (1/2) sqrt(s)
    log((sqrt(s) - 1)/(sqrt(s) + 1)); c = (1/4) sum log(4 / (s - 1)) over all
    2N eigenvalues.  A symplectic eigenvalue within PURE_TOL of 1 makes the
    coefficients diverge and raises DivergentLogDensityError.
    """
    k = gaussian._factor_form(state.factor)
    s, u = np.linalg.eigh(k.T @ k)
    nus = np.sqrt(np.maximum(s, 0.0))
    if np.any(nus <= 1.0 + PURE_TOL):
        raise DivergentLogDensityError(
            f"symplectic eigenvalue {nus.min():.12g} is too close to 1; "
            "log-density coefficients diverge for pure directions"
        )
    c = float(np.sum(0.25 * np.log(4.0 / (s - 1.0))))
    w = np.linalg.solve(state.factor.T, u)
    h = (w * (0.5 * nus * np.log((nus - 1.0) / (nus + 1.0)))) @ w.T
    return QuadraticLogDensity(c=c, h=(h + h.T) / 2.0)


def relative_entropy(sigma_a: np.ndarray, sigma_b: np.ndarray) -> float:
    """Quantum relative entropy S(rho_A || rho_B) between Gaussian states.

    Evaluates log_density(StateAnalysis(sigma_b)).relative_entropy(StateAnalysis(sigma_a))
    in nats.  Returns +inf when the reference state has a pure direction.
    Result is nonnegative up to ~1e-9 of rounding.
    """
    if np.shape(sigma_a) != np.shape(sigma_b):
        raise ValueError("states must have the same mode count")
    state_a = gaussian.StateAnalysis(sigma_a)
    try:
        ref = log_density(gaussian.StateAnalysis(sigma_b))
    except DivergentLogDensityError:
        state_a.entropy  # an invalid sigma_a still raises
        return math.inf
    return ref.relative_entropy(state_a)


def _thermal_excitation_energy(frequencies: np.ndarray, beta: float) -> tuple[float, float]:
    # excitation energy E(beta) = sum w nbar of the thermal state and its
    # slope dE/dbeta = -sum w^2 nbar (nbar + 1), from the occupations
    # nbar = 1 / expm1(w beta), which keep full precision where
    # coth(w beta / 2) - 1 cancels; past expm1's overflow nbar is 1/inf = 0
    with np.errstate(over="ignore"):
        nbar = 1.0 / np.expm1(frequencies * beta)
    energy_above = float(np.sum(frequencies * nbar))
    slope = -float(np.sum(frequencies**2 * nbar * (nbar + 1.0)))
    return energy_above, slope


def effective_temperature(sigma: np.ndarray, frequencies: np.ndarray) -> ThermalFit:
    """Thermal state of the same free Hamiltonian with the same energy.

    That state is the closest thermal state in relative entropy, since the
    entropy gradient vanishes exactly at equal mean energy.  Energy is
    monotone in temperature, so a bracket on beta always exists; inside it
    Newton steps on log E(beta), which is convex and decreasing, converge
    in a handful of iterations, and any step that leaves the bracket is
    replaced by a bisection.  States at or below vacuum energy have no
    positive-temperature match; the beta -> infinity limit is reported
    through NoThermalMatchError.
    """
    return _thermal_fit(gaussian.StateAnalysis(sigma), frequencies)


def _thermal_fit(state: gaussian.StateAnalysis, frequencies: np.ndarray) -> ThermalFit:
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
    # energy above the vacuum; convention-free quantity
    target = gaussian.energy_from_traces(state.block_traces, frequencies, "normal_ordered")
    scale = float(np.sum(frequencies))
    # the floor absorbs trace rounding of a vacuum-up-to-eps state
    if target <= 1e-12 * scale:
        raise NoThermalMatchError(
            f"excitation energy {target:.6g} is at the vacuum floor; "
            "the matching thermal state is the beta -> infinity limit"
        )

    # bracket the root of E(beta) - target, which is decreasing in beta
    beta_lo = beta_hi = 1.0 / float(np.min(frequencies))
    while _thermal_excitation_energy(frequencies, beta_lo)[0] < target:
        beta_lo /= 2.0
        if beta_lo < 1e-300:
            raise NoThermalMatchError("target energy too large to bracket")
    while _thermal_excitation_energy(frequencies, beta_hi)[0] > target:
        beta_hi *= 2.0
        if beta_hi > 1e300:
            raise NoThermalMatchError("target energy too small to bracket")

    # from the low end Newton on the convex log E never overshoots the root
    beta = beta_lo
    for _ in range(200):
        energy_above, slope = _thermal_excitation_energy(frequencies, beta)
        if energy_above > target:
            beta_lo = beta
        else:
            beta_hi = beta
        step = math.nan
        if energy_above > 0.0 and slope < 0.0:
            step = math.log(energy_above / target) * energy_above / slope
        new = beta - step
        if not beta_lo <= new <= beta_hi:
            new = math.sqrt(beta_lo * beta_hi)
        converged = abs(new - beta) <= BETA_TOL * new or beta_hi - beta_lo <= BETA_TOL * beta_lo
        beta = new
        if converged:
            break
    nus = gaussian.thermal_symplectic_eigenvalues(frequencies, 1.0 / beta)
    return ThermalFit(beta=beta, thermal_entropy=gaussian.entropy_of_spectrum(nus))


def thermality_estimator(sigma: np.ndarray, frequencies: np.ndarray) -> float:
    """Entropy ratio S(sigma) / S(thermal at equal energy), in [0, 1].

    1 means exactly thermal, 0 means pure.  Vacuum-energy states have a
    zero-entropy reference and raise UndefinedEstimatorError.
    """
    return thermality_of(gaussian.StateAnalysis(sigma), frequencies)


def thermality_of(state: gaussian.StateAnalysis, frequencies: np.ndarray) -> float:
    """thermality_estimator of an analysed state, reusing its factorization."""
    try:
        fit = _thermal_fit(state, frequencies)
    except NoThermalMatchError:
        raise UndefinedEstimatorError(
            "thermality is ill-defined at vacuum energy (0/0 entropy ratio)"
        )
    if fit.thermal_entropy <= 0.0:
        raise UndefinedEstimatorError("matched thermal state has zero entropy")
    return state.entropy / fit.thermal_entropy

