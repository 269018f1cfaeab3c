"""Thermodynamic diagnostics for Gaussian states.

Relative entropy between two Gaussian states, the closest thermal state at
equal energy, and the entropy-ratio thermality estimator.  The reference
state enters through its quadratic log-density log rho = c + sum H_ij x_i x_j,
whose coefficients follow from the Williamson normal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from entfarm import gaussian


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


@dataclass(frozen=True)
class ThermalFit:
    """Thermal state matched to a target energy."""

    beta: float
    thermal_entropy: float
    thermal_sigma: np.ndarray

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta


def log_density(sigma_b: np.ndarray, pure_tol: float = 1e-9) -> QuadraticLogDensity:
    """Quadratic log-density coefficients (c, H) of a mixed Gaussian state.

    With sigma_B = S D S^T (Williamson) the diagonal form has per-mode
    coefficients H_k = (1/2) log((nu_k - 1)/(nu_k + 1)) and the constant is
    c = sum_k (1/2) log(4 / (nu_k^2 - 1)).  Transforming back gives
    H = S^{-T} H_diag S^{-1}.  A symplectic eigenvalue within pure_tol of 1
    makes the coefficients diverge and raises DivergentLogDensityError.
    """
    s, d = gaussian.williamson_normal_form(sigma_b)
    nus = np.diag(d)[0::2]
    if np.any(nus <= 1.0 + pure_tol):
        raise DivergentLogDensityError(
            f"symplectic eigenvalue {nus.min():.12g} is too close to 1; "
            "log-density coefficients diverge for pure directions"
        )
    c = float(np.sum(0.5 * np.log(4.0 / (nus**2 - 1.0))))
    h_diag = np.repeat(0.5 * np.log((nus - 1.0) / (nus + 1.0)), 2)
    omega = gaussian.symplectic_form(len(nus))
    s_inv = -omega @ s.T @ omega  # symplectic inverse
    h = s_inv.T @ np.diag(h_diag) @ s_inv
    return QuadraticLogDensity(c=c, h=(h + h.T) / 2.0)


def relative_entropy(sigma_a: np.ndarray, sigma_b: np.ndarray) -> float:
    """Quantum relative entropy S(rho_A || rho_B) between Gaussian states.

    Evaluates -S(A) - c_B - (1/2) sum_ij sigma^A_ij (H_B)_ij in nats.
    Returns +inf when the reference state has a pure direction.  Result is
    nonnegative up to ~1e-9 of rounding.
    """
    sigma_a = np.asarray(sigma_a, dtype=float)
    sigma_b = np.asarray(sigma_b, dtype=float)
    if sigma_a.shape != sigma_b.shape:
        raise ValueError("states must have the same mode count")
    entropy_a = gaussian.von_neumann_entropy(sigma_a)
    try:
        ref = log_density(sigma_b)
    except DivergentLogDensityError:
        return math.inf
    return float(-entropy_a - ref.c - 0.5 * np.sum(sigma_a * ref.h))


def _excitation_energy(sigma: np.ndarray, frequencies: np.ndarray) -> float:
    # energy above the vacuum; convention-free quantity
    return gaussian.energy(sigma, frequencies, "normal_ordered")


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


def effective_temperature(
    sigma: np.ndarray, frequencies: np.ndarray, rel_tol: float = 1e-12
) -> ThermalFit:
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
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
    target = _excitation_energy(sigma, frequencies)
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
        converged = abs(new - beta) <= rel_tol * new or beta_hi - beta_lo <= rel_tol * beta_lo
        beta = new
        if converged:
            break
    thermal_sigma = gaussian.thermal_state(frequencies, 1.0 / beta)
    return ThermalFit(
        beta=beta,
        thermal_entropy=gaussian.entropy_of_spectrum(np.diag(thermal_sigma)[0::2]),
        thermal_sigma=thermal_sigma,
    )


def thermality_estimator(sigma: np.ndarray, frequencies: np.ndarray) -> float:
    """Entropy ratio S(sigma) / S(thermal at equal energy), in [0, 1].

    1 means exactly thermal, 0 means pure.  Vacuum-energy states have a
    zero-entropy reference and raise UndefinedEstimatorError.
    """
    try:
        fit = effective_temperature(sigma, frequencies)
    except NoThermalMatchError:
        raise UndefinedEstimatorError(
            "thermality is ill-defined at vacuum energy (0/0 entropy ratio)"
        )
    if fit.thermal_entropy <= 0.0:
        raise UndefinedEstimatorError("matched thermal state has zero entropy")
    return gaussian.von_neumann_entropy(sigma) / fit.thermal_entropy

