"""Symplectic time evolution generated by the quadratic Hamiltonian.

The equation of motion for the phase-space propagator is
dS/dt = Omega F_sym S, solved exactly by S(t) = exp(Omega F_sym t) for
time-independent couplings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from entfarm import cavity, gaussian


class PropagatorAccuracyError(RuntimeError):
    """The computed propagator failed its symplectic self-check."""


@dataclass(frozen=True)
class Propagator:
    """One-shot symplectic evolution matrix with its generation metadata."""

    s: np.ndarray
    t: float
    fingerprint: str = ""


def propagator(f_sym: np.ndarray, t: float, fingerprint: str = "") -> Propagator:
    """exp(Omega F_sym t) via scaling-and-squaring Pade approximation.

    The result is verified to be symplectic to 1e-9 in max norm; a failure
    indicates the exponential lost accuracy (ill-scaled input) and raises
    PropagatorAccuracyError rather than returning a drifting matrix.
    """
    f_sym = np.asarray(f_sym, dtype=float)
    if f_sym.ndim != 2 or f_sym.shape[0] != f_sym.shape[1] or f_sym.shape[0] % 2:
        raise ValueError("F_sym must be square with even dimension")
    if not np.allclose(f_sym, f_sym.T, atol=1e-12 * max(1.0, np.abs(f_sym).max())):
        raise ValueError("F_sym must be symmetric")
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    s = expm(gaussian.apply_symplectic_form(f_sym) * t)
    drift = gaussian.check_symplectic(s)
    if drift > 1e-9:
        raise PropagatorAccuracyError(
            f"propagator violates the symplectic condition by {drift:.3e}"
        )
    return Propagator(s=s, t=float(t), fingerprint=fingerprint)


@lru_cache(maxsize=64)
def propagator_for(config: cavity.CavityConfig) -> Propagator:
    """One-cycle propagator for a cavity setup; cached, configs are frozen."""
    return propagator(
        cavity.hamiltonian_matrix(config), config.cycle_time, config.fingerprint()
    )


def evolve(sigma: np.ndarray, prop: Propagator) -> np.ndarray:
    """sigma(t) = S sigma S^T; symmetrized to absorb rounding."""
    sigma = np.asarray(sigma, dtype=float)
    s = prop.s
    if sigma.shape != s.shape:
        raise ValueError(f"state shape {sigma.shape} does not match propagator {s.shape}")
    out = s @ sigma @ s.T
    return (out + out.T) / 2.0

