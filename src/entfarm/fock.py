"""Brute-force Fock-space validator for the Gaussian engine.

Truncates every oscillator (two detectors plus at most two field modes) at a
finite Fock level, applies the coupled Hamiltonian to a state as a sum of
products of c x c single-oscillator factors (H itself is never formed),
applies exp(-iHt) to the joint ground state by Al-Mohy & Higham's truncated
Taylor action on that one vector (products H psi; neither the exponential
nor an eigenbasis of H is formed), and reads the covariance matrix off
quadrature expectation values.  numpy alone does all of it.  Nothing here
assumes Gaussianity, which is the point: agreement with the symplectic
engine certifies both.

Quadratures follow q = (a + a*)/sqrt(2), p = i(a* - a)/sqrt(2), so the
uncoupled ground state has covariance 1 on every diagonal entry, matching
the engine's vacuum normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from entfarm import cavity

DIMENSION_CAP = 120_000
# how far the evolved state's norm may drift from 1
NORM_TOL = 1e-10


class TooLargeError(ValueError):
    """Requested truncated Hilbert space exceeds the desk-scale cap."""


class CutoffTooSmallError(RuntimeError):
    """Truncation leakage invalidates the result; raise the Fock cutoff."""


class NormDriftError(RuntimeError):
    """The evolved state's norm left 1 by more than NORM_TOL."""


@dataclass(frozen=True)
class FockConfig:
    """Truncated-Fock counterpart of a small cavity configuration.

    The physics (geometry, coupling, frequencies) is taken verbatim from the
    embedded cavity config; cutoff is the Fock-space dimension per
    oscillator.  Oscillator order is detector 1, detector 2, then the field
    modes, mirroring the phase-space ordering of the Gaussian engine.
    """

    cavity_config: cavity.CavityConfig
    cutoff: int = 8

    def __post_init__(self):
        if self.cavity_config.n_field_modes > 2:
            raise TooLargeError(
                "brute-force validation supports at most 2 field modes, got "
                f"{self.cavity_config.n_field_modes}"
            )
        if not 2 <= self.cutoff <= 20:
            raise ValueError(f"fock cutoff must be in [2, 20], got {self.cutoff}")
        if self.dimension > DIMENSION_CAP:
            raise TooLargeError(
                f"truncated dimension {self.dimension} exceeds cap {DIMENSION_CAP}"
            )

    @property
    def n_oscillators(self) -> int:
        return 2 + self.cavity_config.n_field_modes

    @property
    def dimension(self) -> int:
        return self.cutoff**self.n_oscillators


def _site_factors(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The c x c factors of one oscillator's quadratures: q, and k with p = i k."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    return (a + a.T) / np.sqrt(2.0), (a.T - a) / np.sqrt(2.0)


def _on_site(factor: np.ndarray, site: int, psi: np.ndarray) -> np.ndarray:
    """factor acting on oscillator `site` of a flat product-space vector psi."""
    view = psi.reshape(factor.shape[0] ** site, factor.shape[0], -1)
    return np.matmul(factor, view).reshape(psi.shape)


class _TensorHamiltonian:
    """sum_i w_i n_i + sum g q_i q_j acting on flat vectors by `@`; never formed.

    The number sum is a diagonal; the couplings are applied as
    sum_i q_i (sum_j g_ij q_j psi) with each q_j psi formed once, one c x c
    matmul per site on the (c^s, c, c^(n-s-1)) view of the vector.  The two
    detectors share their field partners, so verify's couplings cost four
    site products per matvec (three with one field mode), not two per term.
    """

    def __init__(self, diagonal: np.ndarray, couplings, q: np.ndarray):
        self.diagonal = diagonal
        self.couplings = [(i, j, g) for i, j, g in couplings if g != 0.0]
        self._q = q
        self._inner = sorted({j for _, j, _ in self.couplings})
        self._outer: dict[int, list[tuple[int, float]]] = {}
        for i, j, g in self.couplings:
            self._outer.setdefault(i, []).append((j, g))

    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        inner = {j: _on_site(self._q, j, psi) for j in self._inner}
        out = self.diagonal * psi
        for i, terms in self._outer.items():
            out += _on_site(self._q, i, sum(g * inner[j] for j, g in terms))
        return out

    def magnitude(self, shift: float) -> _TensorHamiltonian:
        """|H - shift| entrywise.  q has no negative entry, so this is
        |diagonal - shift| plus the couplings at |g|: a coupling between two
        distinct sites moves both occupations by one, so it shares no entry
        with another pair or with the diagonal and nothing cancels.  A
        repeated pair or a q_i^2 term makes it an upper bound instead."""
        return _TensorHamiltonian(
            np.abs(self.diagonal - shift),
            [(i, j, abs(g)) for i, j, g in self.couplings],
            self._q,
        )


def oscillator_hamiltonian(frequencies, couplings, cutoff: int) -> _TensorHamiltonian:
    """H = sum_i w_i n_i + sum g q_i q_j for couplings given as (i, j, g).

    Returned as an operator whose `@` acts on a flat vector of the product
    space, oscillator 0 the slowest index.  Zero-point energy is dropped; it
    shifts nothing observable here.
    """
    freqs = [float(w) for w in frequencies]
    n_sites = len(freqs)
    if cutoff**n_sites > DIMENSION_CAP:
        raise TooLargeError(
            f"truncated dimension {cutoff**n_sites} exceeds cap {DIMENSION_CAP}"
        )
    number = np.arange(cutoff, dtype=float)
    diagonal = np.zeros(1)
    for w in freqs:
        diagonal = (diagonal[:, None] + w * number).ravel()
    q, _ = _site_factors(cutoff)
    return _TensorHamiltonian(diagonal, couplings, q)


def _system_couplings(config: FockConfig) -> tuple[list[float], list[tuple[int, int, float]]]:
    cav = config.cavity_config
    freqs = list(cavity.joint_frequencies(cav))
    x = cavity.coupling_matrix(cav)
    couplings = []
    for j in range(cav.n_field_modes):
        couplings.append((0, 2 + j, 2.0 * cav.coupling * x[0, 2 * j]))
        couplings.append((1, 2 + j, 2.0 * cav.coupling * x[2, 2 * j]))
    return freqs, couplings


def _ground_state(dimension: int) -> np.ndarray:
    psi = np.zeros(dimension, dtype=complex)
    psi[0] = 1.0
    return psi


def _top_level_population(psi: np.ndarray, n_sites: int, cutoff: int) -> float:
    """Largest per-oscillator probability of sitting at the truncation edge."""
    prob = np.abs(psi.reshape((cutoff,) * n_sites)) ** 2
    worst = 0.0
    for site in range(n_sites):
        worst = max(worst, float(np.take(prob, cutoff - 1, axis=site).sum()))
    return worst


# theta_m of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 488, 2011) in double
# precision (Higham, Functions of Matrices, table A.3): m Taylor terms of
# exp(A) psi are accurate to unit roundoff while ||A||_1 <= theta_m.  The
# table stops at m = 30, which keeps verify's two truncations within 2e-14
# of a dense eigendecomposition (tests/test_fock.py).
_THETA = (
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2,
    8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1,
    9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08,
    3.31, 3.54,
)
_UNIT_ROUNDOFF = 2.0**-53


def _taylor_action(h: _TensorHamiltonian, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) psi by Al-Mohy & Higham's truncated Taylor action.

    H is shifted by mu, the mean of its diagonal (the phase exp(-i mu t / s)
    put back after each step); the exact 1-norm of t (H - mu) is the largest entry of
    |H - mu| applied to ones.  The time is cut into s steps of m Taylor
    terms each, (m, s) the pair with the fewest products m s subject to
    ||t (H - mu)||_1 <= s theta_m, and a step's series stops early once two
    successive terms fall below unit roundoff of the sum.
    """
    mu = float(h.diagonal.mean())
    norm = abs(t) * float((h.magnitude(mu) @ np.ones(len(psi))).max())
    m, s = 0, 1
    if norm > 0.0:
        m, s = min(
            ((terms, math.ceil(norm / theta)) for terms, theta in enumerate(_THETA, start=1)),
            key=lambda pair: pair[0] * pair[1],
        )
    eta = np.exp(-1j * t * mu / s)
    f = psi
    for _ in range(s):
        b = f
        c1 = np.abs(b).max()
        for j in range(m):
            b = (-1j * t / (s * (j + 1))) * (h @ b - mu * b)
            c2 = np.abs(b).max()
            f = f + b
            if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(f).max():
                break
            c1 = c2
        f = eta * f
    return f


def evolve_ground_state(config: FockConfig, t: float) -> np.ndarray:
    """Evolve the all-oscillator ground state for time t.

    exp(-iHt) acts on the state by a truncated Taylor series in steps
    (_taylor_action), built from products H psi alone, so neither the
    exponential nor an eigenbasis of H is materialized.  The norm must stay
    within NORM_TOL of 1, or NormDriftError.  Results are gated on
    truncation leakage: if the top Fock level of any oscillator carries
    more than 1e-6 probability the simulation is lying and
    CutoffTooSmallError says so.
    """
    freqs, couplings = _system_couplings(config)
    h = oscillator_hamiltonian(freqs, couplings, config.cutoff)
    psi = _taylor_action(h, _ground_state(config.dimension), t)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_TOL:
        raise NormDriftError(f"state norm drifted to {norm!r} during evolution")
    leak = _top_level_population(psi, config.n_oscillators, config.cutoff)
    if leak > 1e-6:
        raise CutoffTooSmallError(
            f"top Fock level holds {leak:.3e} probability; raise the cutoff"
        )
    return psi


def state_covariance(psi: np.ndarray, n_sites: int, cutoff: int) -> np.ndarray:
    """Covariance sigma_ij = <x_i x_j + x_j x_i> - 2<x_i><x_j> of a Fock state."""
    q, k = _site_factors(cutoff)
    images = []
    for site in range(n_sites):
        images += [_on_site(q, site, psi), 1j * _on_site(k, site, psi)]
    means = np.array([np.vdot(psi, y).real for y in images])
    n = len(images)
    sigma = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            sigma[i, j] = sigma[j, i] = 2.0 * (
                np.vdot(images[i], images[j]).real - means[i] * means[j]
            )
    return sigma


def evolve_and_covariance(config: FockConfig, t: float) -> np.ndarray:
    """Covariance of detectors plus field modes after evolving for time t."""
    psi = evolve_ground_state(config, t)
    return state_covariance(psi, config.n_oscillators, config.cutoff)

