"""Brute-force Fock-space validator for the Gaussian engine.

Truncates every oscillator (two detectors plus at most two field modes) at a
finite Fock level, builds the coupled Hamiltonian as a sparse matrix,
applies exp(-iHt) to the joint ground state by its Krylov action on that one
vector (sparse products H psi; neither the exponential nor an eigenbasis of
H is formed), and reads the covariance matrix off quadrature expectation
values.  Nothing here assumes Gaussianity, which is
the point: agreement with the symplectic engine certifies both.

Quadratures follow q = (a + a*)/sqrt(2), p = i(a* - a)/sqrt(2), so the
uncoupled ground state has covariance 1 on every diagonal entry, matching
the engine's vacuum normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from entfarm import cavity

DIMENSION_CAP = 120_000


class TooLargeError(ValueError):
    """Requested truncated Hilbert space exceeds the desk-scale cap."""


class CutoffTooSmallError(RuntimeError):
    """Truncation leakage invalidates the result; raise the Fock cutoff."""


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


def _ladder(cutoff: int) -> sparse.csr_matrix:
    return sparse.diags(np.sqrt(np.arange(1.0, cutoff)), 1, format="csr")


def _embed(op: sparse.spmatrix, site: int, n_sites: int, cutoff: int) -> sparse.csr_matrix:
    out = None
    for k in range(n_sites):
        factor = op if k == site else sparse.identity(cutoff, format="csr")
        out = factor if out is None else sparse.kron(out, factor, format="csr")
    return out


def _quadratures(n_sites: int, cutoff: int) -> list[sparse.csr_matrix]:
    """Operators (q_0, p_0, q_1, p_1, ...) over the product space."""
    a = _ladder(cutoff)
    q1 = (a + a.T) / np.sqrt(2.0)
    p1 = (a.T - a).astype(complex) * (1j / np.sqrt(2.0))
    ops = []
    for site in range(n_sites):
        ops.append(_embed(q1, site, n_sites, cutoff))
        ops.append(_embed(p1, site, n_sites, cutoff))
    return ops


def oscillator_hamiltonian(
    frequencies, couplings, cutoff: int
) -> sparse.csr_matrix:
    """H = sum_i w_i n_i + sum g q_i q_j for couplings given as (i, j, g).

    Zero-point energy is dropped; it shifts nothing observable here.
    """
    freqs = [float(w) for w in frequencies]
    n_sites = len(freqs)
    if cutoff**n_sites > DIMENSION_CAP:
        raise TooLargeError(
            f"truncated dimension {cutoff**n_sites} exceeds cap {DIMENSION_CAP}"
        )
    number = sparse.diags(np.arange(cutoff, dtype=float), format="csr")
    h = sparse.csr_matrix((cutoff**n_sites, cutoff**n_sites))
    for site, w in enumerate(freqs):
        h = h + w * _embed(number, site, n_sites, cutoff)
    a = _ladder(cutoff)
    q1 = (a + a.T) / np.sqrt(2.0)
    for i, j, g in couplings:
        if g == 0.0:
            continue
        h = h + g * (_embed(q1, i, n_sites, cutoff) @ _embed(q1, j, n_sites, cutoff))
    return h.tocsr()


def _system_couplings(config: FockConfig) -> tuple[list[float], list[tuple[int, int, float]]]:
    cav = config.cavity_config
    freqs = [cav.detector_frequency, cav.detector_frequency]
    freqs += list(cavity.mode_frequencies(cav))
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


def evolve_ground_state(config: FockConfig, t: float) -> np.ndarray:
    """Evolve the all-oscillator ground state for time t.

    exp(-iHt) acts on the state through scipy's expm_multiply, a Krylov
    action built from sparse products H psi (truncated Taylor steps of
    adaptive length), so neither the exponential nor an eigenbasis of H is
    materialized.  The norm must stay within 1e-10 of 1, or RuntimeError.
    Results are gated on truncation leakage: if the top Fock level of any
    oscillator carries more than 1e-6 probability the simulation is lying
    and CutoffTooSmallError says so.
    """
    freqs, couplings = _system_couplings(config)
    h = oscillator_hamiltonian(freqs, couplings, config.cutoff)
    psi = expm_multiply(-1j * t * h.tocsc(), _ground_state(config.dimension))
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise RuntimeError(f"state norm drifted to {norm!r} during evolution")
    leak = _top_level_population(psi, config.n_oscillators, config.cutoff)
    if leak > 1e-6:
        raise CutoffTooSmallError(
            f"top Fock level holds {leak:.3e} probability; raise the cutoff"
        )
    return psi


def state_covariance(psi: np.ndarray, n_sites: int, cutoff: int) -> np.ndarray:
    """Covariance sigma_ij = <x_i x_j + x_j x_i> - 2<x_i><x_j> of a Fock state."""
    ops = _quadratures(n_sites, cutoff)
    images = [op @ psi for op in ops]
    means = np.array([np.vdot(psi, y).real for y in images])
    n = len(ops)
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

