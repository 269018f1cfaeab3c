"""Spectral analysis of the field update map.

One extraction cycle acts on the field covariance as the affine map
sigma -> D sigma D^T + C C^T.  Everything long-run lives here: the spectrum
of D, convergence / instability timescales, the fixed point of the map, an
O(log k) evaluator for the k-fold composition, and the extinction scan that
locates where repeated extraction stops working.
"""

from __future__ import annotations

import contextlib
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from entfarm import cavity, gaussian, protocol
from entfarm.protocol import AffineMap, CycleBlocks, GrowthOverflowError


# |d1| within this of 1 has neither a convergence nor an instability time
UNIT_CIRCLE_TOL = 1e-12
# eigenvalue products d_i d_j within this of 1 make the fixed point degenerate
CONTRACTION_TOL = 1e-10
# largest eigenvector condition |E|_1 |E^-1|_1 the eigenbasis solve takes:
# physical coupled maps reach 47 and random contracting maps solve cleanly to
# 781, while a nearly defective map loses digits as the condition grows (8e-10
# residual at 6e3) and a defective one reaches 1e200 and a NaN fixed point
EIGENBASIS_COND_MAX = 1e3


class SpectralFailureError(RuntimeError):
    """The eigensolver failed on the field map, or its eigenvectors are
    singular or conditioned past EIGENBASIS_COND_MAX (a defective map)."""


class NoUniqueFixedPointError(RuntimeError):
    """The coupled field map has (near-)unit spectrum; no unique fixed point."""


# ---------------------------------------------------------------------------
# spectrum and timescales


@dataclass(frozen=True)
class FieldSpectrum:
    """Eigenvalues of the homogeneous part D: modulus descending, then imaginary
    part descending, then real part descending."""

    eigenvalues: np.ndarray

    @property
    def max_modulus(self) -> float:
        return float(np.abs(self.eigenvalues[0]))


def field_spectrum(field_map: AffineMap) -> FieldSpectrum:
    """Spectrum of the homogeneous part of a field map.

    Pass a CycleBlocks' coupled_map to leave out the decoupled modes, whose
    exact unit-modulus rotations would mask the contraction or growth of
    everything else, or its field_map for the whole field.

    eigvals runs on each of the map's blocks of D (AffineMap.blocks: one per
    group of two or more modes, one stack of the one-mode groups); a
    one-group map takes one eigvals of the whole D.  A CycleBlocks' maps
    have two coupled groups, the parity sectors of cavity.parity_sectors,
    when both detectors share Omega and lambda, are injected in the vacuum,
    and every coupled mode has sin(k_n x2) = +/-sin(k_n x1) within
    cavity.NODE_TOL.  The split is exact: rotating the detector pair to
    q_d1 +/- q_d2 leaves its free Hamiltonian and its vacuum unchanged and
    couples each combination to one sector only, so no entry of D (or of
    C C^T) joins the sectors.  Each decoupled mode of a field_map is one
    more group.  The fixed sort order puts equal moduli (conjugate pairs,
    nodal rotations) in the same rows whatever order the groups come in.
    """
    d_blocks, _ = field_map.blocks
    try:
        ev = np.concatenate(
            [np.linalg.eigvals(block).ravel() for block in d_blocks] or [np.empty(0, complex)]
        )
    except np.linalg.LinAlgError as exc:
        raise SpectralFailureError(f"eigenvalue computation failed: {exc}") from None
    order = np.lexsort((-ev.real, -ev.imag, -np.abs(ev)))
    return FieldSpectrum(eigenvalues=ev[order])


def timescales(spectrum: FieldSpectrum) -> tuple[float | None, float | None]:
    """(convergence_n, instability_n) in cycles, from the leading modulus.

    Contractive maps converge over n = -1 / log|d1| cycles; expanding maps
    blow up over n = 1 / log|d1|.  Within UNIT_CIRCLE_TOL of the unit circle
    neither notion applies and both entries are None, as they are for the
    empty spectrum of a map with no coupled mode.  Natural log: these are
    physical cycle counts, independent of the entropy unit.
    """
    if not spectrum.eigenvalues.size:
        return None, None
    m = spectrum.max_modulus
    if abs(m - 1.0) <= UNIT_CIRCLE_TOL:
        return None, None
    if m < 1.0:
        return -1.0 / math.log(m), None
    return None, 1.0 / math.log(m)


# ---------------------------------------------------------------------------
# fixed point


@dataclass(frozen=True)
class FixedPointResult:
    """Fixed point of a field map plus how trustworthy it is.

    sigma_star solves sigma = d sigma d^T + q for the map it was given, and
    the residual is the max-abs defect of that Stein equation; method names
    the route, "kronecker" or "stein" (the eigenbasis solve).  For a
    CycleBlocks' coupled_map, whole_field places sigma_star into a whole
    field state.  An unstable map still has a unique fixed point, but it
    need not be a physical state; validity is the caller's check.
    """

    sigma_star: np.ndarray
    residual: float
    method: str


def _sym_map_matrix(d: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Matrix of sigma -> D sigma D^T on the sigma_{ij} (i <= j) coordinates."""
    iu = np.triu_indices(d.shape[0])
    i, j = iu
    k, l = iu
    a = d[np.ix_(i, k)] * d[np.ix_(j, l)] + d[np.ix_(i, l)] * d[np.ix_(j, k)]
    a[:, k == l] /= 2.0
    return a, iu


def _fixed_point_kronecker(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    a, iu = _sym_map_matrix(d)
    x = np.linalg.solve(np.eye(a.shape[0]) - a, q[iu])
    out = np.zeros_like(q)
    out[iu] = x
    out.T[iu] = x
    return out


def _fixed_point_eigenbasis(e: np.ndarray, denominators: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sigma = Re(E Z E^T), Z = E^-1 Q E^-T / denominators, for D = E diag(lambda) E^-1."""
    try:
        e_inv = np.linalg.inv(e)
        kappa = np.linalg.norm(e, 1) * np.linalg.norm(e_inv, 1)
    except np.linalg.LinAlgError:  # E is singular
        kappa = math.inf
    if not kappa <= EIGENBASIS_COND_MAX:
        raise SpectralFailureError(
            f"eigenvector condition kappa_1 {kappa:.3g} of the field map passes the "
            f"bound {EIGENBASIS_COND_MAX:g}; the map is (nearly) defective"
        )
    x = (e @ ((e_inv @ q @ e_inv.T) / denominators) @ e.T).real
    return (x + x.T) / 2.0


def fixed_point(field_map: AffineMap) -> FixedPointResult:
    """Unique fixed point of sigma -> d sigma d^T + q.

    One eigendecomposition d = E diag(lambda) E^-1 gates and solves: every
    Stein denominator 1 - lambda_i lambda_j must stay CONTRACTION_TOL from 0.
    Up to 16 rows (8 modes) "kronecker" solves the dense system in the
    M(2M+1) entries sigma_ij, i <= j; above, "stein" divides by the
    denominators in the eigenbasis, raising SpectralFailureError when E is
    singular or conditioned past EIGENBASIS_COND_MAX.  A decoupled mode's free
    rotation breaks uniqueness: pass a CycleBlocks' coupled_map.
    """
    d, q = field_map.d, field_map.q
    try:
        ev, e = np.linalg.eig(d)
    except np.linalg.LinAlgError as exc:
        raise SpectralFailureError(f"eigendecomposition failed: {exc}") from None
    denominators = 1.0 - np.outer(ev, ev)
    distance = np.abs(denominators).min()
    if distance < CONTRACTION_TOL:
        raise NoUniqueFixedPointError(
            "an eigenvalue product of the coupled field map sits on the unit "
            f"circle (distance {distance:.3e}); the fixed point is degenerate"
        )
    if d.shape[0] <= 16:
        method, sigma_star = "kronecker", _fixed_point_kronecker(d, q)
    else:
        method, sigma_star = "stein", _fixed_point_eigenbasis(e, denominators, q)
    residual = float(np.max(np.abs(d @ sigma_star @ d.T + q - sigma_star)))
    return FixedPointResult(sigma_star=sigma_star, residual=residual, method=method)


# ---------------------------------------------------------------------------
# k-fold composition in O(log k)


def _squarings(first: AffineMap, k: int) -> Iterator[AffineMap]:
    """The one-cycle map first, then the square of the last map yielded
    while that square has at most k cycles: first's 2^j-cycle compositions.

    The one place a square is formed.  It and first are checked against
    protocol.GROWTH_CAP: an entry of d or q past the cap, or not finite,
    raises GrowthOverflowError with k_reached the last k yielded (0 for
    first).  Each square replaces the last: one map is held at a time.
    """
    cap = protocol.GROWTH_CAP
    power = first
    while True:
        if not power.entry_max <= cap:
            raise GrowthOverflowError(
                f"composed map norm exceeded {cap:g} at 2^{power.k.bit_length() - 1} "
                f"cycles while assembling k={k}",
                k_reached=power.k // 2,
            )
        yield power
        if 2 * power.k > k:
            return
        power = power.then(power)


def _composition(first: AffineMap, k: int) -> AffineMap:
    """first composed k times: the _squarings that k's bits name, lowest
    first, each product of two checked against protocol.GROWTH_CAP."""
    cap = protocol.GROWTH_CAP
    acc = None
    try:
        for j, power in enumerate(_squarings(first, k)):
            if k >> j & 1 and acc is None:
                acc = power
            elif k >> j & 1:
                composed = acc.then(power)
                if not composed.entry_max <= cap:
                    raise GrowthOverflowError(
                        f"composed map norm exceeded {cap:g} while assembling k={k}",
                        k_reached=power.k,
                    )
                acc = composed
    except GrowthOverflowError as exc:
        # the largest completed composition: the last square or acc
        exc.k_reached = max(exc.k_reached, 0 if acc is None else acc.k)
        raise
    return acc


def power_map(blocks: CycleBlocks, k: int) -> AffineMap:
    """Compose the cycle map with itself k times by binary doubling.

    Cost O(log k) products of the map's group blocks (AffineMap.then),
    exact up to rounding; the result holds only those blocks.  In the unstable
    regime the composed map grows without bound; when an entry of its d or q
    passes protocol.GROWTH_CAP, or is not finite, the computation aborts with
    GrowthOverflowError whose k_reached attribute reports the largest
    completed composition, 0 when the one-cycle map itself is over the cap.
    For k = 2^j the result is the j-th squaring of the one-cycle map.  k is
    an integer (Python or numpy); any other k raises ValueError.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"cycle count must be an integer, not {k!r}") from None
    if k < 1:
        raise ValueError("cycle count must be >= 1")
    return _composition(blocks.field_map, k)


# ---------------------------------------------------------------------------
# extinction scan


# the scan samples k = 2^0 ... 2^SCAN_DOUBLINGS cycles
SCAN_DOUBLINGS = 30


@dataclass
class ExtinctionScan:
    """Entanglement of one fresh cycle applied to the field after k cycles.

    negativities[i] is E_N of the detector pair after cycle k_i + 1 with the
    field in its k_i-cycle state.  extinction_k is the smallest sampled k
    whose E_N is zero after an earlier positive value, None if extraction
    never died (or never lived).  The growth cap ended the scan early when
    ks[-1] < 2^SCAN_DOUBLINGS.
    """

    ks: list[int]
    negativities: list[float]
    extinction_k: int | None
    spectral_estimate: float | None


def extinction_scan(
    config: cavity.CavityConfig, sigma_f0: np.ndarray | None = None
) -> ExtinctionScan:
    """Sample extraction quality at k = 1, 2, 4, ..., 2^SCAN_DOUBLINGS cycles.

    The start is checked and split once, before the spectrum, on the map
    that steps it (protocol._checked_start, as in run_cycles: the cycle map,
    or its one-group map for a start that correlates two groups).  The
    samples are _squarings of that map; each steps the start's blocks and
    reads the detectors on them (CycleBlocks._readout).  If the unstable
    growth passes protocol.GROWTH_CAP while extraction is still live, the
    scan refines past the last good point, composing each k afresh from the
    same map, before giving up.
    """
    blocks = protocol.blocks_for(config)
    step, state = protocol._checked_start(blocks.field_map, sigma_f0)
    _, instability_n = timescales(field_spectrum(blocks.coupled_map))
    ks: list[int] = []
    negs: list[float] = []

    def sample(power: AffineMap) -> None:
        sigma_d = blocks._readout(power.partition, power._update(state))
        ks.append(power.k)
        negs.append(gaussian.log_negativity(sigma_d))

    try:
        for power in _squarings(step, 2**SCAN_DOUBLINGS):
            sample(power)
    except GrowthOverflowError:
        if negs and negs[-1] > 0.0:
            # refine geometrically between the last good k and the cap
            k = ks[-1]
            with contextlib.suppress(GrowthOverflowError):
                for _ in range(6):
                    k = int(k * 1.3) + 1
                    sample(_composition(step, k))

    # the first zero after the first positive E_N
    live = next((i for i, e in enumerate(negs) if e > 0.0), len(negs))
    extinction_k = next((k for k, e in zip(ks[live:], negs[live:]) if not e > 0.0), None)
    return ExtinctionScan(
        ks=ks, negativities=negs, extinction_k=extinction_k, spectral_estimate=instability_n
    )
