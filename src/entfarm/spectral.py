"""Spectral analysis of the field update map.

One extraction cycle acts on the field covariance as the affine map
sigma -> D sigma D^T + C C^T.  Everything long-run lives here: the spectrum
of D, convergence / instability timescales, the fixed point of the map, an
O(log k) evaluator for the k-fold composition, and the extinction scan that
locates where repeated extraction stops working.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from entfarm import cavity, gaussian, protocol
from entfarm.protocol import AffineMap, CycleBlocks, GrowthOverflowError


# |d1| within this of 1 has neither a convergence nor an instability time
UNIT_CIRCLE_TOL = 1e-12
# eigenvalue products d_i d_j within this of 1 make the fixed point degenerate
CONTRACTION_TOL = 1e-10


class SpectralFailureError(RuntimeError):
    """The eigenvalue solver did not converge on the field map."""


class NoUniqueFixedPointError(RuntimeError):
    """The coupled field map has (near-)unit spectrum; no unique fixed point."""


# ---------------------------------------------------------------------------
# spectrum and timescales


@dataclass(frozen=True)
class FieldSpectrum:
    """Eigenvalues of the homogeneous part D, sorted by descending modulus."""

    eigenvalues: np.ndarray

    @property
    def max_modulus(self) -> float:
        return float(np.abs(self.eigenvalues[0]))


def field_spectrum(field_map: AffineMap) -> FieldSpectrum:
    """Spectrum of the homogeneous part of a field map.

    Pass a CycleBlocks' coupled_map to leave out the decoupled modes, whose
    exact unit-modulus rotations would mask the contraction or growth of
    everything else, or its field_map for the whole field.
    """
    try:
        ev = np.linalg.eigvals(field_map.d)
    except np.linalg.LinAlgError as exc:
        raise SpectralFailureError(f"eigenvalue computation failed: {exc}")
    order = np.argsort(-np.abs(ev))
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
    the residual is the max-abs defect of that Stein equation.  For a
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


def _fixed_point_stein(t: np.ndarray, u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve sigma = D sigma D^T + Q by Schur back-substitution.

    With D = U T U^H (complex Schur form (T, U), T upper triangular) and
    Z = U^H X conj(U), the equation becomes Z = T Z T^T + Q_z and solves
    entrywise from the bottom-right corner: Z_ij (1 - T_ii T_jj) = Q_ij +
    tail terms.  Unlike a bilinear-transform route, no (D + I) inverse
    appears, so eigenvalues near -1 cost nothing in accuracy.
    """
    qz = u.conj().T @ q.astype(complex) @ u.conj()
    m = t.shape[0]
    z = np.zeros((m, m), dtype=complex)
    for i in range(m - 1, -1, -1):
        for j in range(m - 1, i - 1, -1):
            tail = t[i, i:] @ z[i:, j:] @ t[j, j:]
            z[i, j] = (qz[i, j] + tail) / (1.0 - t[i, i] * t[j, j])
            z[j, i] = z[i, j]
    x = (u @ z @ u.T).real
    return (x + x.T) / 2.0


def fixed_point(field_map: AffineMap) -> FixedPointResult:
    """Unique fixed point of sigma -> d sigma d^T + q.

    The solver follows the size of d: up to 16 rows (8 modes) "kronecker"
    builds the linear system on symmetric-matrix coordinates (dimension
    M(2M+1)) and solves it densely; above that "stein" does Schur
    back-substitution.  The result's method names the one used.
    Uniqueness requires every product t_ii t_jj of the diagonal of d's
    complex Schur form T, the denominators of the Stein solve, to stay
    CONTRACTION_TOL away from 1.  A decoupled mode's free rotation breaks
    this, so pass a CycleBlocks' coupled_map, not its field_map.
    """
    d, q = field_map.d, field_map.q
    t, u = schur(d.astype(complex), output="complex")
    ev = np.diag(t)
    prod_dist = np.abs(np.outer(ev, ev) - 1.0)
    if prod_dist.min() < CONTRACTION_TOL:
        raise NoUniqueFixedPointError(
            "an eigenvalue product of the coupled field map sits on the unit "
            f"circle (distance {prod_dist.min():.3e}); the fixed point is degenerate"
        )

    if d.shape[0] <= 16:
        method, sigma_star = "kronecker", _fixed_point_kronecker(d, q)
    else:
        method, sigma_star = "stein", _fixed_point_stein(t, u, q)

    residual = float(np.max(np.abs(d @ sigma_star @ d.T + q - sigma_star)))
    return FixedPointResult(sigma_star=sigma_star, residual=residual, method=method)


# ---------------------------------------------------------------------------
# k-fold composition in O(log k)


def _square(power: AffineMap, k: int, k_done: int) -> AffineMap:
    """power composed with itself, checked against protocol.GROWTH_CAP.

    k is the composition being assembled and k_done the largest one already
    completed besides power; both only word the GrowthOverflowError.
    """
    cap = protocol.GROWTH_CAP
    square = power.then(power)
    if np.max(np.abs(square.q)) > cap:
        raise GrowthOverflowError(
            f"composed map norm exceeded {cap:g} at 2^{int(math.log2(square.k))} "
            f"cycles while assembling k={k}",
            k_reached=max(k_done, power.k),
        )
    return square


def power_map(blocks: CycleBlocks, k: int) -> AffineMap:
    """Compose the cycle map with itself k times by binary doubling.

    Cost O(log k) matrix products, exact up to rounding.  In the unstable
    regime the inhomogeneous part grows without bound; when its max norm
    passes protocol.GROWTH_CAP the computation aborts with
    GrowthOverflowError whose k_reached attribute reports the largest
    completed composition, 0 when the one-cycle map itself is over the cap.
    For k = 2^j the result is the j-th squaring of the one-cycle map.
    """
    if k < 1:
        raise ValueError("cycle count must be >= 1")
    cap = protocol.GROWTH_CAP
    power = blocks.field_map
    if np.max(np.abs(power.q)) > cap:
        raise GrowthOverflowError(
            f"cycle map norm exceeded {cap:g} at 1 cycle while assembling k={k}",
            k_reached=0,
        )
    acc = None
    kk = int(k)
    while True:
        if kk & 1:
            acc = power if acc is None else acc.then(power)
            if np.max(np.abs(acc.q)) > cap:
                raise GrowthOverflowError(
                    f"composed map norm exceeded {cap:g} while assembling k={k}",
                    k_reached=max(acc.k - power.k, power.k),
                )
        kk >>= 1
        if not kk:
            break
        power = _square(power, k, 0 if acc is None else acc.k)
    return acc


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
    never died (or never lived).  complete is False when the growth cap
    ended the scan before 2^SCAN_DOUBLINGS cycles.
    """

    ks: list[int]
    negativities: list[float]
    extinction_k: int | None
    spectral_estimate: float | None
    complete: bool


def extinction_scan(
    config: cavity.CavityConfig, sigma_f0: np.ndarray | None = None
) -> ExtinctionScan:
    """Sample extraction quality at k = 1, 2, 4, ..., 2^SCAN_DOUBLINGS cycles.

    The samples walk one doubling chain, each squaring the last, so the
    scan costs SCAN_DOUBLINGS squarings.  If the unstable growth passes
    protocol.GROWTH_CAP while extraction is still live, the scan refines
    between the last good point and the cap with power_map before giving
    up.
    """
    blocks = protocol.blocks_for(config)
    _, instability_n = timescales(field_spectrum(blocks.coupled_map))
    if sigma_f0 is None:
        sigma_f0 = gaussian.vacuum_state(config.n_field_modes)

    sigma_d0 = gaussian.vacuum_state(2)

    def negativity_after(power: AffineMap) -> float:
        sigma_f = power.apply(sigma_f0)
        sigma_d, _, _ = protocol.full_cycle(sigma_f, sigma_d0, blocks)
        return gaussian.log_negativity(sigma_d)

    ks: list[int] = []
    negs: list[float] = []
    complete = True
    power = None
    for _ in range(SCAN_DOUBLINGS + 1):
        try:
            power = power_map(blocks, 1) if power is None else _square(power, 2 * power.k, 0)
        except GrowthOverflowError:
            complete = False
            break
        ks.append(power.k)
        negs.append(negativity_after(power))

    if not complete and ks and negs[-1] > 0.0:
        # refine geometrically between the last good k and the cap
        k = ks[-1]
        for _ in range(6):
            k = int(k * 1.3) + 1
            try:
                power = power_map(blocks, k)
            except GrowthOverflowError:
                break
            ks.append(k)
            negs.append(negativity_after(power))

    extinction_k = None
    seen_positive = False
    for k, e in zip(ks, negs):
        if e > 0.0:
            seen_positive = True
        elif seen_positive:
            extinction_k = k
            break
    return ExtinctionScan(
        ks=ks,
        negativities=negs,
        extinction_k=extinction_k,
        spectral_estimate=instability_n,
        complete=complete,
    )
