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
from entfarm.protocol import AffineMap, CycleBlocks


class SpectralFailureError(RuntimeError):
    """The eigenvalue solver did not converge on the field map."""


class NoUniqueFixedPointError(RuntimeError):
    """The coupled field map has (near-)unit spectrum; no unique fixed point."""


class GrowthOverflowError(RuntimeError):
    """Composed cycle maps exceeded the norm cap in the unstable regime."""

    def __init__(self, message: str, k_reached: int):
        super().__init__(message)
        self.k_reached = k_reached


# ---------------------------------------------------------------------------
# spectrum and timescales


@dataclass(frozen=True)
class FieldSpectrum:
    """Eigenvalues of the homogeneous part D, sorted by descending modulus."""

    eigenvalues: np.ndarray

    @property
    def max_modulus(self) -> float:
        return float(np.abs(self.eigenvalues[0]))


def field_spectrum(blocks: CycleBlocks, exclude_positions=()) -> FieldSpectrum:
    """Spectrum of D, optionally restricted to the coupled field modes.

    exclude_positions lists field-mode storage positions (0-based) to drop,
    typically the decoupled modes whose exact unit-modulus rotations would
    mask the contraction or growth of everything else.
    """
    d = _restrict(blocks.d, exclude_positions)
    try:
        ev = np.linalg.eigvals(d)
    except np.linalg.LinAlgError as exc:
        raise SpectralFailureError(f"eigenvalue computation failed: {exc}")
    order = np.argsort(-np.abs(ev))
    return FieldSpectrum(eigenvalues=ev[order])


def timescales(spectrum: FieldSpectrum, tol: float = 1e-12) -> tuple[float | None, float | None]:
    """(convergence_n, instability_n) in cycles, from the leading modulus.

    Contractive maps converge over n = -1 / log|d1| cycles; expanding maps
    blow up over n = 1 / log|d1|.  Within tol of the unit circle neither
    notion applies and both entries are None.  Natural log: these are
    physical cycle counts, independent of the entropy unit.
    """
    m = spectrum.max_modulus
    if abs(m - 1.0) <= tol:
        return None, None
    if m < 1.0:
        return -1.0 / math.log(m), None
    return None, 1.0 / math.log(m)


def _restrict(matrix: np.ndarray, exclude_positions) -> np.ndarray:
    if not len(tuple(exclude_positions)):
        return matrix
    m = matrix.shape[0] // 2
    dead = set(exclude_positions)
    keep = [i for p in range(m) if p not in dead for i in (2 * p, 2 * p + 1)]
    return matrix[np.ix_(keep, keep)]


# ---------------------------------------------------------------------------
# fixed point


@dataclass(frozen=True)
class FixedPointResult:
    """Fixed point of the cycle map plus how trustworthy it is.

    sigma_star solves sigma = D sigma D^T + C C^T on the coupled subspace;
    decoupled-mode blocks are frozen at the initial-state convention (they
    are genuinely stationary for rotation-invariant initial states).  The
    residual is the max-abs defect of the Stein equation on the coupled
    subspace.  An unstable map still has a unique fixed point, but it need
    not be a physical state; validity is the caller's check.
    """

    sigma_star: np.ndarray
    residual: float
    coupled_dim: int
    method: str


def _sym_basis(m: int):
    iu = np.triu_indices(m)
    return iu


def _sym_map_matrix(d: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Matrix of sigma -> D sigma D^T on the sigma_{ij} (i <= j) coordinates."""
    m = d.shape[0]
    iu = _sym_basis(m)
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


def _fixed_point_stein(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve sigma = D sigma D^T + Q by Schur back-substitution.

    With D = U T U^H (complex Schur, T upper triangular) and Z = U^H X
    conj(U), the equation becomes Z = T Z T^T + Q_z and solves entrywise
    from the bottom-right corner: Z_ij (1 - T_ii T_jj) = Q_ij + tail terms.
    Unlike a bilinear-transform route, no (D + I) inverse appears, so
    eigenvalues near -1 cost nothing in accuracy.
    """
    t, u = schur(d.astype(complex), output="complex")
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


def fixed_point(
    blocks: CycleBlocks,
    method: str = "auto",
    decoupled_positions=(),
    initial_sigma: np.ndarray | None = None,
    contraction_tol: float = 1e-10,
) -> FixedPointResult:
    """Unique fixed point of sigma -> D sigma D^T + C C^T.

    Solved on the coupled subspace only.  Methods: "kronecker" builds the
    linear system on symmetric-matrix coordinates (dimension M(2M+1)) and
    solves it densely; "stein" does Schur back-substitution; "auto" picks
    kronecker up to 8 coupled modes and stein above.  Uniqueness requires
    every product d_i d_j of coupled eigenvalues to stay contraction_tol
    away from the unit circle; decoupled rotations are exempt because their
    blocks are frozen at the initial state (vacuum when unspecified).
    """
    field_map = blocks.field_map
    d_full, q_full = field_map.d, field_map.q
    n_phase = d_full.shape[0]
    dead = sorted(set(int(p) for p in decoupled_positions))
    keep = [i for p in range(n_phase // 2) if p not in dead for i in (2 * p, 2 * p + 1)]
    dcc = d_full[np.ix_(keep, keep)]
    qcc = q_full[np.ix_(keep, keep)]

    ev = np.linalg.eigvals(dcc)
    prod_dist = np.abs(np.outer(ev, ev) - 1.0)
    if prod_dist.min() < contraction_tol:
        raise NoUniqueFixedPointError(
            "an eigenvalue product of the coupled field map sits on the unit "
            f"circle (distance {prod_dist.min():.3e}); the fixed point is degenerate"
        )

    if method == "auto":
        method = "kronecker" if len(keep) <= 16 else "stein"
    if method == "kronecker":
        sigma_cc = _fixed_point_kronecker(dcc, qcc)
    elif method == "stein":
        sigma_cc = _fixed_point_stein(dcc, qcc)
    else:
        raise ValueError(f"unknown fixed-point method {method!r}")

    residual = float(np.max(np.abs(dcc @ sigma_cc @ dcc.T + qcc - sigma_cc)))

    sigma_star = (
        np.eye(n_phase) if initial_sigma is None else np.asarray(initial_sigma, float).copy()
    )
    sigma_star[np.ix_(keep, keep)] = sigma_cc
    # correlations between frozen and coupled sectors vanish at the fixed point
    dead_idx = [i for p in dead for i in (2 * p, 2 * p + 1)]
    sigma_star[np.ix_(dead_idx, keep)] = 0.0
    sigma_star[np.ix_(keep, dead_idx)] = 0.0
    return FixedPointResult(
        sigma_star=sigma_star, residual=residual, coupled_dim=len(keep), method=method
    )


# ---------------------------------------------------------------------------
# k-fold composition in O(log k)


def _square(power: AffineMap, norm_cap: float, k: int, k_done: int) -> AffineMap:
    """power composed with itself, checked against norm_cap.

    k is the composition being assembled and k_done the largest one already
    completed besides power; both only word the GrowthOverflowError.
    """
    square = power.then(power)
    if np.max(np.abs(square.q)) > norm_cap:
        raise GrowthOverflowError(
            f"composed map norm exceeded {norm_cap:g} at 2^{int(math.log2(square.k))} "
            f"cycles while assembling k={k}",
            k_reached=max(k_done, power.k),
        )
    return square


def power_map(blocks: CycleBlocks, k: int, norm_cap: float = 1e12) -> AffineMap:
    """Compose the cycle map with itself k times by binary doubling.

    Cost O(log k) matrix products, exact up to rounding.  In the unstable
    regime the inhomogeneous part grows without bound; when its max norm
    passes norm_cap the computation aborts with GrowthOverflowError whose
    k_reached attribute reports the largest completed composition.  For
    k = 2^j the result is the j-th squaring of the one-cycle map.
    """
    if k < 1:
        raise ValueError("cycle count must be >= 1")
    power = blocks.field_map
    acc = None
    kk = int(k)
    while True:
        if kk & 1:
            acc = power if acc is None else acc.then(power)
            if np.max(np.abs(acc.q)) > norm_cap:
                raise GrowthOverflowError(
                    f"composed map norm exceeded {norm_cap:g} while assembling k={k}",
                    k_reached=max(acc.k - power.k, power.k),
                )
        kk >>= 1
        if not kk:
            break
        power = _square(power, norm_cap, k, 0 if acc is None else acc.k)
    return acc


# ---------------------------------------------------------------------------
# extinction scan


@dataclass
class ExtinctionScan:
    """Entanglement of one fresh cycle applied to the field after k cycles.

    negativities[i] is E_N of the detector pair after cycle k_i + 1 with the
    field in its k_i-cycle state.  extinction_k is the smallest sampled k
    whose E_N is zero after an earlier positive value, None if extraction
    never died (or never lived).  complete is False when the norm cap ended
    the scan before the grid did.
    """

    ks: list[int]
    negativities: list[float]
    extinction_k: int | None
    spectral_estimate: float | None
    complete: bool


def extinction_scan(
    config: cavity.CavityConfig,
    k_grid=None,
    sigma_f0: np.ndarray | None = None,
    norm_cap: float = 1e12,
) -> ExtinctionScan:
    """Sample extraction quality on a geometric cycle grid of composed maps.

    Default grid: powers of two up to 2^30, matching how ultralong runs are
    usually plotted.  Powers of two walk one doubling chain, each squaring
    the last, so a grid reaching 2^j costs j squarings and keeps only the
    latest doubling; any other k goes through power_map.  If the
    unstable growth overflows the norm cap while extraction is still live,
    the scan refines between the last good point and the cap before giving
    up.
    """
    blocks = protocol.blocks_for(config)
    spectrum = field_spectrum(blocks)
    _, instability_n = timescales(spectrum)
    if k_grid is None:
        k_grid = [2**i for i in range(31)]
    k_grid = sorted(set(int(k) for k in k_grid))
    if k_grid[0] < 1:
        raise ValueError("cycle counts must be >= 1")
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
    doubling = None  # field_map^(2^j) at the largest power of two sampled so far
    for k in k_grid:
        is_doubling = k & (k - 1) == 0
        try:
            if is_doubling and doubling is not None:
                power = doubling
                while power.k < k:
                    power = _square(power, norm_cap, k, 0)
            else:
                power = power_map(blocks, k, norm_cap=norm_cap)
        except GrowthOverflowError:
            complete = False
            break
        if is_doubling:
            doubling = power
        ks.append(k)
        negs.append(negativity_after(power))

    if not complete and ks and negs[-1] > 0.0:
        # refine geometrically between the last good k and the cap
        k = ks[-1]
        for _ in range(6):
            k = int(k * 1.3) + 1
            try:
                power = power_map(blocks, k, norm_cap=norm_cap)
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
