"""Gaussian-state phase-space toolkit.

States are covariance matrices in the convention where the vacuum is the
identity: sigma_ij = <x_i x_j + x_j x_i> with x = (q_1, p_1, q_2, p_2, ...).
All modes use hbar = 1 quadratures, so a single-mode thermal state at
temperature T has sigma = coth(omega / 2T) * I.

Entropic quantities (entropy, log-negativity) are in nats; a caller that
wants bits divides by log 2 where it writes them.
"""

from __future__ import annotations

import math

import numpy as np


class InvalidStateError(ValueError):
    """A matrix fails the physicality conditions for a covariance matrix."""


class DecompositionError(RuntimeError):
    """A matrix factorization did not converge or structural checks failed."""


# ---------------------------------------------------------------------------
# construction and validation


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0,1],[-1,0]] block per mode."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = j
    return omega


def apply_symplectic_form(x: np.ndarray) -> np.ndarray:
    """Omega @ x for an array with 2N rows, by swapping row pairs with a sign.

    Every entry of the result is one entry of x or its negative, so it
    equals the dense product exactly (zeros may differ in sign) without an
    O(N^3) matrix product.
    """
    out = np.empty_like(x)
    out[0::2] = x[1::2]
    out[1::2] = -x[0::2]
    return out


def vacuum_state(n_modes: int) -> np.ndarray:
    """Covariance matrix of the n-mode vacuum (identity in this convention)."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    return np.eye(2 * n_modes)


def thermal_state(frequencies: np.ndarray, temperature: float) -> np.ndarray:
    """Thermal (Gibbs) covariance matrix for uncoupled modes.

    Each mode of frequency w contributes a 2x2 block coth(w / 2T) * I.
    T = 0 reproduces the vacuum exactly instead of evaluating the
    divergent exponential form.
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if freqs.ndim != 1 or freqs.size == 0:
        raise ValueError("frequencies must be a non-empty 1-d array")
    if np.any(freqs <= 0):
        raise ValueError("mode frequencies must be positive")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0:
        nus = np.ones_like(freqs)
    else:
        nus = 1.0 / np.tanh(freqs / (2.0 * temperature))
    return np.diag(np.repeat(nus, 2))


def _as_covariance(sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance matrix must be square, got shape {sigma.shape}")
    if sigma.shape[0] % 2 != 0 or sigma.shape[0] == 0:
        raise ValueError(f"covariance matrix must be 2N x 2N, got {sigma.shape[0]}")
    largest = np.abs(sigma).max()
    atol = 1e-10 * max(1.0, largest)
    # a finite matrix within atol of its transpose passes np.allclose's
    # elementwise |s - s^T| <= atol + 1e-5 |s^T| outright; anything else
    # gets that test in full, including its inf and nan cases
    if not (np.isfinite(largest) and np.abs(sigma - sigma.T).max() <= atol):
        st = sigma.T
        with np.errstate(invalid="ignore"):
            close = (np.abs(sigma - st) <= atol + 1e-5 * np.abs(st)) & np.isfinite(st)
        if not np.all(close | (sigma == st)):
            raise InvalidStateError("covariance matrix must be symmetric")
    return sigma


def mode_count(sigma: np.ndarray) -> int:
    return np.asarray(sigma).shape[0] // 2


def reduce_modes(sigma: np.ndarray, modes) -> np.ndarray:
    """Partial trace down to the given modes (keeps their order)."""
    sigma = _as_covariance(sigma)
    n = mode_count(sigma)
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValueError("mode indices must be distinct")
    if not modes or any(m < 0 or m >= n for m in modes):
        raise ValueError(f"mode indices must lie in [0, {n})")
    idx = np.array([2 * m + o for m in modes for o in (0, 1)])
    return sigma[np.ix_(idx, idx)].copy()


# ---------------------------------------------------------------------------
# spectral structure


def _cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower factor T of sigma = T T^T; DecompositionError if not positive definite."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"covariance matrix is not positive definite: {exc}") from None


def _factor_form(t: np.ndarray) -> np.ndarray:
    """K = T^T Omega T, exactly antisymmetric; its eigenvalues are +/- i nu."""
    k = t.T @ apply_symplectic_form(t)
    return (k - k.T) / 2.0


def _symplectic_spectrum(t: np.ndarray, pair_tol: float) -> np.ndarray:
    k = _factor_form(t)
    # K^T K = -K^2 is real symmetric with eigenvalues nu^2, each one twice
    gram = k.T @ k
    del k
    squares = np.linalg.eigvalsh(gram)[::-1]
    del gram
    moduli = np.sqrt(np.maximum(squares, 0.0))
    first, second = moduli[0::2], moduli[1::2]
    scale = max(1.0, moduli[0])
    if np.max(np.abs(first - second)) > pair_tol * scale:
        raise DecompositionError(
            "eigenvalues of K^T K did not pair up; "
            "matrix is too far from a valid covariance matrix"
        )
    return (first + second) / 2.0


def symplectic_eigenvalues(sigma: np.ndarray, pair_tol: float = 1e-8) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, sorted descending.

    Cholesky route: with sigma = T T^T the antisymmetric K = T^T Omega T
    has eigenvalues +/- i nu, so the real symmetric K^T K has each nu^2
    twice; each pair is averaged.  A matrix that is not positive definite
    has no Cholesky factor and raises DecompositionError.  No uncertainty
    bound is checked here, so that slightly unphysical matrices produced
    by long evolutions (some nu a little below 1) can still be examined.
    """
    return _symplectic_spectrum(_cholesky(_as_covariance(sigma)), pair_tol)


def assert_physical(sigma: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Check sigma >= 1 in the symplectic sense; returns the eigenvalues.

    Raises InvalidStateError if sigma is not positive definite or any
    symplectic eigenvalue falls below 1 - tol.  Definiteness is tested by
    the Cholesky factorization the eigenvalues are computed from; only
    when it fails is the least eigenvalue computed, for the message.
    """
    sigma = _as_covariance(sigma)
    try:
        t = _cholesky(sigma)
    except DecompositionError:
        low = float(np.min(np.linalg.eigvalsh(sigma)))
        raise InvalidStateError(
            f"covariance is not positive definite (eigenvalue {low:.6g})"
        ) from None
    nus = _symplectic_spectrum(t, pair_tol=1e-8)
    if np.any(nus < 1.0 - tol):
        raise InvalidStateError(
            f"symplectic eigenvalue {nus.min():.12g} violates the uncertainty bound"
        )
    return np.maximum(nus, 1.0)


def williamson_normal_form(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose sigma = S D S^T with S symplectic and D diagonal.

    D carries each symplectic eigenvalue twice, in descending order.  Uses
    the Cholesky route: with sigma = T T^T the matrix T^T Omega T is
    antisymmetric, its real Schur form exposes the eigenvalue pairs, and
    rescaling the Schur basis by nu^(-1/2) yields the symplectic S.
    """
    from scipy.linalg import schur

    sigma = _as_covariance(sigma)
    n = mode_count(sigma)
    t = _cholesky(sigma)
    r, q = schur(_factor_form(t), output="real")

    nus = np.empty(n)
    q = q.copy()
    for b in range(n):
        i = 2 * b
        val = r[i, i + 1]
        if abs(val) < 1e-300:
            raise DecompositionError("Schur form has a degenerate 2x2 block")
        if val < 0:
            # swap the block's basis vectors to flip the sign
            q[:, [i, i + 1]] = q[:, [i + 1, i]]
            val = -val
        nus[b] = val

    order = np.argsort(nus)[::-1]
    perm = np.empty(2 * n, dtype=int)
    for new, old in enumerate(order):
        perm[2 * new : 2 * new + 2] = (2 * old, 2 * old + 1)
    nus = nus[order]
    q = q[:, perm]

    s = t @ q @ np.diag(np.repeat(nus**-0.5, 2))
    d = np.diag(np.repeat(nus, 2))
    return s, d


def check_symplectic(s: np.ndarray) -> float:
    """Max-abs deviation of S Omega S^T from Omega."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
        raise ValueError("symplectic candidates must be square with even dimension")
    omega = symplectic_form(s.shape[0] // 2)
    return float(np.max(np.abs(s @ apply_symplectic_form(s.T) - omega)))


# ---------------------------------------------------------------------------
# scalar diagnostics


def purity(sigma: np.ndarray) -> float:
    """Tr rho^2 = 1 / sqrt(det sigma); uses slogdet for wide dynamic range."""
    sigma = _as_covariance(sigma)
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise InvalidStateError("covariance matrix must have positive determinant")
    return float(np.exp(-0.5 * logdet))


def entropy_of_spectrum(nus) -> float:
    """Entropy in nats of a Gaussian state with symplectic eigenvalues nus.

    Sums g(nu) = ((nu+1)/2) log((nu+1)/2) - ((nu-1)/2) log((nu-1)/2) over
    the modes; g is continuous at nu = 1, where it vanishes.
    """
    nus = np.asarray(nus, dtype=float)
    hi = (nus + 1.0) / 2.0
    lo = (nus - 1.0) / 2.0
    mixed = lo > 1e-300
    lo_log_lo = np.zeros_like(lo)
    lo_log_lo[mixed] = lo[mixed] * np.log(lo[mixed])
    return float(np.sum(hi * np.log(hi) - lo_log_lo))


def von_neumann_entropy(sigma: np.ndarray, tol: float = 1e-9) -> float:
    """Entropy of a Gaussian state in nats.

    Eigenvalues within tol below 1 are clamped to 1; anything lower is a
    physicality violation and raises InvalidStateError.
    """
    return entropy_of_spectrum(assert_physical(sigma, tol=tol))


def energy(
    sigma: np.ndarray, frequencies: np.ndarray, convention: str = "paper"
) -> float:
    """Free-Hamiltonian energy of uncoupled modes.

    convention="paper" uses E = sum_i (w_i / 2) Tr sigma_i, which assigns
    the vacuum a zero-point energy of sum_i w_i; "normal_ordered" subtracts
    it, giving sum_i w_i <n_i>.
    """
    sigma = _as_covariance(sigma)
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    n = mode_count(sigma)
    if freqs.shape != (n,):
        raise ValueError(f"need {n} frequencies, got {freqs.shape}")
    block_traces = np.array([sigma[2 * i, 2 * i] + sigma[2 * i + 1, 2 * i + 1] for i in range(n)])
    if convention == "paper":
        return float(np.sum(freqs / 2.0 * block_traces))
    if convention == "normal_ordered":
        return float(np.sum(freqs * (block_traces - 2.0) / 4.0))
    raise ValueError(f"unknown energy convention {convention!r}")


# ---------------------------------------------------------------------------
# two-mode entanglement


def ppt_minimum_eigenvalue(sigma: np.ndarray) -> float:
    """Smallest symplectic eigenvalue of the partial transpose of a two-mode state."""
    sigma = _as_covariance(sigma)
    if sigma.shape != (4, 4):
        raise ValueError("partial-transpose test is defined for two modes (4x4)")
    a = sigma[0:2, 0:2]
    b = sigma[2:4, 2:4]
    c = sigma[0:2, 2:4]
    delta_tilde = np.linalg.det(a) + np.linalg.det(b) - 2.0 * np.linalg.det(c)
    disc = delta_tilde**2 - 4.0 * np.linalg.det(sigma)
    if disc < 0:
        # covariance noise can push the discriminant marginally negative
        if disc < -1e-9 * max(1.0, delta_tilde**2):
            raise InvalidStateError("partial-transpose discriminant is negative")
        disc = 0.0
    nu_sq = (delta_tilde - math.sqrt(disc)) / 2.0
    if nu_sq <= 0:
        raise InvalidStateError("partial transpose has no positive eigenvalue")
    return math.sqrt(nu_sq)


def log_negativity(sigma: np.ndarray) -> float:
    """Logarithmic negativity of a two-mode Gaussian state.

    max(0, -log nu-collapse) where nu is the smallest partial-transpose
    symplectic eigenvalue; zero means no distillable entanglement is
    certified.  In nats.
    """
    nu = ppt_minimum_eigenvalue(sigma)
    # eigenvalues within rounding distance of 1 certify nothing
    if nu >= 1.0 - 1e-12:
        return 0.0
    return float(-np.log(nu))
