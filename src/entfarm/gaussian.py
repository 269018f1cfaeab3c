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
from functools import cached_property

import numpy as np


# relative spread allowed within a pair of eigenvalues of K^T K
PAIR_TOL = 1e-8
# how far a symplectic eigenvalue may fall below 1 and still count as 1
PHYSICAL_TOL = 1e-9
# covariance between modes of two groups of a cycle map, relative to the
# state's largest diagonal entry (or 1), past which the map runs the state on
# the whole matrices; 500 whole-matrix cycles at 128 modes left 1.3e-17
# between a nodal mode and the rest
ISOLATION_TOL = 1e-12


class InvalidStateError(ValueError):
    """A matrix fails the physicality conditions for a covariance matrix."""


class DecompositionError(RuntimeError):
    """A matrix factorization did not converge or structural checks failed."""


# ---------------------------------------------------------------------------
# construction and validation


def apply_symplectic_form(x: np.ndarray) -> np.ndarray:
    """Omega @ x for an array with 2N rows, by swapping row pairs with a sign.

    Omega is the symplectic form, one [[0, 1], [-1, 0]] block per mode.
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

    Each mode of frequency w contributes a 2x2 block nu * I, with nu from
    thermal_symplectic_eigenvalues.
    """
    return np.diag(np.repeat(thermal_symplectic_eigenvalues(frequencies, temperature), 2))


def thermal_symplectic_eigenvalues(frequencies: np.ndarray, temperature: float) -> np.ndarray:
    """Per-mode symplectic eigenvalues nu = coth(w / 2T) of a thermal state.

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
        return np.ones_like(freqs)
    return 1.0 / np.tanh(freqs / (2.0 * temperature))


def _as_covariance(sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance matrix must be square, got shape {sigma.shape}")
    if sigma.shape[0] % 2 != 0 or sigma.shape[0] == 0:
        raise ValueError(f"covariance matrix must be 2N x 2N, got {sigma.shape[0]}")
    largest = np.abs(sigma).max()
    if not np.isfinite(largest):
        raise InvalidStateError("covariance matrix must be finite")
    atol = 1e-10 * max(1.0, largest)
    # an exactly symmetric matrix (every state full_cycle returns) passes with
    # no temporaries, and one within atol of its transpose passes np.allclose
    # outright; anything else takes np.allclose in full
    if not np.array_equal(sigma, sigma.T) and np.abs(sigma - sigma.T).max() > atol:
        if not np.allclose(sigma, sigma.T, atol=atol):
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


def _symplectic_spectrum(t: np.ndarray) -> np.ndarray:
    k = _factor_form(t)
    # K^T K = -K^2 is real symmetric with eigenvalues nu^2, each one twice
    gram = k.T @ k
    del k
    squares = np.linalg.eigvalsh(gram)[::-1]
    del gram
    moduli = np.sqrt(np.maximum(squares, 0.0))
    first, second = moduli[0::2], moduli[1::2]
    scale = max(1.0, moduli[0])
    if np.max(np.abs(first - second)) > PAIR_TOL * scale:
        raise DecompositionError(
            "eigenvalues of K^T K did not pair up; "
            "matrix is too far from a valid covariance matrix"
        )
    return (first + second) / 2.0


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, sorted descending.

    Cholesky route: with sigma = T T^T the antisymmetric K = T^T Omega T
    has eigenvalues +/- i nu, so the real symmetric K^T K has each nu^2
    twice; each pair is averaged.  A matrix that is not positive definite
    has no Cholesky factor and raises DecompositionError.  No uncertainty
    bound is checked here, so that slightly unphysical matrices produced
    by long evolutions (some nu a little below 1) can still be examined.
    """
    return _symplectic_spectrum(_cholesky(_as_covariance(sigma)))


def assert_physical(sigma: np.ndarray) -> np.ndarray:
    """Check sigma >= 1 in the symplectic sense; returns the eigenvalues.

    Raises InvalidStateError if sigma is not positive definite or any
    symplectic eigenvalue falls below 1 - PHYSICAL_TOL; eigenvalues within
    that tolerance below 1 are clamped to 1.
    """
    return StateAnalysis(sigma).physical_spectrum


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
    """Max-abs deviation of S Omega S^T from Omega.

    Omega is subtracted in place at its +-1 entries, (2k, 2k + 1) and
    (2k + 1, 2k), so the deviation is the dense formula's bit for bit
    without forming Omega.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
        raise ValueError("symplectic candidates must be square with even dimension")
    n = s.shape[0]
    deviation = s @ apply_symplectic_form(s.T)  # a new C-ordered array
    deviation.flat[1 :: 2 * n + 2] -= 1.0
    deviation.flat[n :: 2 * n + 2] += 1.0
    return float(np.max(np.abs(deviation)))


# ---------------------------------------------------------------------------
# scalar diagnostics


def purity(sigma: np.ndarray) -> float:
    """Tr rho^2 = 1 / sqrt(det sigma), from the log-determinant of the Cholesky factor.

    Raises InvalidStateError if sigma is not positive definite.
    """
    return StateAnalysis(sigma).purity


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


def von_neumann_entropy(sigma: np.ndarray) -> float:
    """Entropy of a Gaussian state in nats.

    Eigenvalues within PHYSICAL_TOL below 1 are clamped to 1; anything lower
    is a physicality violation and raises InvalidStateError.
    """
    return StateAnalysis(sigma).entropy


def block_traces(sigma: np.ndarray) -> np.ndarray:
    """Trace of each mode's 2x2 block; reads the diagonal and checks nothing."""
    diag = np.diagonal(sigma)
    return diag[0::2] + diag[1::2]


def energy_from_traces(
    traces: np.ndarray, frequencies: np.ndarray, convention: str = "paper"
) -> float:
    """energy() of a state given by its block_traces."""
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if freqs.shape != traces.shape:
        raise ValueError(f"need {traces.size} frequencies, got {freqs.shape}")
    if convention == "paper":
        return float(np.sum(freqs / 2.0 * traces))
    if convention == "normal_ordered":
        return float(np.sum(freqs * (traces - 2.0) / 4.0))
    raise ValueError(f"unknown energy convention {convention!r}")


def energy(
    sigma: np.ndarray, frequencies: np.ndarray, convention: str = "paper"
) -> float:
    """Free-Hamiltonian energy of uncoupled modes.

    convention="paper" uses E = sum_i (w_i / 2) Tr sigma_i, which assigns
    the vacuum a zero-point energy of sum_i w_i; "normal_ordered" subtracts
    it, giving sum_i w_i <n_i>.
    """
    return energy_from_traces(block_traces(_as_covariance(sigma)), frequencies, convention)


# ---------------------------------------------------------------------------
# block-diagonal structure


def _mode_rows(modes) -> np.ndarray:
    """Phase-space rows (q, p of each) of the given 0-based mode positions."""
    return (2 * np.asarray(modes, dtype=int)[:, None] + np.array([0, 1])).ravel()


class Partition:
    """Groups of modes (0-based positions) and the diagonal blocks that hold
    a matrix block diagonal on them.

    Such a matrix is held as one block per part.  Each group of two or more
    modes is a dense part, its rows in ascending mode order; the one-mode
    groups together are one more part, an (n, 2, 2) stack, so many nodal
    modes cost one batched product instead of one each.  Products read the
    same on both kinds of part: x @ y @ x^T with the transpose taken over the
    last two axes.  A partition with one group has one part, the whole
    matrix itself.
    """

    def __init__(self, groups, n_modes: int):
        groups = tuple(tuple(int(m) for m in group) for group in groups)
        if sorted(m for group in groups for m in group) != list(range(n_modes)):
            raise ValueError(f"groups {groups} do not partition the {n_modes} modes")
        self.groups = groups
        self.n_modes = n_modes
        self.whole = len(groups) == 1
        # indices into groups: those held as dense parts, and those in the stack
        self.dense = [i for i, group in enumerate(groups) if self.whole or len(group) > 1]
        self.singles = [i for i, group in enumerate(groups) if not self.whole and len(group) == 1]
        self._label = np.empty(n_modes, dtype=int)
        for i, group in enumerate(groups):
            self._label[list(group)] = i
        # per part: the rows of its diagonal, and the index that reads or
        # writes its block (None: the whole matrix)
        self._rows = [_mode_rows(sorted(groups[i])) for i in self.dense]
        self._index = [None if self.whole else np.ix_(rows, rows) for rows in self._rows]
        if self.singles:
            rows = _mode_rows([groups[i][0] for i in self.singles]).reshape(-1, 2)
            self._rows.append(rows)
            self._index.append((rows[:, :, None], rows[:, None, :]))

    @cached_property
    def dense_wholes(self) -> list[Partition]:
        """The one-group partition of each dense part, in its own mode numbering."""
        return [Partition((tuple(range(len(self.groups[i]))),), len(self.groups[i]))
                for i in self.dense]

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """The diagonal blocks of a 2M x 2M matrix, one per part; copies, except
        that the one part of a single group is x itself."""
        return [x if index is None else x[index] for index in self._index]

    def columns(self, x: np.ndarray) -> list[np.ndarray]:
        """The columns of an r x 2M matrix that meet each part: r x 2k for a
        dense part, n x r x 2 for the stack."""
        if self.whole:
            return [x]
        return [x[:, rows] if rows.ndim == 1 else x[:, rows].transpose(1, 0, 2)
                for rows in self._rows]

    def join(self, blocks) -> np.ndarray:
        """The 2M x 2M matrix with these diagonal blocks and zeros between groups."""
        if self.whole:
            return blocks[0]
        out = np.zeros((2 * self.n_modes, 2 * self.n_modes))
        for index, block in zip(self._index, blocks):
            out[index] = block
        return out

    def block_traces(self, blocks) -> np.ndarray:
        """block_traces of join(blocks), read off the blocks."""
        diag = np.empty(2 * self.n_modes)
        for rows, block in zip(self._rows, blocks):
            diag[rows] = np.diagonal(block, axis1=-2, axis2=-1)
        return diag[0::2] + diag[1::2]

    def cross_max(self, x: np.ndarray) -> float:
        """Largest |entry| of x between modes of different groups."""
        if self.whole:
            return 0.0
        n = self.n_modes
        cross = np.abs(x).reshape(n, 2, n, 2).max(axis=(1, 3))
        cross[self._label[:, None] == self._label[None, :]] = 0.0
        return float(cross.max())


# ---------------------------------------------------------------------------
# one state, factored once


class StateAnalysis:
    """A validated covariance matrix and the factorizations its diagnostics share.

    Construction runs the shape and symmetry checks once.  The log-determinant,
    the physical symplectic spectrum and the block traces are each computed
    on first use and then kept.  purity, assert_physical and
    von_neumann_entropy are this class applied to a bare matrix, and the
    thermo estimators read it too.

    StateAnalysis(sigma) analyses the whole matrix.  of_blocks holds a state
    by its diagonal blocks on a gaussian.Partition and no covariance between
    the groups, as run_cycles carries it: each group of two or more modes is
    analysed on its own (its Cholesky factor T, its log-determinant
    2 sum log T_ii and its K^T K eigensolve), and a one-mode group with 2x2
    block s_m adds log det s_m to the log-determinant and nu = sqrt(det s_m)
    to the spectrum.  restricted analyses a union of groups with the same
    factorizations.
    """

    def __init__(self, sigma: np.ndarray):
        self.sigma = _as_covariance(sigma)
        n = mode_count(self.sigma)
        self.partition = Partition((tuple(range(n)),), n)
        self.blocks = [self.sigma]

    @classmethod
    def of_blocks(cls, partition: Partition, blocks: list[np.ndarray]) -> StateAnalysis:
        """The analysis of the state with these diagonal blocks on partition's
        parts and no covariance between its groups.  The blocks are taken as
        they are, neither copied nor validated."""
        state = cls.__new__(cls)
        state.partition = partition
        state.blocks = blocks
        return state

    @cached_property
    def sigma(self) -> np.ndarray:
        """The whole covariance matrix; an of_blocks analysis assembles it on first use."""
        return self.partition.join(self.blocks)

    def _not_positive_definite(self) -> InvalidStateError:
        # only a failed check computes the least eigenvalue, for the message
        low = min(float(np.min(np.linalg.eigvalsh(block))) for block in self.blocks)
        return InvalidStateError(f"covariance is not positive definite (eigenvalue {low:.6g})")

    @cached_property
    def factor(self) -> np.ndarray:
        """Lower Cholesky factor T of sigma; InvalidStateError if not positive definite.

        An analysis of several groups never forms it: each dense group's
        analysis factors its own block.
        """
        try:
            return _cholesky(self.sigma)
        except DecompositionError:
            raise self._not_positive_definite() from None

    @cached_property
    def _parts(self) -> list[StateAnalysis]:
        """One-group analyses of the dense parts; none for a one-group analysis."""
        if self.partition.whole:
            return []
        wholes = self.partition.dense_wholes
        return [StateAnalysis.of_blocks(whole, [block]) for whole, block in zip(wholes, self.blocks)]

    @cached_property
    def _single_dets(self) -> np.ndarray:
        """det s_m of each one-mode group, after the definiteness check."""
        if not self.partition.singles:
            return np.empty(0)
        stack = self.blocks[-1]
        qq, qp, pp = stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 1]
        dets = qq * pp - qp * qp
        if np.any(qq <= 0.0) or np.any(dets <= 0.0):
            raise self._not_positive_definite()
        return dets

    def restricted(self, modes) -> StateAnalysis:
        """The analysis of the given modes, renumbered in ascending order.

        The modes must be a non-empty union of whole groups (else
        ValueError); the result shares this analysis' blocks and
        factorizations.
        """
        keep = {int(m) for m in modes}
        groups = self.partition.groups
        kept = [i for i, group in enumerate(groups) if keep.intersection(group)]
        if not keep or set().union(*(groups[i] for i in kept)) != keep:
            raise ValueError(f"modes {sorted(keep)} are not a union of the groups {groups}")
        if len(kept) == len(groups):
            return self
        dense = [self.partition.dense.index(i) for i in kept if i in self.partition.dense]
        singles = [self.partition.singles.index(i) for i in kept if i in self.partition.singles]
        if len(kept) == 1 and dense:
            return self._parts[dense[0]]
        position = {m: j for j, m in enumerate(sorted(keep))}
        partition = Partition([tuple(position[m] for m in groups[i]) for i in kept], len(keep))
        blocks = [self.blocks[j] for j in dense]
        if singles:
            stack = self.blocks[-1][singles]
            blocks += [stack[0]] if partition.whole else [stack]
        state = StateAnalysis.of_blocks(partition, blocks)
        if not partition.whole:
            state.__dict__["_parts"] = [self._parts[j] for j in dense]  # shared factorizations
        return state

    @cached_property
    def log_det(self) -> float:
        if self.partition.whole:
            return 2.0 * float(np.sum(np.log(np.diagonal(self.factor))))
        log_det = float(np.sum(np.log(self._single_dets)))
        return sum(part.log_det for part in self._parts) + log_det

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """Symplectic eigenvalues, descending, neither checked nor clamped."""
        if self.partition.whole:
            return _symplectic_spectrum(self.factor)
        nus = [part._spectrum for part in self._parts] + [np.sqrt(self._single_dets)]
        return np.sort(np.concatenate(nus))[::-1]

    @cached_property
    def physical_spectrum(self) -> np.ndarray:
        """Descending and clamped up to 1; InvalidStateError below 1 - PHYSICAL_TOL."""
        nus = self._spectrum
        if np.any(nus < 1.0 - PHYSICAL_TOL):
            raise InvalidStateError(
                f"symplectic eigenvalue {nus.min():.12g} violates the uncertainty bound"
            )
        return np.maximum(nus, 1.0)

    @cached_property
    def block_traces(self) -> np.ndarray:
        return self.partition.block_traces(self.blocks)

    @property
    def purity(self) -> float:
        return float(np.exp(-0.5 * self.log_det))

    @property
    def entropy(self) -> float:
        """Von Neumann entropy in nats."""
        return entropy_of_spectrum(self.physical_spectrum)


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
