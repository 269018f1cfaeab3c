"""Shared test helpers."""

import numpy as np
from scipy.linalg import expm, schur

from entfarm import gaussian, spectral, thermo


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0,1],[-1,0]] block per mode.

    The dense Omega: an oracle for gaussian.apply_symplectic_form and
    gaussian.check_symplectic, which never form it.
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = j
    return omega


def random_symplectic(n_modes: int, rng: np.random.Generator, scale: float = 0.4) -> np.ndarray:
    """Random symplectic matrix exp(Omega A) with A symmetric."""
    a = rng.normal(scale=scale, size=(2 * n_modes, 2 * n_modes))
    a = (a + a.T) / 2.0
    return expm(symplectic_form(n_modes) @ a)


def random_covariance(
    n_modes: int, rng: np.random.Generator, excitation: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Random physical covariance matrix and its symplectic spectrum.

    Built as S D S^T from a random symplectic S, so the spectrum is known
    by construction.  Returns (sigma, nus_descending).
    """
    nus = np.sort(1.0 + rng.exponential(excitation, size=n_modes))[::-1]
    d = np.diag(np.repeat(nus, 2))
    s = random_symplectic(n_modes, rng)
    return s @ d @ s.T, nus


def evolve(sigma: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sigma(t) = S sigma S^T for a propagator matrix S; symmetrized to absorb rounding."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != s.shape:
        raise ValueError(f"state shape {sigma.shape} does not match propagator {s.shape}")
    out = s @ sigma @ s.T
    return (out + out.T) / 2.0


def total_energy(sigma: np.ndarray, f_sym: np.ndarray) -> float:
    """Mean of the full quadratic Hamiltonian, <H> = Tr(F_sym sigma) / 4.

    Conserved exactly along evolve() with the same generator,
    interaction term included, so it doubles as an integration sanity check.
    """
    return float(np.trace(np.asarray(f_sym) @ np.asarray(sigma)) / 4.0)


def entropy_difference_check(
    sigma: np.ndarray, frequencies: np.ndarray
) -> tuple[float, float]:
    """Relative entropy to the equal-energy thermal state, two ways.

    Returns (S(sigma || thermal), S_thermal - S_sigma).  At equal energy the
    energy terms of the free-energy difference cancel, so the two numbers
    agree for any valid state; disagreement flags an implementation bug.
    """
    fit = thermo.effective_temperature(sigma, frequencies)
    direct = thermo.relative_entropy(sigma, gaussian.thermal_state(frequencies, 1.0 / fit.beta))
    difference = fit.thermal_entropy - gaussian.von_neumann_entropy(sigma)
    return direct, difference


def williamson_log_density(sigma: np.ndarray) -> tuple[float, np.ndarray]:
    """(c, H) of log rho = c + sum H_ij x_i x_j by the Williamson normal form.

    With sigma = S D S^T each mode has H_k = (1/2) log((nu_k - 1)/(nu_k + 1))
    on both quadratures and adds (1/2) log(4 / (nu_k^2 - 1)) to c; then
    H = S^-T H_diag S^-1.  An oracle for thermo.log_density, which reads the
    state's Cholesky factor instead.
    """
    s, d = gaussian.williamson_normal_form(sigma)
    nus = np.diag(d)[0::2]
    c = float(np.sum(0.5 * np.log(4.0 / (nus**2 - 1.0))))
    h_diag = np.repeat(0.5 * np.log((nus - 1.0) / (nus + 1.0)), 2)
    omega = symplectic_form(len(nus))
    s_inv = -omega @ s.T @ omega  # symplectic inverse
    h = s_inv.T @ np.diag(h_diag) @ s_inv
    return c, (h + h.T) / 2.0


def eigvals_symplectic_eigenvalues(sigma: np.ndarray, pair_tol: float = 1e-8) -> np.ndarray:
    """Symplectic eigenvalues by the nonsymmetric eigensolve, sorted descending.

    The moduli of the eigenvalues of Omega sigma come in +/- pairs; each
    pair is averaged.  An independent oracle for the Cholesky route of
    gaussian.symplectic_eigenvalues; it needs no positive definiteness.
    """
    sigma = np.asarray(sigma, dtype=float)
    w = np.linalg.eigvals(symplectic_form(sigma.shape[0] // 2) @ sigma)
    moduli = np.sort(np.abs(w))[::-1]
    first, second = moduli[0::2], moduli[1::2]
    if np.max(np.abs(first - second)) > pair_tol * max(1.0, moduli[0]):
        raise gaussian.DecompositionError("eigenvalue moduli of Omega @ sigma did not pair up")
    return (first + second) / 2.0


def schur_fixed_point(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve sigma = D sigma D^T + Q by Schur back-substitution.

    With D = U T U^H (complex Schur form (T, U), T upper triangular) and
    Z = U^H X conj(U), the equation becomes Z = T Z T^T + Q_z and solves
    entrywise from the bottom-right corner: Z_ij (1 - T_ii T_jj) = Q_ij +
    tail terms.  It needs no eigenvectors, so it also solves defective maps:
    an oracle for the eigenbasis route of spectral.fixed_point.
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


def eigenbasis_fixed_point(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The "stein" route of spectral.fixed_point, at any size."""
    ev, e = np.linalg.eig(d)
    return spectral._fixed_point_eigenbasis(e, 1.0 - np.outer(ev, ev), q)


def fixed_point_solutions(field_map) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed point of field_map by the Kronecker, Schur and eigenbasis solvers.

    spectral.fixed_point picks Kronecker or eigenbasis by size; the Schur
    back-substitution is the oracle for both.
    """
    d, q = field_map.d, field_map.q
    return (
        spectral._fixed_point_kronecker(d, q),
        schur_fixed_point(d, q),
        eigenbasis_fixed_point(d, q),
    )


# ---------------------------------------------------------------------------
# whole-matrix oracles for the grouped cycle engine


def whole_update(d: np.ndarray, q: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """sigma -> d sigma d^T + q on the whole matrices, symmetrized."""
    out = d @ sigma @ d.T + q
    return (out + out.T) / 2.0


def whole_composition(first, after) -> tuple[np.ndarray, np.ndarray]:
    """(d, q) of the map that runs `first`, then `after`, on the whole matrices."""
    return after.d @ first.d, after.d @ first.q @ after.d.T + after.q


def grouped_analysis(sigma: np.ndarray, groups) -> gaussian.StateAnalysis:
    """The analysis of sigma held by its diagonal blocks on groups of modes,
    as run_cycles holds a field state; covariances between groups are dropped."""
    partition = gaussian.Partition(groups, sigma.shape[0] // 2)
    return gaussian.StateAnalysis.of_blocks(partition, partition.split(sigma))


def whole_analysis(sigma: np.ndarray) -> tuple[float, np.ndarray]:
    """(log det sigma, symplectic eigenvalues descending) of the whole matrix,
    by LU log-determinant and the nonsymmetric eigensolve."""
    sign, log_det = np.linalg.slogdet(sigma)
    assert sign > 0
    return float(log_det), eigvals_symplectic_eigenvalues(sigma)


def whole_matrix_run(config, sigma_f0, n_cycles: int) -> list[dict]:
    """The built-in diagnostics of run_cycles from the whole-matrix loop.

    Every cycle steps the whole field state, reads the detectors from it and
    analyses it as one block: the route run_cycles takes for one group.
    """
    from entfarm import cavity, protocol

    blocks = protocol.blocks_for(config)
    d, q = blocks.d, blocks.c @ blocks.c.T
    sigma = gaussian.vacuum_state(config.n_field_modes) if sigma_f0 is None else sigma_f0
    sigma_d0 = gaussian.vacuum_state(2)
    detector_freqs = cavity.joint_frequencies(config)[:2]
    field_freqs = cavity.mode_frequencies(config)

    def energy(detector, field):
        return gaussian.energy_from_traces(
            gaussian.block_traces(detector), detector_freqs
        ) + gaussian.energy_from_traces(gaussian.block_traces(field), field_freqs)

    records = []
    for _ in range(n_cycles):
        detector = blocks.b @ sigma @ blocks.b.T + blocks.a @ blocks.a.T
        detector = (detector + detector.T) / 2.0
        after = whole_update(d, q, sigma)
        state = gaussian.StateAnalysis(after)
        try:
            thermality = thermo.thermality_of(state, field_freqs)
        except thermo.UndefinedEstimatorError:
            thermality = float("nan")
        records.append({
            "log_negativity": gaussian.log_negativity(detector),
            "energy_input": energy(detector, after) - energy(sigma_d0, sigma),
            "field_purity": state.purity,
            "field_thermality": thermality,
        })
        sigma = after
    return records


def detector_pairs_covariance(blocks, sigma_f0: np.ndarray, n_cycles: int) -> np.ndarray:
    """Joint covariance of the detector pairs n_cycles cycles discard, 4k x 4k.

    Pair j is read out as d_j = A xi_j + B f_(j-1), xi_j the injected
    vacuum pair, and the field goes on as f_j = C xi_j + D f_(j-1).  So pair
    j > h covaries with pair h as B D^(j-h-1) X_h, where X_h = C A^T +
    D sigma_(h-1) B^T is the field-pair covariance right after cycle h.
    The first 4k rows and columns are the state of the first k pairs.
    """
    a, b, c, d = blocks.a, blocks.b, blocks.c, blocks.d
    pairs = np.zeros((4 * n_cycles, 4 * n_cycles))
    cross = np.zeros((d.shape[0], 0))  # the field's covariance with each earlier pair
    sigma = sigma_f0
    for j in range(4, 4 * n_cycles + 1, 4):
        pairs[j - 4 : j, j - 4 : j] = whole_update(b, a @ a.T, sigma)
        pairs[j - 4 : j, : j - 4] = b @ cross
        pairs[: j - 4, j - 4 : j] = pairs[j - 4 : j, : j - 4].T
        cross = np.hstack([d @ cross, c @ a.T + d @ sigma @ b.T])
        sigma = whole_update(d, c @ c.T, sigma)
    return pairs
