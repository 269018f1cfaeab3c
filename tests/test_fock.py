"""Tests for the truncated-Fock validator and its agreement with the engine."""

import numpy as np
import pytest

from entfarm import cavity, dynamics, fock, gaussian
from conftest import evolve


def one_mode_config(**overrides):
    return cavity.standard_config(1, **overrides)


def gaussian_covariance(cav):
    prop = dynamics.propagator_for(cav)
    return evolve(gaussian.vacuum_state(2 + cav.n_field_modes), prop)


DENSE_CAP = 8192


def dense_hamiltonian(frequencies, couplings, cutoff: int) -> np.ndarray:
    """sum_i w_i n_i + sum g q_i q_j as a dense matrix of Kronecker products.

    The oracle for fock.oscillator_hamiltonian, built from its own ladder
    operator with np.kron alone; oscillator 0 is the leftmost factor.
    """
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    q = (a + a.T) / np.sqrt(2.0)
    number = a.T @ a
    n_sites = len(frequencies)

    def embed(factors):
        """The Kronecker product with factors[k] at site k, the identity elsewhere."""
        out = np.ones((1, 1))
        for k in range(n_sites):
            out = np.kron(out, factors.get(k, np.eye(cutoff)))
        return out

    h = sum(w * embed({site: number}) for site, w in enumerate(frequencies))
    for i, j, g in couplings:
        factors = {i: q}
        factors[j] = factors.get(j, np.eye(cutoff)) @ q
        h = h + g * embed(factors)
    return h


def build_hamiltonian(config: fock.FockConfig) -> np.ndarray:
    """Dense Hermitian Hamiltonian of detectors plus retained field modes."""
    if config.dimension > DENSE_CAP:
        raise fock.TooLargeError(
            f"dense Hamiltonian at dimension {config.dimension} exceeds {DENSE_CAP}; "
            "use evolve_and_covariance, which never forms H"
        )
    freqs, couplings = fock._system_couplings(config)
    return dense_hamiltonian(freqs, couplings, config.cutoff)


def operator_matrix(config: fock.FockConfig) -> np.ndarray:
    """fock's Hamiltonian of config as a matrix, one column H e_k per basis vector."""
    h = fock.oscillator_hamiltonian(*fock._system_couplings(config), config.cutoff)
    return np.column_stack([h @ e for e in np.eye(config.dimension)])


def energy_expectation(config: fock.FockConfig, psi: np.ndarray) -> float:
    return float(np.vdot(psi, build_hamiltonian(config) @ psi).real)


# ---------------------------------------------------------------------------
# configuration and Hamiltonian assembly


def test_config_rejects_three_field_modes():
    with pytest.raises(fock.TooLargeError):
        fock.FockConfig(cavity.standard_config(3), 4)


def test_config_rejects_dimension_over_cap():
    # 20^4 = 160000 sits above the desk-scale cap
    with pytest.raises(fock.TooLargeError):
        fock.FockConfig(cavity.standard_config(2), 20)


def test_config_rejects_silly_cutoff():
    with pytest.raises(ValueError):
        fock.FockConfig(one_mode_config(), 1)


def test_dense_hamiltonian_rejects_large_dimension():
    with pytest.raises(fock.TooLargeError):
        build_hamiltonian(fock.FockConfig(cavity.standard_config(2), 12))


def test_hamiltonian_is_hermitian():
    h = operator_matrix(fock.FockConfig(one_mode_config(), 6))
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def random_couplings(rng, n_sites: int) -> list[tuple[int, int, float]]:
    """Couplings between random distinct sites, in either order, one of them zero."""
    couplings = []
    for _ in range(2 * n_sites):
        i, j = rng.permutation(n_sites)[:2]
        couplings.append((int(i), int(j), float(rng.normal())))
    return couplings + [(n_sites - 1, 0, 0.0)]


@pytest.mark.parametrize(
    "n_sites,cutoff",
    [(2, c) for c in range(2, 9)] + [(3, c) for c in range(2, 9)] + [(4, c) for c in range(2, 7)],
)
def test_hamiltonian_action_matches_kronecker_oracle(n_sites, cutoff):
    # 4 sites stop at cutoff 6, where the dense oracle is 1296 x 1296
    rng = np.random.default_rng(100 * n_sites + cutoff)
    freqs = rng.uniform(0.5, 2.0, n_sites)
    couplings = random_couplings(rng, n_sites)
    h = fock.oscillator_hamiltonian(freqs, couplings, cutoff)
    dense = dense_hamiltonian(freqs, couplings, cutoff)
    for _ in range(3):
        x = rng.normal(size=cutoff**n_sites) + 1j * rng.normal(size=cutoff**n_sites)
        want = dense @ x
        assert np.abs(h @ x - want).max() <= 1e-13 * np.abs(want).max()


def test_uncoupled_hamiltonian_is_diagonal_number_sum():
    cav = one_mode_config(coupling=0.0)
    cutoff = 4
    h = operator_matrix(fock.FockConfig(cav, cutoff))
    omega_d = cav.detector_frequency
    omega_f = cavity.mode_frequencies(cav)[0]
    expected = np.zeros(cutoff**3)
    for n1 in range(cutoff):
        for n2 in range(cutoff):
            for n3 in range(cutoff):
                expected[(n1 * cutoff + n2) * cutoff + n3] = (
                    omega_d * (n1 + n2) + omega_f * n3
                )
    np.testing.assert_allclose(h, np.diag(expected), atol=1e-14)


def test_ground_energy_matches_second_order_perturbation():
    # one detector and one field mode coupled as g q q: the ground level
    # shifts by -g^2 / (4 (w_d + w_f)) to leading order
    cav = one_mode_config()
    omega_d = cav.detector_frequency
    omega_f = cavity.mode_frequencies(cav)[0]
    g = 2.0 * cav.coupling * np.sin(np.pi * cav.x1 / cav.length) / np.sqrt(np.pi)
    ground = np.linalg.eigvalsh(dense_hamiltonian([omega_d, omega_f], [(0, 1, g)], 16))[0]
    perturbative = -(g**2) / (4.0 * (omega_d + omega_f))
    assert ground == pytest.approx(perturbative, rel=0.05)


# ---------------------------------------------------------------------------
# evolution


def test_zero_time_covariance_is_identity():
    cfg = fock.FockConfig(one_mode_config(), 5)
    np.testing.assert_allclose(fock.evolve_and_covariance(cfg, 0.0), np.eye(6), atol=1e-12)


def test_norm_conserved():
    cfg = fock.FockConfig(one_mode_config(), 6)
    psi = fock.evolve_ground_state(cfg, 20.0)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_norm_drift_raises_a_typed_error(monkeypatch):
    cfg = fock.FockConfig(one_mode_config(), 6)
    monkeypatch.setattr(fock, "_taylor_action", lambda h, psi, t: (1.0 + 1e-9) * psi)
    with pytest.raises(fock.NormDriftError, match="norm drifted"):
        fock.evolve_ground_state(cfg, 20.0)


def test_energy_conserved():
    cfg = fock.FockConfig(one_mode_config(), 8)
    psi0 = fock._ground_state(cfg.dimension)
    psi = fock.evolve_ground_state(cfg, 20.0)
    e0 = energy_expectation(cfg, psi0)
    et = energy_expectation(cfg, psi)
    assert abs(et - e0) < 1e-8


def test_leakage_gate_trips_on_tiny_cutoff():
    cfg = fock.FockConfig(one_mode_config(), 2)
    with pytest.raises(fock.CutoffTooSmallError):
        fock.evolve_and_covariance(cfg, 20.0)


def dense_evolution(config: fock.FockConfig, t: float) -> np.ndarray:
    """exp(-iHt) on the ground state through a full eigendecomposition of H."""
    energies, vectors = np.linalg.eigh(build_hamiltonian(config))
    psi0 = fock._ground_state(config.dimension)
    return vectors @ (np.exp(-1j * energies * t) * (vectors.conj().T @ psi0))


def test_dense_and_taylor_paths_agree():
    # cutoff 14 (dimension 2744) is well past where the dense route is cheap
    cfg = fock.FockConfig(one_mode_config(), 14)
    sd = fock.state_covariance(dense_evolution(cfg, 20.0), cfg.n_oscillators, cfg.cutoff)
    sk = fock.evolve_and_covariance(cfg, 20.0)
    np.testing.assert_allclose(sd, sk, atol=1e-10)


def test_taylor_state_matches_dense_oracle_in_verify_sizes():
    # the two truncations `verify` runs: 1 field mode at cutoff 8, 2 at cutoff 6;
    # 1e-13 sits below scipy expm_multiply's error here (1.45e-12 and 5.2e-13)
    for cfg in (
        fock.FockConfig(one_mode_config(), 8),
        fock.FockConfig(cavity.standard_config(2), 6),
    ):
        t = cfg.cavity_config.cycle_time
        np.testing.assert_allclose(
            fock.evolve_ground_state(cfg, t), dense_evolution(cfg, t), rtol=0, atol=1e-13
        )


# ---------------------------------------------------------------------------
# agreement with the Gaussian engine


def test_covariance_matches_gaussian_engine_one_mode():
    cav = one_mode_config()
    sigma_f = fock.evolve_and_covariance(fock.FockConfig(cav, 8), cav.cycle_time)
    sigma_g = gaussian_covariance(cav)
    np.testing.assert_allclose(sigma_f, sigma_g, atol=1e-4)


def test_covariance_matches_gaussian_engine_two_modes():
    cav = cavity.standard_config(2)
    sigma_f = fock.evolve_and_covariance(fock.FockConfig(cav, 6), cav.cycle_time)
    sigma_g = gaussian_covariance(cav)
    np.testing.assert_allclose(sigma_f, sigma_g, atol=1e-4)


def test_detector_negativity_matches_gaussian_engine():
    cav = one_mode_config()
    sigma_f = fock.evolve_and_covariance(fock.FockConfig(cav, 8), cav.cycle_time)
    sigma_g = gaussian_covariance(cav)
    en_f = gaussian.log_negativity(gaussian.reduce_modes(sigma_f, (0, 1)))
    en_g = gaussian.log_negativity(gaussian.reduce_modes(sigma_g, (0, 1)))
    assert en_f == pytest.approx(en_g, abs=1e-4)
    assert en_f > 0.0


def test_fock_covariance_is_physical():
    cav = one_mode_config()
    sigma_f = fock.evolve_and_covariance(fock.FockConfig(cav, 8), cav.cycle_time)
    nus = gaussian.symplectic_eigenvalues(sigma_f)
    assert np.all(nus >= 1.0 - 1e-6)


def test_agreement_improves_with_cutoff():
    cav = one_mode_config()
    sigma_g = gaussian_covariance(cav)
    errs = []
    for cutoff in (4, 6, 8):
        sigma_f = fock.evolve_and_covariance(fock.FockConfig(cav, cutoff), cav.cycle_time)
        errs.append(np.max(np.abs(sigma_f - sigma_g)))
    # strong gain until the error hits the rounding floor, never a regression
    assert errs[1] < errs[0] / 1e3
    assert errs[2] <= errs[1] + 1e-13
    assert errs[2] < 1e-12
