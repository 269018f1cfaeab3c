"""Tests for the phase-space toolkit.

Expected values come from independent closed forms: geometric-series
thermodynamics of a single thermal oscillator, two-mode squeezed vacuum
identities, and construction of random states with a known symplectic
spectrum.
"""

import math
import weakref

import mpmath
import numpy as np
import pytest

from entfarm import cavity, dynamics, gaussian, protocol
from conftest import grouped_analysis, random_covariance, random_symplectic, symplectic_form

RNG = np.random.default_rng(20240807)


def thermal_oracle(omega: float, temperature: float) -> dict:
    """Single-mode thermal state facts from the Boltzmann distribution.

    p_n = (1 - q) q^n with q = exp(-omega/T).  Everything below follows
    from geometric sums, with no phase-space input.
    """
    q = math.exp(-omega / temperature)
    nbar = q / (1.0 - q)
    entropy = -math.log(1.0 - q) - q * math.log(q) / (1.0 - q)
    return {
        "nu": 2.0 * nbar + 1.0,
        "purity": (1.0 - q) / (1.0 + q),
        "entropy": entropy,
        "mean_energy": omega * (nbar + 0.5),
        "nbar": nbar,
    }


def tmsv(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum covariance matrix."""
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    top = np.hstack([c * np.eye(2), s * z])
    bot = np.hstack([s * z, c * np.eye(2)])
    return np.vstack([top, bot])


# ---------------------------------------------------------------------------
# constructors


def test_vacuum_is_identity():
    assert np.array_equal(gaussian.vacuum_state(3), np.eye(6))


@pytest.mark.parametrize("omega,temperature", [(1.0, 0.5), (0.4, 2.0), (np.pi, 1.0)])
def test_thermal_state_matches_boltzmann(omega, temperature):
    oracle = thermal_oracle(omega, temperature)
    sigma = gaussian.thermal_state([omega], temperature)
    assert np.allclose(np.diag(sigma), [oracle["nu"], oracle["nu"]])
    assert np.allclose(sigma, np.diag(np.diag(sigma)))


def test_thermal_state_zero_temperature_is_vacuum():
    sigma = gaussian.thermal_state([0.3, 1.7], 0.0)
    assert np.array_equal(sigma, np.eye(4))


@pytest.mark.parametrize("temperature", [0.0, 0.7, 30.0])
def test_thermal_symplectic_eigenvalues_are_the_thermal_state_diagonal(temperature):
    freqs = [0.3, 1.7, 4.0]
    nus = gaussian.thermal_symplectic_eigenvalues(freqs, temperature)
    assert np.array_equal(np.diag(gaussian.thermal_state(freqs, temperature))[0::2], nus)


def test_thermal_state_rejects_bad_input():
    with pytest.raises(ValueError):
        gaussian.thermal_state([1.0], -0.1)
    with pytest.raises(ValueError):
        gaussian.thermal_state([0.0], 1.0)
    with pytest.raises(ValueError):
        gaussian.vacuum_state(0)


# ---------------------------------------------------------------------------
# symplectic spectrum and Williamson form


def test_symplectic_eigenvalues_recover_construction():
    for n in (1, 2, 5):
        sigma, nus = random_covariance(n, RNG)
        got = gaussian.symplectic_eigenvalues(sigma)
        assert np.allclose(got, nus, atol=1e-9)


def test_symplectic_eigenvalues_of_squeezed_thermal():
    nu, r = 3.0, 0.7
    sigma = np.diag([nu * math.exp(2 * r), nu * math.exp(-2 * r)])
    assert np.allclose(gaussian.symplectic_eigenvalues(sigma), [nu])


def test_symplectic_eigenvalues_reject_non_positive_matrix():
    # the Cholesky route has no factor to work from
    with pytest.raises(gaussian.DecompositionError):
        gaussian.symplectic_eigenvalues(np.diag([2.0, -0.5]))


def test_assert_physical_names_the_least_eigenvalue():
    with pytest.raises(gaussian.InvalidStateError,
                       match=r"^covariance is not positive definite \(eigenvalue -2\)$"):
        gaussian.assert_physical(np.diag([3.0, -2.0, 1.0, 1.0]))


def test_williamson_round_trip():
    for n in (1, 2, 4):
        sigma, nus = random_covariance(n, RNG)
        s, d = gaussian.williamson_normal_form(sigma)
        assert np.allclose(s @ d @ s.T, sigma, atol=1e-9)
        assert gaussian.check_symplectic(s) < 1e-9
        assert np.allclose(np.diag(d), np.repeat(nus, 2), atol=1e-9)
        # D is diagonal with eigenvalues sorted descending
        assert np.allclose(d, np.diag(np.diag(d)))
        assert np.all(np.diff(np.diag(d)[::2]) <= 1e-12)


def test_williamson_rejects_non_positive_matrix():
    with pytest.raises(gaussian.DecompositionError):
        gaussian.williamson_normal_form(np.diag([1.0, -1.0]))


def test_check_symplectic_flags_non_symplectic():
    assert gaussian.check_symplectic(np.eye(4)) == 0.0
    assert gaussian.check_symplectic(2.0 * np.eye(4)) == pytest.approx(3.0)


@pytest.mark.parametrize("n", [1, 3, 17, 64])
def test_symplectic_form_by_row_swaps_is_the_dense_product(n):
    # each entry of Omega x is one entry of x or its negative, so the swaps
    # reproduce the dense products bit for bit, drift value included
    rng = np.random.default_rng(n)
    omega = symplectic_form(n)
    x = rng.standard_normal((2 * n, 3 * n))
    assert np.array_equal(gaussian.apply_symplectic_form(x), omega @ x)
    s = rng.standard_normal((2 * n, 2 * n))
    assert gaussian.check_symplectic(s) == float(np.max(np.abs(s @ omega @ s.T - omega)))


def dense_drift(s: np.ndarray) -> float:
    """The symplectic drift with Omega formed and subtracted whole."""
    omega = symplectic_form(len(s) // 2)
    return float(np.max(np.abs(s @ gaussian.apply_symplectic_form(s.T) - omega)))


@pytest.mark.parametrize("n", [1, 2, 17, 130])
def test_check_symplectic_subtracts_omega_in_place_bit_for_bit(n):
    # random, near-symplectic and NaN-holding matrices: the in-place
    # subtraction at Omega's +-1 entries gives the dense formula's float
    rng = np.random.default_rng(500 + n)
    dense = rng.standard_normal((2 * n, 2 * n))
    near = random_symplectic(n, rng, scale=0.1)
    holed = near.copy()
    holed[-1, 0] = math.nan
    for s in (dense, near, holed):
        assert np.array_equal(gaussian.check_symplectic(s), dense_drift(s), equal_nan=True)


def test_check_symplectic_of_propagators_is_the_dense_formula():
    one = dynamics.propagator_for(cavity.standard_config(128, cycle_time=1.0))
    later = cavity.standard_config(128, cycle_time=2.0)
    stepped = dynamics.propagator_from((cavity.standard_config(128, cycle_time=1.0), one), later)
    for s in (one, stepped, dynamics.propagator_for(later)):
        drift = gaussian.check_symplectic(s)
        assert 0.0 < drift < 1e-9
        assert drift == dense_drift(s)


# ---------------------------------------------------------------------------
# entropy, purity, energy


@pytest.mark.parametrize("omega,temperature", [(1.0, 0.5), (0.4, 2.0), (np.pi, 1.0)])
def test_thermal_entropy_purity_energy(omega, temperature):
    oracle = thermal_oracle(omega, temperature)
    sigma = gaussian.thermal_state([omega], temperature)
    assert gaussian.von_neumann_entropy(sigma) == pytest.approx(oracle["entropy"], rel=1e-12)
    assert gaussian.purity(sigma) == pytest.approx(oracle["purity"], rel=1e-12)
    # paper convention counts double the zero-point energy
    assert gaussian.energy(sigma, [omega], "paper") == pytest.approx(
        2.0 * oracle["mean_energy"], rel=1e-12
    )
    assert gaussian.energy(sigma, [omega], "normal_ordered") == pytest.approx(
        omega * oracle["nbar"], rel=1e-12
    )


def loop_energy(sigma, freqs, convention):
    """gaussian.energy with its block traces summed mode by mode in Python."""
    n = len(freqs)
    block_traces = np.array([sigma[2 * i, 2 * i] + sigma[2 * i + 1, 2 * i + 1] for i in range(n)])
    if convention == "paper":
        return float(np.sum(freqs / 2.0 * block_traces))
    return float(np.sum(freqs * (block_traces - 2.0) / 4.0))


@pytest.mark.parametrize("n_modes", [1, 2, 5, 64, 129, 130])
@pytest.mark.parametrize("convention", ["paper", "normal_ordered"])
def test_energy_is_the_mode_by_mode_sum(n_modes, convention):
    sigma, _ = random_covariance(n_modes, RNG)
    freqs = RNG.uniform(0.1, 20.0, size=n_modes)
    assert np.array_equal(
        gaussian.energy(sigma, freqs, convention), loop_energy(sigma, freqs, convention)
    )


def test_pure_state_entropy_is_zero():
    sigma, _ = random_covariance(3, RNG, excitation=0.0)
    assert gaussian.von_neumann_entropy(sigma) == pytest.approx(0.0, abs=1e-9)
    assert gaussian.purity(sigma) == pytest.approx(1.0, rel=1e-9)


def test_entropy_additive_over_blocks():
    s1, _ = random_covariance(2, RNG)
    s2, _ = random_covariance(1, RNG)
    from scipy.linalg import block_diag

    joint = block_diag(s1, s2)
    assert gaussian.von_neumann_entropy(joint) == pytest.approx(
        gaussian.von_neumann_entropy(s1) + gaussian.von_neumann_entropy(s2), rel=1e-10
    )


def test_purity_is_inverse_product_of_eigenvalues():
    sigma, nus = random_covariance(3, RNG)
    assert gaussian.purity(sigma) == pytest.approx(1.0 / np.prod(nus), rel=1e-9)


def test_purity_rejects_non_positive_definite_state():
    # det = +1 here, so a determinant-sign test alone would let it through
    with pytest.raises(gaussian.InvalidStateError,
                       match=r"^covariance is not positive definite \(eigenvalue -1\)$"):
        gaussian.purity(np.diag([-1.0, -1.0, 1.0, 1.0]))


def test_state_analysis_factors_once(monkeypatch):
    # every diagnostic of one analysis reads one Cholesky factor and equals
    # the public function of the bare matrix
    sigma, nus = random_covariance(3, RNG)
    purity = gaussian.purity(sigma)
    spectrum = gaussian.assert_physical(sigma)
    entropy = gaussian.von_neumann_entropy(sigma)
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    state = gaussian.StateAnalysis(sigma)
    assert (state.purity, state.entropy) == (purity, entropy)
    assert np.array_equal(state.physical_spectrum, spectrum)
    assert state.log_det == pytest.approx(2.0 * np.sum(np.log(nus)), rel=1e-12)
    assert len(calls) == 1


def test_entropy_rejects_unphysical_state():
    with pytest.raises(gaussian.InvalidStateError):
        gaussian.von_neumann_entropy(0.5 * np.eye(2))


def mpmath_entropy(sigma: np.ndarray, digits: int = 40) -> float:
    """Entropy in nats by Cholesky and symmetric eigensolve at `digits` digits.

    The float matrix is taken as exact.  Like von_neumann_entropy, a
    symplectic eigenvalue at or below 1 contributes nothing.
    """
    n = sigma.shape[0] // 2
    with mpmath.workdps(digits):
        t = mpmath.cholesky(mpmath.matrix(sigma.tolist()))
        k = t.T * mpmath.matrix(symplectic_form(n).tolist()) * t
        squares = sorted(mpmath.eigsy(k.T * k, eigvals_only=True), reverse=True)
        total = mpmath.mpf(0)
        for i in range(n):
            nu = (mpmath.sqrt(squares[2 * i]) + mpmath.sqrt(squares[2 * i + 1])) / 2
            if nu > 1:
                hi, lo = (nu + 1) / 2, (nu - 1) / 2
                total += hi * mpmath.log(hi) - lo * mpmath.log(lo)
        return float(total)


def test_entropy_matches_high_precision_oracle():
    # early cycles leave most field modes within 1e-12 of the vacuum, where
    # the entropy is most sensitive to rounding in the eigenvalues
    states = {"field": lambda s: s.field_out}
    traj = protocol.run_cycles(cavity.standard_config(8), n_cycles=20, observables=states)
    for cycle in (1, 5, 20):
        sigma = traj.records[cycle - 1].values["field"]
        want = mpmath_entropy(sigma)
        assert gaussian.von_neumann_entropy(sigma) == pytest.approx(want, rel=1e-11, abs=0)


def test_split_entropy_matches_high_precision_oracle():
    # the same near-vacuum states, per parity sector, the nodal modes in closed form
    cfg = cavity.standard_config(8)
    states = {"field": lambda s: s.field_out}
    traj = protocol.run_cycles(cfg, n_cycles=20, observables=states)
    groups = protocol.blocks_for(cfg).field_map.groups
    for cycle in (1, 5, 20):
        sigma = traj.records[cycle - 1].values["field"]
        got = grouped_analysis(sigma, groups).entropy
        assert got == pytest.approx(mpmath_entropy(sigma), rel=1e-11, abs=0)


def test_split_analysis_factors_only_the_coupled_block(monkeypatch):
    from scipy.linalg import block_diag

    coupled, nus = random_covariance(2, RNG)
    single, (nu,) = random_covariance(1, RNG)
    sigma = block_diag(coupled[:2, :2], single, coupled[2:, 2:])
    sigma[:2, 4:] = coupled[:2, 2:]
    sigma[4:, :2] = coupled[2:, :2]
    shapes = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(a.shape) or cholesky(a))
    state = grouped_analysis(sigma, [(0, 2), (1,)])
    assert np.array_equal(state.restricted([0, 2]).sigma, coupled)
    np.testing.assert_allclose(state.physical_spectrum, sorted([*nus, nu], reverse=True),
                               rtol=1e-12, atol=0)
    assert state.log_det == pytest.approx(2.0 * np.sum(np.log([*nus, nu])), rel=1e-12)
    assert state.entropy == pytest.approx(gaussian.entropy_of_spectrum([*nus, nu]), rel=1e-12)
    assert np.array_equal(state.block_traces, gaussian.block_traces(sigma))
    assert shapes == [(4, 4)]


def test_state_analysis_is_freed_without_the_cycle_collector():
    # every cycle builds one analysis; a reference cycle through it would
    # keep its matrices alive until a collection, so a run's memory grew
    from scipy.linalg import block_diag

    coupled, _ = random_covariance(2, RNG)
    single, _ = random_covariance(1, RNG)
    for analyse in (
        lambda: gaussian.StateAnalysis(coupled),
        lambda: grouped_analysis(block_diag(coupled, single), ((0, 1), (2,))),
    ):
        state = analyse()
        coupled_part = state.restricted([0, 1])
        state.purity, state.entropy, coupled_part.entropy, coupled_part.purity
        alive = weakref.ref(coupled_part)
        del state, coupled_part
        assert alive() is None


def test_split_analysis_of_isolated_modes_only_factors_nothing(monkeypatch):
    monkeypatch.setattr(np.linalg, "cholesky", None)
    nus = np.array([3.0, 1.5])
    state = grouped_analysis(np.diag(np.repeat(nus, 2)), ((0,), (1,)))
    assert state.partition.dense == [] and state.partition.singles == [0, 1]
    assert np.array_equal(state.physical_spectrum, nus)
    assert state.purity == pytest.approx(1.0 / np.prod(nus), rel=1e-15)


def test_restricted_analysis_reuses_the_factorizations_of_its_groups(monkeypatch):
    from scipy.linalg import block_diag

    pair, nus = random_covariance(2, RNG)
    (one, (nu,)), (other, _) = random_covariance(1, RNG), random_covariance(1, RNG)
    sigma = block_diag(pair, one, other)
    state = grouped_analysis(sigma, ((0, 1), (2,), (3,)))
    state.entropy
    monkeypatch.setattr(np.linalg, "cholesky", None)
    part = state.restricted([2, 0, 1])
    assert np.array_equal(part.sigma, sigma[:6, :6])
    np.testing.assert_allclose(part.physical_spectrum, sorted([*nus, nu], reverse=True),
                               rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="not a union of the groups"):
        state.restricted([0, 2])


def test_split_analysis_rejects_bad_positions_and_indefinite_modes():
    for groups in (((1,), (1,)), ((0,), (2,)), ((0,),)):
        with pytest.raises(ValueError, match="do not partition the 2 modes"):
            grouped_analysis(np.eye(4), groups)
    with pytest.raises(gaussian.InvalidStateError,
                       match=r"^covariance is not positive definite \(eigenvalue -1\)$"):
        grouped_analysis(np.diag([-1.0, -1.0, 1.0, 1.0]), ((0,), (1,))).purity


def test_energy_convention_validation():
    with pytest.raises(ValueError):
        gaussian.energy(np.eye(2), [1.0], "banana")
    with pytest.raises(ValueError):
        gaussian.energy(np.eye(4), [1.0], "paper")


# ---------------------------------------------------------------------------
# reduction


def test_reduce_modes_picks_blocks():
    from scipy.linalg import block_diag

    s1, _ = random_covariance(1, RNG)
    s2, _ = random_covariance(1, RNG)
    s3, _ = random_covariance(1, RNG)
    joint = block_diag(s1, s2, s3)
    assert np.allclose(gaussian.reduce_modes(joint, [1]), s2)
    assert np.allclose(gaussian.reduce_modes(joint, [2, 0]), block_diag(s3, s1))


def test_reduce_modes_of_entangled_state_is_thermal():
    r = 0.9
    reduced = gaussian.reduce_modes(tmsv(r), [0])
    # each half of a two-mode squeezed vacuum is thermal with nu = cosh(2r)
    assert np.allclose(reduced, math.cosh(2 * r) * np.eye(2))


def test_reduce_modes_validates_indices():
    sigma = gaussian.vacuum_state(2)
    with pytest.raises(ValueError):
        gaussian.reduce_modes(sigma, [0, 0])
    with pytest.raises(ValueError):
        gaussian.reduce_modes(sigma, [2])


# ---------------------------------------------------------------------------
# log negativity


@pytest.mark.parametrize("r", [0.1, 0.5, 4.0 / 3.0])
def test_tmsv_log_negativity(r):
    sigma = tmsv(r)
    assert gaussian.ppt_minimum_eigenvalue(sigma) == pytest.approx(math.exp(-2 * r), rel=1e-10)
    assert gaussian.log_negativity(sigma) == pytest.approx(2.0 * r, rel=1e-10)


def test_log_negativity_zero_for_separable():
    assert gaussian.log_negativity(gaussian.vacuum_state(2)) == 0.0
    assert gaussian.log_negativity(gaussian.thermal_state([1.0, 2.0], 1.5)) == 0.0


def test_log_negativity_symmetric_under_swap():
    sigma = tmsv(0.8)
    # local rotation on mode 2 breaks the standard form but not entanglement
    s_local = np.eye(4)
    theta = 0.6
    s_local[2:, 2:] = [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    sigma = s_local @ sigma @ s_local.T
    swap = np.zeros((4, 4))
    swap[0:2, 2:4] = np.eye(2)
    swap[2:4, 0:2] = np.eye(2)
    swapped = swap @ sigma @ swap.T
    assert gaussian.log_negativity(swapped) == pytest.approx(
        gaussian.log_negativity(sigma), rel=1e-12
    )


def test_log_negativity_needs_two_modes():
    with pytest.raises(ValueError):
        gaussian.log_negativity(np.eye(6))


# ---------------------------------------------------------------------------
# random-state invariants


def test_random_symplectics_are_symplectic():
    for n in (1, 3):
        s = random_symplectic(n, RNG)
        assert gaussian.check_symplectic(s) < 1e-10


def test_symmetry_is_enforced():
    bad = np.eye(2)
    bad[0, 1] = 0.3
    with pytest.raises(gaussian.InvalidStateError):
        gaussian.symplectic_eigenvalues(bad)


def test_symmetry_check_matches_allclose():
    # on finite matrices the check accepts exactly what np.allclose(s, s.T,
    # atol) accepts, with atol = 1e-10 max(1, max |s|): asymmetries on both
    # sides of the atol and 1e-5 |s^T| terms; inf and nan are never accepted,
    # even where np.allclose counts equal infinities as close
    rng = np.random.default_rng(8)
    verdicts = []
    for size in (1e-14, 1e-11, 1e-10, 2e-10, 1e-7, 5e-6, 1e-5, 2e-5, 1e-3):
        for scale in (0.1, 1.0, 300.0):
            m = scale * rng.normal(size=(4, 4))
            m = m + m.T
            m[1, 2] += size * scale * rng.choice((-1.0, 1.0))
            want = np.allclose(m, m.T, atol=1e-10 * max(1.0, np.abs(m).max()))
            try:
                gaussian.reduce_modes(m, [0])
                got = True
            except gaussian.InvalidStateError as exc:
                assert str(exc) == "covariance matrix must be symmetric"
                got = False
            assert got == want, m
            verdicts.append(got)
    assert any(verdicts) and not all(verdicts)
    for bad in ((np.inf, np.inf), (np.inf, 1.0), (-np.inf, np.inf), (np.nan, np.nan), (np.nan, 0.0)):
        m = np.eye(4)
        m[0, 3], m[3, 0] = bad
        with pytest.raises(gaussian.InvalidStateError, match="^covariance matrix must be finite$"):
            gaussian.reduce_modes(m, [0])


def test_infinite_variance_is_not_a_state():
    # np.allclose counts inf == inf as close; purity read 0.0 here
    with pytest.raises(gaussian.InvalidStateError, match="must be finite"):
        gaussian.purity(np.diag([np.inf, 1.0, 1.0, 1.0]))


def test_symmetric_nan_is_reported_as_non_finite():
    m = np.eye(4)
    m[0, 3] = m[3, 0] = np.nan
    with pytest.raises(gaussian.InvalidStateError, match="^covariance matrix must be finite$"):
        gaussian.assert_physical(m)
