"""Tests for the spectral analysis of the repeated-cycle field map."""

import math

import numpy as np
import pytest

from entfarm import cavity, gaussian, protocol, spectral
from entfarm.protocol import AffineMap, CycleBlocks


def window_config(cycle_time=20.0, **overrides):
    # first five field modes, detector resonant with mode 1
    return cavity.standard_config(5, cycle_time=cycle_time, **overrides)


def synthetic_blocks(d, c=None):
    m = d.shape[0]
    if c is None:
        c = np.zeros((m, 4))
    return CycleBlocks(a=np.eye(4), b=np.zeros((4, m)), c=c, d=d)


def rotation(theta):
    return np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])


# ---------------------------------------------------------------------------
# spectrum


def test_uncoupled_map_has_unit_spectrum():
    cfg = window_config(coupling=0.0)
    spec = spectral.field_spectrum(protocol.blocks_for(cfg))
    np.testing.assert_allclose(np.abs(spec.eigenvalues), 1.0, atol=1e-12)


def test_spectrum_sorted_and_conjugate_paired():
    cfg = window_config()
    spec = spectral.field_spectrum(protocol.blocks_for(cfg))
    mods = np.abs(spec.eigenvalues)
    assert np.all(np.diff(mods) <= 1e-14)
    # real matrix: spectrum closed under conjugation
    for ev in spec.eigenvalues:
        assert np.min(np.abs(spec.eigenvalues - np.conj(ev))) < 1e-10


def test_contractive_window_spectrum_inside_unit_circle():
    cfg = window_config(cycle_time=20.0)
    dead = cavity.decoupled_positions(cfg)
    spec = spectral.field_spectrum(protocol.blocks_for(cfg), exclude_positions=dead)
    assert spec.max_modulus < 1.0
    # the excluded mode is a free rotation sitting exactly on the circle
    full = spectral.field_spectrum(protocol.blocks_for(cfg))
    assert full.max_modulus == pytest.approx(1.0, abs=1e-12)


def test_expanding_window_spectrum_outside_unit_circle():
    cfg = window_config(cycle_time=21.0)
    dead = cavity.decoupled_positions(cfg)
    spec = spectral.field_spectrum(protocol.blocks_for(cfg), exclude_positions=dead)
    assert spec.max_modulus > 1.0 + 1e-7


def symmetric_product_eigenvalues(spectrum: spectral.FieldSpectrum) -> np.ndarray:
    """Eigenvalues {d_i d_j : i <= j} of the induced map on covariances."""
    ev = spectrum.eigenvalues
    prods = np.array([ev[i] * ev[j] for i in range(len(ev)) for j in range(i, len(ev))])
    return prods[np.argsort(-np.abs(prods))]


def test_symmetric_product_eigenvalues_match_induced_map():
    rng = np.random.default_rng(3)
    d = rng.standard_normal((4, 4)) * 0.4
    products = symmetric_product_eigenvalues(
        spectral.field_spectrum(synthetic_blocks(d))
    )
    a, _ = spectral._sym_map_matrix(d)
    direct = np.linalg.eigvals(a)
    np.testing.assert_allclose(
        np.sort(np.abs(products)), np.sort(np.abs(direct)), atol=1e-8
    )


# ---------------------------------------------------------------------------
# timescales


def test_timescales_contractive():
    spec = spectral.FieldSpectrum(eigenvalues=np.array([0.9, 0.1]))
    conv, inst = spectral.timescales(spec)
    assert inst is None
    assert conv == pytest.approx(-1.0 / math.log(0.9), rel=1e-12)
    assert conv == pytest.approx(9.4912, rel=1e-4)


def test_timescales_expanding():
    spec = spectral.FieldSpectrum(eigenvalues=np.array([1.0 + 1e-7, 0.3]))
    conv, inst = spectral.timescales(spec)
    assert conv is None
    assert inst == pytest.approx(1e7, rel=1e-6)


def test_timescales_marginal_is_none():
    cfg = window_config(coupling=0.0)
    spec = spectral.field_spectrum(protocol.blocks_for(cfg))
    assert spectral.timescales(spec) == (None, None)


# ---------------------------------------------------------------------------
# fixed point


def test_uncoupled_map_has_no_unique_fixed_point():
    cfg = window_config(coupling=0.0)
    with pytest.raises(spectral.NoUniqueFixedPointError):
        spectral.fixed_point(protocol.blocks_for(cfg))


def test_retained_decoupled_mode_degenerates_fixed_point():
    # mode 3 rotates freely; keeping it in the solve must be rejected
    cfg = window_config()
    with pytest.raises(spectral.NoUniqueFixedPointError):
        spectral.fixed_point(protocol.blocks_for(cfg), decoupled_positions=())


def test_fixed_point_methods_agree_on_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(8):
        m = int(rng.integers(2, 9)) * 2
        w = rng.standard_normal((m, m))
        d = w / (np.max(np.abs(np.linalg.eigvals(w))) * float(rng.uniform(1.05, 2.5)))
        c = rng.standard_normal((m, 4)) * 0.7
        blocks = synthetic_blocks(d, c)
        rk = spectral.fixed_point(blocks, method="kronecker")
        rs = spectral.fixed_point(blocks, method="stein")
        assert rk.residual < 1e-9
        assert rs.residual < 1e-9
        np.testing.assert_allclose(rk.sigma_star, rs.sigma_star, atol=1e-8)


def test_fixed_point_methods_agree_on_window_configs():
    for tf in (20.0, 21.0):
        cfg = window_config(cycle_time=tf)
        blocks = protocol.blocks_for(cfg)
        dead = cavity.decoupled_positions(cfg)
        rk = spectral.fixed_point(blocks, method="kronecker", decoupled_positions=dead)
        rs = spectral.fixed_point(blocks, method="stein", decoupled_positions=dead)
        assert rk.method == "kronecker" and rs.method == "stein"
        assert rk.coupled_dim == 8
        np.testing.assert_allclose(rk.sigma_star, rs.sigma_star, atol=1e-8)


def test_fixed_point_satisfies_stein_equation():
    cfg = window_config()
    blocks = protocol.blocks_for(cfg)
    dead = cavity.decoupled_positions(cfg)
    res = spectral.fixed_point(blocks, decoupled_positions=dead)
    # applying one more cycle must leave the coupled block invariant
    stepped = blocks.field_map.apply(res.sigma_star)
    keep = [i for p in range(5) if p not in set(dead) for i in (2 * p, 2 * p + 1)]
    np.testing.assert_allclose(
        stepped[np.ix_(keep, keep)], res.sigma_star[np.ix_(keep, keep)], atol=1e-10
    )


def test_fixed_point_matches_long_iteration():
    cfg = window_config(cycle_time=20.0)
    blocks = protocol.blocks_for(cfg)
    dead = cavity.decoupled_positions(cfg)
    res = spectral.fixed_point(blocks, decoupled_positions=dead)
    power = spectral.power_map(blocks, 2**22)
    iterated = power.apply(gaussian.vacuum_state(cfg.n_field_modes))
    np.testing.assert_allclose(iterated, res.sigma_star, atol=1e-8)


def test_unstable_fixed_point_is_unphysical():
    cfg = window_config(cycle_time=21.0)
    res = spectral.fixed_point(
        protocol.blocks_for(cfg), decoupled_positions=cavity.decoupled_positions(cfg)
    )
    with pytest.raises(gaussian.InvalidStateError):
        gaussian.assert_physical(res.sigma_star)


def test_fixed_point_initial_sigma_sets_decoupled_block():
    cfg = window_config()
    blocks = protocol.blocks_for(cfg)
    dead = cavity.decoupled_positions(cfg)
    freqs = cavity.mode_frequencies(cfg)
    sigma0 = gaussian.thermal_state(freqs, 0.5)
    res = spectral.fixed_point(blocks, decoupled_positions=dead, initial_sigma=sigma0)
    p = dead[0]
    block = res.sigma_star[2 * p : 2 * p + 2, 2 * p : 2 * p + 2]
    np.testing.assert_allclose(block, sigma0[2 * p : 2 * p + 2, 2 * p : 2 * p + 2])
    # frozen sector carries no correlations with the solved sector
    assert np.max(np.abs(res.sigma_star[2 * p : 2 * p + 2, : 2 * p])) == 0.0


def test_fixed_point_rejects_unknown_method():
    cfg = window_config()
    with pytest.raises(ValueError):
        spectral.fixed_point(
            protocol.blocks_for(cfg),
            method="newton",
            decoupled_positions=cavity.decoupled_positions(cfg),
        )


# ---------------------------------------------------------------------------
# powers of the cycle map


def test_power_map_single_cycle():
    cfg = window_config()
    blocks = protocol.blocks_for(cfg)
    power = spectral.power_map(blocks, 1)
    np.testing.assert_allclose(power.d, blocks.d)
    np.testing.assert_allclose(power.q, blocks.c @ blocks.c.T)
    assert power.k == 1


@pytest.mark.parametrize("k", [2, 3, 7, 17, 64])
def test_power_map_matches_direct_iteration(k):
    cfg = window_config()
    blocks = protocol.blocks_for(cfg)
    rng = np.random.default_rng(5)
    sigma, _ = _random_field_state(cfg.n_field_modes, rng)
    power = spectral.power_map(blocks, k)
    direct = sigma.copy()
    for _ in range(k):
        direct = blocks.field_map.apply(direct)
    np.testing.assert_allclose(power.apply(sigma), direct, atol=1e-9)


def test_power_map_hundred_cycles_full_cavity():
    cfg = cavity.standard_config(16)
    blocks = protocol.blocks_for(cfg)
    sigma = gaussian.vacuum_state(16)
    power = spectral.power_map(blocks, 100)
    direct = sigma.copy()
    for _ in range(100):
        direct = blocks.field_map.apply(direct)
    np.testing.assert_allclose(power.apply(sigma), direct, atol=1e-9)
    assert power.k == 100


def test_power_map_overflow_reports_progress():
    d = np.eye(4) * 1.5
    c = np.eye(4)
    blocks = synthetic_blocks(d, c)
    with pytest.raises(spectral.GrowthOverflowError) as exc:
        spectral.power_map(blocks, 2**20)
    assert 1 <= exc.value.k_reached < 2**20


@pytest.mark.parametrize(
    "k,k_reached,where",
    [(2**20, 32, "at 2^6 cycles "), (2**20 + 33, 33, "at 2^6 cycles "), (40, 32, "")],
)
def test_power_map_overflow_names_largest_completed_composition(k, k_reached, where):
    # q grows like 1.5^(2k): 2^5 squared passes the 1e12 cap, 33 cycles do not
    blocks = synthetic_blocks(np.eye(4) * 1.5, np.eye(4))
    with pytest.raises(spectral.GrowthOverflowError) as exc:
        spectral.power_map(blocks, k)
    assert exc.value.k_reached == k_reached
    assert str(exc.value) == f"composed map norm exceeded 1e+12 {where}while assembling k={k}"


def test_power_map_rejects_nonpositive_k():
    cfg = window_config()
    with pytest.raises(ValueError):
        spectral.power_map(protocol.blocks_for(cfg), 0)


def test_convergence_rate_follows_squared_leading_modulus():
    # distance to the fixed point shrinks by |d1|^2 per cycle on average;
    # complex eigenvalue phases make single-step ratios beat, so measure
    # the geometric-mean rate over a dozen cycles
    rng = np.random.default_rng(19)
    theta = 0.7
    d = 0.9 * np.kron(np.eye(2), rotation(theta))
    c = rng.standard_normal((4, 4)) * 0.5
    blocks = synthetic_blocks(d, c)
    star = spectral.fixed_point(blocks).sigma_star
    sigma = np.eye(4) * 3.0
    err = {
        k: np.max(np.abs(spectral.power_map(blocks, k).apply(sigma) - star))
        for k in (20, 32)
    }
    rate = (err[32] / err[20]) ** (1.0 / 12.0)
    assert rate == pytest.approx(0.81, rel=0.1)


def _random_field_state(n_modes, rng):
    from scipy.linalg import expm

    omega = gaussian.symplectic_form(n_modes)
    h = rng.standard_normal((2 * n_modes, 2 * n_modes)) * 0.2
    s = expm(omega @ (h + h.T) / 2.0)
    nus = 1.0 + rng.uniform(0.0, 1.0, n_modes)
    sigma = s @ np.diag(np.repeat(nus, 2)) @ s.T
    return (sigma + sigma.T) / 2.0, nus


# ---------------------------------------------------------------------------
# extinction scan


def test_extinction_scan_uncoupled_never_lives():
    cfg = window_config(coupling=0.0)
    scan = spectral.extinction_scan(cfg, k_grid=[1, 2, 4, 8])
    assert scan.complete
    assert scan.extinction_k is None
    assert scan.spectral_estimate is None
    assert all(e == 0.0 for e in scan.negativities)


def test_extinction_scan_stable_window_never_dies():
    cfg = window_config(cycle_time=20.0)
    scan = spectral.extinction_scan(cfg)
    assert scan.complete
    assert scan.extinction_k is None
    assert scan.spectral_estimate is None
    assert all(e > 0.0 for e in scan.negativities)
    # late samples sit on the steady-state plateau
    assert scan.negativities[-1] == pytest.approx(scan.negativities[-2], rel=1e-6)


def test_extinction_scan_plateau_matches_fixed_point_cycle():
    cfg = window_config(cycle_time=20.0)
    blocks = protocol.blocks_for(cfg)
    dead = cavity.decoupled_positions(cfg)
    star = spectral.fixed_point(blocks, decoupled_positions=dead).sigma_star
    sigma_d, _, _ = protocol.full_cycle(star, gaussian.vacuum_state(2), blocks)
    plateau = gaussian.log_negativity(sigma_d)
    scan = spectral.extinction_scan(cfg)
    assert scan.negativities[-1] == pytest.approx(plateau, rel=1e-9)


def per_k_scan(cfg, k_grid, norm_cap):
    """(ks, negativities) of the scan with every k composed afresh by power_map."""
    blocks = protocol.blocks_for(cfg)
    vacuum, sigma_d0 = gaussian.vacuum_state(cfg.n_field_modes), gaussian.vacuum_state(2)
    ks, negs = [], []

    def sample(k):
        power = spectral.power_map(blocks, k, norm_cap=norm_cap)
        sigma_d, _, _ = protocol.full_cycle(power.apply(vacuum), sigma_d0, blocks)
        ks.append(k)
        negs.append(gaussian.log_negativity(sigma_d))

    try:
        for k in k_grid:
            sample(k)
    except spectral.GrowthOverflowError:
        k = ks[-1]
        try:
            for _ in range(6):
                k = int(k * 1.3) + 1
                sample(k)
        except spectral.GrowthOverflowError:
            pass
    return ks, negs


@pytest.mark.parametrize("modes", [8, 16])
def test_extinction_scan_walks_one_doubling_chain(modes, monkeypatch):
    cfg = cavity.standard_config(modes)
    calls = []
    then = AffineMap.then
    monkeypatch.setattr(AffineMap, "then", lambda a, b: calls.append(b.k) or then(a, b))
    scan = spectral.extinction_scan(cfg)
    monkeypatch.undo()
    assert scan.complete
    assert scan.ks == [2**j for j in range(31)]
    # one squaring per doubling; composing each grid point afresh took 465
    assert len(calls) <= len(scan.ks)
    assert (scan.ks, scan.negativities) == per_k_scan(cfg, scan.ks, 1e12)


def test_extinction_scan_mixed_grid_matches_power_map():
    cfg = cavity.standard_config(8)
    grid = [1, 3, 4, 5, 8, 64, 100, 2**20, 2**20 + 1, 2**22]
    scan = spectral.extinction_scan(cfg, k_grid=grid)
    assert (scan.ks, scan.negativities) == per_k_scan(cfg, grid, 1e12)


def test_extinction_scan_overflow_matches_power_map():
    # a cap between max|q| at 2^10 and 2^11 cycles ends the chain there
    cfg = cavity.standard_config(8)
    blocks = protocol.blocks_for(cfg)
    q_max = [np.max(np.abs(spectral.power_map(blocks, 2**j).q)) for j in (10, 11)]
    assert q_max[0] < q_max[1]
    cap = float(np.mean(q_max))
    grid = [2**j for j in range(31)]
    scan = spectral.extinction_scan(cfg, norm_cap=cap)
    assert not scan.complete
    assert scan.ks[:11] == grid[:11] and max(scan.ks) < 2**11
    assert (scan.ks, scan.negativities) == per_k_scan(cfg, grid, cap)
