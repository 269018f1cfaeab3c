"""Tests for the spectral analysis of the repeated-cycle field map."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from entfarm import cavity, cli, config, gaussian, protocol, spectral
from entfarm.protocol import AffineMap, CycleBlocks
from conftest import (
    eigenbasis_fixed_point,
    fixed_point_solutions,
    schur_fixed_point,
    symplectic_form,
)


def window_config(cycle_time=20.0, **overrides):
    # first five field modes, detector resonant with mode 1
    return cavity.standard_config(5, cycle_time=cycle_time, **overrides)


def synthetic_blocks(d, c=None):
    m = d.shape[0]
    if c is None:
        c = np.zeros((m, 4))
    sectors = (tuple(range(m // 2)),)
    return CycleBlocks(
        a=np.eye(4), b=np.zeros((4, m)), c=c, d=d, sectors=sectors, decoupled=()
    )


def rotation(theta):
    return np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])


# ---------------------------------------------------------------------------
# spectrum


def test_uncoupled_map_has_unit_spectrum():
    cfg = window_config(coupling=0.0)
    spec = spectral.field_spectrum(protocol.blocks_for(cfg).field_map)
    np.testing.assert_allclose(np.abs(spec.eigenvalues), 1.0, atol=1e-12)


def test_spectrum_sorted_and_conjugate_paired():
    cfg = window_config()
    spec = spectral.field_spectrum(protocol.blocks_for(cfg).field_map)
    mods = np.abs(spec.eigenvalues)
    assert np.all(np.diff(mods) <= 1e-14)
    # real matrix: spectrum closed under conjugation
    for ev in spec.eigenvalues:
        assert np.min(np.abs(spec.eigenvalues - np.conj(ev))) < 1e-10


def test_contractive_window_spectrum_inside_unit_circle():
    blocks = protocol.blocks_for(window_config(cycle_time=20.0))
    spec = spectral.field_spectrum(blocks.coupled_map)
    assert spec.max_modulus < 1.0
    # the excluded mode is a free rotation sitting exactly on the circle
    full = spectral.field_spectrum(blocks.field_map)
    assert full.max_modulus == pytest.approx(1.0, abs=1e-12)


def test_expanding_window_spectrum_outside_unit_circle():
    cfg = window_config(cycle_time=21.0)
    spec = spectral.field_spectrum(protocol.blocks_for(cfg).coupled_map)
    assert spec.max_modulus > 1.0 + 1e-7


def test_equal_moduli_take_a_fixed_order_whatever_order_the_groups_come_in():
    # one 2 x 2 block per mode: a +/- bi, -a +/- bi, a conjugate pair of
    # modulus 0.5 and a real pair; all but the third have modulus 1
    a, b = 0.6, 0.8
    blocks = [
        np.array([[a, -b], [b, a]]),
        np.array([[-a, -b], [b, -a]]),
        np.array([[0.0, -0.5], [0.5, 0.0]]),
        np.diag([1.0, -1.0]),
    ]
    expected = [1.0, -1.0, a + b * 1j, -a + b * 1j, a - b * 1j, -a - b * 1j, 0.5j, -0.5j]
    for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
        d = np.zeros((8, 8))
        for slot, j in enumerate(perm):
            d[2 * slot : 2 * slot + 2, 2 * slot : 2 * slot + 2] = blocks[j]
        for groups in (((0,), (1,), (2,), (3,)), ((0, 2), (1, 3))):
            spectra = [
                spectral.field_spectrum(AffineMap(d, np.eye(8), 1, order)).eigenvalues
                for order in (groups, groups[::-1], groups[1:] + groups[:1])
            ]
            np.testing.assert_allclose(spectra[0], expected, rtol=0, atol=1e-15)
            assert all(np.array_equal(spectrum, spectra[0]) for spectrum in spectra)


def sweep_figure_configs(modes):
    """The cavities of reproduce-fig eigtime (33 cycle times) and eigcoupling (7 couplings)."""
    base = config.ExperimentConfig(modes=modes)
    for spec, cycle_time, _ in cli._SWEEP_FIGURES.values():
        cfg = base if cycle_time is None else replace(base, cycle_time=cycle_time)
        for value in spec.grid().tolist():
            yield spec.apply(cfg, value).cavity_config()


@pytest.mark.parametrize("modes", [4, 8, 16, 64, 128])
def test_parity_sectors_give_the_whole_map_spectrum(modes):
    # measured: cross-group entries of D at most 3e-17, max modulus within
    # 1e-14 relative and every eigenvalue within 1.4e-14 (128 modes)
    configs = list(sweep_figure_configs(modes))
    assert len(configs) == 40
    for cfg in configs:
        coupled = protocol.blocks_for(cfg).coupled_map
        plus, minus = ([2 * m + o for m in group for o in (0, 1)] for group in coupled.groups)
        assert np.abs(coupled.d[np.ix_(plus, minus)]).max() <= 1e-14
        assert np.abs(coupled.d[np.ix_(minus, plus)]).max() <= 1e-14
        grouped = spectral.field_spectrum(coupled)
        whole = np.linalg.eigvals(coupled.d)
        assert grouped.max_modulus == pytest.approx(np.abs(whole).max(), rel=1e-13, abs=0)
        distance = np.abs(grouped.eigenvalues[:, None] - whole[None, :])
        rows, cols = linear_sum_assignment(distance)
        assert distance[rows, cols].max() <= 1e-12


def test_field_spectrum_runs_eigvals_once_per_group(monkeypatch):
    shapes = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or eigvals(a))
    blocks = protocol.blocks_for(cavity.standard_config(16))
    spectral.field_spectrum(blocks.coupled_map)
    assert shapes == [(10, 10), (12, 12)]
    shapes.clear()
    spectral.field_spectrum(blocks.field_map)
    # the five nodal modes are one-mode groups: one stacked eigvals
    assert shapes == [(10, 10), (12, 12), (5, 2, 2)]
    # one group: one eigvals of the whole D, the very array the map holds
    asymmetric = protocol.blocks_for(cavity.standard_config(16, x1=2.9, x2=5.3)).coupled_map
    seen = []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: seen.append(a) or eigvals(a))
    spectral.field_spectrum(asymmetric)
    assert len(seen) == 1 and seen[0] is asymmetric.d


def symmetric_product_eigenvalues(spectrum: spectral.FieldSpectrum) -> np.ndarray:
    """Eigenvalues {d_i d_j : i <= j} of the induced map on covariances."""
    ev = spectrum.eigenvalues
    prods = np.array([ev[i] * ev[j] for i in range(len(ev)) for j in range(i, len(ev))])
    return prods[np.argsort(-np.abs(prods))]


def test_symmetric_product_eigenvalues_match_induced_map():
    rng = np.random.default_rng(3)
    d = rng.standard_normal((4, 4)) * 0.4
    products = symmetric_product_eigenvalues(
        spectral.field_spectrum(synthetic_blocks(d).field_map)
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
    spec = spectral.field_spectrum(protocol.blocks_for(cfg).field_map)
    assert spectral.timescales(spec) == (None, None)


# ---------------------------------------------------------------------------
# fixed point


def test_uncoupled_map_has_no_unique_fixed_point():
    cfg = window_config(coupling=0.0)
    with pytest.raises(spectral.NoUniqueFixedPointError):
        spectral.fixed_point(protocol.blocks_for(cfg).field_map)


def test_retained_decoupled_mode_degenerates_fixed_point():
    # mode 3 rotates freely; keeping it in the solve must be rejected
    cfg = window_config()
    with pytest.raises(spectral.NoUniqueFixedPointError):
        spectral.fixed_point(protocol.blocks_for(cfg).field_map)


def test_fixed_point_methods_agree_on_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(8):
        m = int(rng.integers(2, 9)) * 2
        w = rng.standard_normal((m, m))
        d = w / (np.max(np.abs(np.linalg.eigvals(w))) * float(rng.uniform(1.05, 2.5)))
        c = rng.standard_normal((m, 4)) * 0.7
        field_map = synthetic_blocks(d, c).field_map
        solutions = fixed_point_solutions(field_map)
        for sigma_star in solutions:
            residual = d @ sigma_star @ d.T + field_map.q - sigma_star
            assert np.max(np.abs(residual)) < 1e-9
        kron, oracle, eigen = solutions
        np.testing.assert_allclose(kron, oracle, atol=1e-8)
        np.testing.assert_allclose(eigen, oracle, atol=1e-8)


def test_fixed_point_methods_agree_on_window_configs():
    for tf in (20.0, 21.0):
        coupled = protocol.blocks_for(window_config(cycle_time=tf)).coupled_map
        kron, oracle, eigen = fixed_point_solutions(coupled)
        assert kron.shape[0] == 8
        np.testing.assert_allclose(kron, oracle, atol=1e-8)
        np.testing.assert_allclose(eigen, oracle, atol=1e-8)


def test_fixed_point_satisfies_stein_equation():
    coupled = protocol.blocks_for(window_config()).coupled_map
    res = spectral.fixed_point(coupled)
    # applying one more cycle must leave the coupled block invariant
    stepped = coupled.apply(res.sigma_star)
    np.testing.assert_allclose(stepped, res.sigma_star, atol=1e-10)


def test_fixed_point_matches_long_iteration():
    cfg = window_config(cycle_time=20.0)
    blocks = protocol.blocks_for(cfg)
    vacuum = gaussian.vacuum_state(cfg.n_field_modes)
    star = blocks.whole_field(spectral.fixed_point(blocks.coupled_map).sigma_star, vacuum)
    power = spectral.power_map(blocks, 2**22)
    iterated = power.apply(vacuum)
    np.testing.assert_allclose(iterated, star, atol=1e-8)


def test_unstable_fixed_point_is_unphysical():
    cfg = window_config(cycle_time=21.0)
    res = spectral.fixed_point(protocol.blocks_for(cfg).coupled_map)
    with pytest.raises(gaussian.InvalidStateError):
        gaussian.assert_physical(res.sigma_star)


def test_fixed_point_initial_sigma_sets_decoupled_block():
    cfg = window_config()
    blocks = protocol.blocks_for(cfg)
    freqs = cavity.mode_frequencies(cfg)
    sigma0 = gaussian.thermal_state(freqs, 0.5)
    star = blocks.whole_field(spectral.fixed_point(blocks.coupled_map).sigma_star, sigma0)
    p = blocks.decoupled[0]
    block = star[2 * p : 2 * p + 2, 2 * p : 2 * p + 2]
    np.testing.assert_allclose(block, sigma0[2 * p : 2 * p + 2, 2 * p : 2 * p + 2])
    # frozen sector carries no correlations with the solved sector
    assert np.max(np.abs(star[2 * p : 2 * p + 2, : 2 * p])) == 0.0


@pytest.mark.parametrize(
    "modes, cycle_time, method", [(64, 21.0, "stein"), (8, 20.0, "kronecker")]
)
def test_fixed_point_takes_one_eigendecomposition(modes, cycle_time, method, monkeypatch):
    # the eigenvalues drive the uniqueness gate and the eigenbasis solve reuses them
    cfg = cavity.standard_config(modes, cycle_time=cycle_time)
    blocks = protocol.blocks_for(cfg)
    calls = []
    eig = np.linalg.eig

    def counted(*args, **kwargs):
        calls.append(args)
        return eig(*args, **kwargs)

    def no_eigvals(*args, **kwargs):
        raise AssertionError("fixed_point called np.linalg.eigvals")

    monkeypatch.setattr(np.linalg, "eig", counted)
    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    res = spectral.fixed_point(blocks.coupled_map)
    assert res.method == method
    assert len(calls) == 1


@pytest.mark.parametrize("rows", [18, 40])
def test_defective_map_raises_spectral_failure(rows):
    # a Jordan block has one eigenvector: eig returns nearly parallel copies
    # (kappa_1 4e262 at 18 rows) or a singular E (40 rows); the Schur
    # oracle still solves it
    d = 0.5 * np.eye(rows) + 0.3 * np.eye(rows, k=1)
    c = np.random.default_rng(rows).standard_normal((rows, 4))
    field_map = AffineMap(d, c @ c.T, 1, (tuple(range(rows // 2)),))
    oracle = schur_fixed_point(d, field_map.q)
    assert np.max(np.abs(d @ oracle @ d.T + field_map.q - oracle)) < 1e-12
    with pytest.raises(spectral.SpectralFailureError, match=r"kappa_1 \S+ .*bound 1000"):
        spectral.fixed_point(field_map)


@pytest.mark.parametrize("cycle_time", [20.0, 21.0, 28.0])
@pytest.mark.parametrize("modes", [16, 24, 32, 64])
def test_eigenbasis_residual_tracks_the_schur_oracle(modes, cycle_time):
    # measured worst ratio 1.7 over these maps, all nearly normal
    coupled = protocol.blocks_for(cavity.standard_config(modes, cycle_time=cycle_time)).coupled_map
    d, q = coupled.d, coupled.q

    def residual(sigma):
        return np.max(np.abs(d @ sigma @ d.T + q - sigma))

    assert residual(eigenbasis_fixed_point(d, q)) <= 3.0 * residual(schur_fixed_point(d, q))


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


@pytest.mark.parametrize("k", [1, 2, 5])
def test_power_map_one_cycle_map_over_cap_completes_nothing(k, monkeypatch):
    # max|C C^T| = 1 already exceeds the cap, so no composition completes
    monkeypatch.setattr(protocol, "GROWTH_CAP", 0.5)
    blocks = synthetic_blocks(np.eye(4) * 1.5, np.eye(4))
    with pytest.raises(spectral.GrowthOverflowError) as exc:
        spectral.power_map(blocks, k)
    assert exc.value.k_reached == 0


@pytest.mark.parametrize(
    "top,cap,k_reached",
    [(1e100, protocol.GROWTH_CAP, 0), (1e100, 1e300, 2), (math.nan, protocol.GROWTH_CAP, 0)],
)
@pytest.mark.parametrize("k", [4, 8])
def test_power_map_rejects_a_non_finite_composition(k, top, cap, k_reached, monkeypatch):
    # with q = 0 only d grows: d^4 holds inf, and d^8 (inf * 0) NaN in d and
    # q; the cap stops d = 1e100 at once, a cap of 1e300 at the infinite d^4,
    # and a NaN, which no comparison passes, at once
    monkeypatch.setattr(protocol, "GROWTH_CAP", cap)
    blocks = synthetic_blocks(np.diag([top, 1e-100, 0.5, 0.5]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(spectral.GrowthOverflowError) as exc:
            spectral.power_map(blocks, k)
    assert exc.value.k_reached == k_reached


def test_power_map_rejects_nonpositive_k():
    cfg = window_config()
    with pytest.raises(ValueError):
        spectral.power_map(protocol.blocks_for(cfg), 0)


@pytest.mark.parametrize("k", [2.5, 1.9])
def test_power_map_rejects_a_k_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match="cycle count must be an integer"):
        spectral.power_map(protocol.blocks_for(window_config()), k)


def test_power_map_takes_python_and_numpy_integers():
    blocks = protocol.blocks_for(window_config())
    for k in (3, np.int64(3), np.int32(3), np.uint8(3)):
        power = spectral.power_map(blocks, k)
        assert type(power.k) is int and power.k == 3


def test_convergence_rate_follows_squared_leading_modulus():
    # distance to the fixed point shrinks by |d1|^2 per cycle on average;
    # complex eigenvalue phases make single-step ratios beat, so measure
    # the geometric-mean rate over a dozen cycles
    rng = np.random.default_rng(19)
    theta = 0.7
    d = 0.9 * np.kron(np.eye(2), rotation(theta))
    c = rng.standard_normal((4, 4)) * 0.5
    blocks = synthetic_blocks(d, c)
    star = spectral.fixed_point(blocks.field_map).sigma_star
    sigma = np.eye(4) * 3.0
    err = {
        k: np.max(np.abs(spectral.power_map(blocks, k).apply(sigma) - star))
        for k in (20, 32)
    }
    rate = (err[32] / err[20]) ** (1.0 / 12.0)
    assert rate == pytest.approx(0.81, rel=0.1)


def _random_field_state(n_modes, rng):
    from scipy.linalg import expm

    omega = symplectic_form(n_modes)
    h = rng.standard_normal((2 * n_modes, 2 * n_modes)) * 0.2
    s = expm(omega @ (h + h.T) / 2.0)
    nus = 1.0 + rng.uniform(0.0, 1.0, n_modes)
    sigma = s @ np.diag(np.repeat(nus, 2)) @ s.T
    return (sigma + sigma.T) / 2.0, nus


# ---------------------------------------------------------------------------
# extinction scan


def test_extinction_scan_uncoupled_never_lives():
    cfg = window_config(coupling=0.0)
    scan = spectral.extinction_scan(cfg)
    assert scan.ks[-1] == 2**spectral.SCAN_DOUBLINGS
    assert scan.extinction_k is None
    assert scan.spectral_estimate is None
    assert all(e == 0.0 for e in scan.negativities)


def test_extinction_scan_stable_window_never_dies():
    cfg = window_config(cycle_time=20.0)
    scan = spectral.extinction_scan(cfg)
    assert scan.ks[-1] == 2**spectral.SCAN_DOUBLINGS
    assert scan.extinction_k is None
    assert scan.spectral_estimate is None
    assert all(e > 0.0 for e in scan.negativities)
    # late samples sit on the steady-state plateau
    assert scan.negativities[-1] == pytest.approx(scan.negativities[-2], rel=1e-6)


def test_extinction_scan_plateau_matches_fixed_point_cycle():
    cfg = window_config(cycle_time=20.0)
    blocks = protocol.blocks_for(cfg)
    star = blocks.whole_field(
        spectral.fixed_point(blocks.coupled_map).sigma_star,
        gaussian.vacuum_state(cfg.n_field_modes),
    )
    sigma_d, _ = protocol.full_cycle(star, blocks)
    plateau = gaussian.log_negativity(sigma_d)
    scan = spectral.extinction_scan(cfg)
    assert scan.negativities[-1] == pytest.approx(plateau, rel=1e-9)


def test_extinction_scan_estimate_is_the_coupled_instability_time():
    # at 12 modes and cycle time 28 the coupled map contracts; the nodal
    # modes' expm rounding puts the whole map 2.1e-12 outside the unit circle
    scan = spectral.extinction_scan(cavity.standard_config(12, cycle_time=28.0))
    assert scan.spectral_estimate is None
    cfg = cavity.standard_config(32, cycle_time=20.0)
    coupled = spectral.field_spectrum(protocol.blocks_for(cfg).coupled_map)
    scan = spectral.extinction_scan(cfg)
    assert scan.spectral_estimate == spectral.timescales(coupled)[1]
    # no mode couples to the detectors: nothing converges or grows
    nodal = cavity.CavityConfig(mode_numbers=(3, 6))
    assert spectral.extinction_scan(nodal).spectral_estimate is None


def test_extinction_scan_checks_a_given_start_once(monkeypatch):
    cfg = window_config(cycle_time=20.0)
    with pytest.raises(gaussian.InvalidStateError, match="violates the uncertainty bound"):
        spectral.extinction_scan(cfg, sigma_f0=0.5 * np.eye(2 * cfg.n_field_modes))
    # one symmetric eigensolve per group of two or more modes, not one per sample
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    hot = gaussian.thermal_state(cavity.mode_frequencies(cfg), 0.5)
    scan = spectral.extinction_scan(cfg, sigma_f0=hot)
    assert len(scan.ks) == spectral.SCAN_DOUBLINGS + 1
    dense = [g for g in protocol.blocks_for(cfg).field_map.groups if len(g) > 1]
    assert shapes == [(2 * len(g),) * 2 for g in dense]


@pytest.mark.parametrize(
    "start,error",
    [(0.5 * np.eye(10), gaussian.InvalidStateError), (np.eye(8), ValueError)],
)
def test_extinction_scan_checks_its_start_before_the_spectrum(start, error, monkeypatch):
    cfg = window_config(cycle_time=20.0)
    calls = []
    field_spectrum = spectral.field_spectrum
    monkeypatch.setattr(spectral, "field_spectrum", lambda m: calls.append(m) or field_spectrum(m))
    with pytest.raises(error):
        spectral.extinction_scan(cfg, sigma_f0=start)
    assert calls == []


def test_extinction_scan_validates_its_start_once(monkeypatch):
    cfg = cavity.standard_config(8)
    field = (2 * cfg.n_field_modes,) * 2
    shapes = []
    original = gaussian._as_covariance

    def as_covariance(sigma):
        shapes.append(np.shape(sigma))
        return original(sigma)

    monkeypatch.setattr(gaussian, "_as_covariance", as_covariance)
    hot = gaussian.thermal_state(cavity.mode_frequencies(cfg), 0.5)
    for start in (None, hot):
        shapes.clear()
        scan = spectral.extinction_scan(cfg, sigma_f0=start)
        assert len(scan.ks) == spectral.SCAN_DOUBLINGS + 1
        assert shapes.count(field) == 1


def test_extinction_scan_from_a_start_across_groups_runs_on_whole_matrices():
    cfg = cavity.standard_config(8)
    blocks = protocol.blocks_for(cfg)
    first, second = blocks.field_map.groups[:2]
    start = gaussian.thermal_state(cavity.mode_frequencies(cfg), 0.5)
    a, b = 2 * first[0], 2 * second[0]
    start[a, b] = start[b, a] = 0.05  # q-q correlation between two sectors
    scan = spectral.extinction_scan(cfg, sigma_f0=start)
    assert max(scan.negativities) > 0.0
    assert scan.negativities == [
        gaussian.log_negativity(blocks.detector_out(spectral.power_map(blocks, k).apply(start)))
        for k in scan.ks
    ]


def per_k_scan(cfg, k_grid):
    """(ks, negativities) of the scan with every k composed afresh by power_map."""
    blocks = protocol.blocks_for(cfg)
    vacuum = gaussian.vacuum_state(cfg.n_field_modes)
    ks, negs = [], []

    def sample(k):
        power = spectral.power_map(blocks, k)
        sigma_d, _ = protocol.full_cycle(power.apply(vacuum), blocks)
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
    assert scan.ks == [2**j for j in range(31)]
    # one squaring per doubling; composing each grid point afresh took 465
    assert len(calls) <= len(scan.ks)
    assert (scan.ks, scan.negativities) == per_k_scan(cfg, scan.ks)


def cap_past_2_to_the_10(cfg):
    """A growth cap between max|q| at 2^10 and 2^11 cycles: it ends the chain there."""
    blocks = protocol.blocks_for(cfg)
    q_max = [np.max(np.abs(spectral.power_map(blocks, 2**j).q)) for j in (10, 11)]
    assert q_max[0] < q_max[1]
    return float(np.mean(q_max))


def test_extinction_scan_overflow_matches_power_map(monkeypatch):
    cfg = cavity.standard_config(8)
    grid = [2**j for j in range(31)]
    monkeypatch.setattr(protocol, "GROWTH_CAP", cap_past_2_to_the_10(cfg))
    scan = spectral.extinction_scan(cfg)
    assert scan.ks[-1] < 2**spectral.SCAN_DOUBLINGS
    assert scan.ks[:11] == grid[:11] and max(scan.ks) < 2**11
    assert (scan.ks, scan.negativities) == per_k_scan(cfg, grid)


@pytest.mark.parametrize("capped", [False, True])
def test_extinction_scan_reads_each_sample_on_its_blocks(capped, monkeypatch):
    # no sample forms the whole 2M-row field, with or without the refinement
    cfg = cavity.standard_config(8)
    if capped:
        monkeypatch.setattr(protocol, "GROWTH_CAP", cap_past_2_to_the_10(cfg))
    calls = []
    join, apply = gaussian.Partition.join, AffineMap.apply
    monkeypatch.setattr(gaussian.Partition, "join", lambda p, b: calls.append("join") or join(p, b))
    monkeypatch.setattr(AffineMap, "apply", lambda m, s: calls.append("apply") or apply(m, s))
    scan = spectral.extinction_scan(cfg)
    assert (scan.ks[-1] < 2**spectral.SCAN_DOUBLINGS) == capped
    assert calls == []
