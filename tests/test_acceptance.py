"""Acceptance suite: end-to-end behavior at the reference parameters.

Each test pins one headline claim of the simulator at its stated tolerance:
plateau entanglement yield, fixed-point convergence and uniqueness, thermal
suppression, instability scalings, ultralong extinction, brute-force oracle
agreement, and the core invariant bundle.  Reference setup throughout:
coupling 0.01, cavity length 8, detector frequency pi/8, detectors at L/3
and 2L/3, cycle time 20, vacuum start, unless a test says otherwise.
"""

import math

import numpy as np
import pytest

from entfarm import cavity, dynamics, fock, gaussian, protocol, spectral, thermo
from conftest import (
    entropy_difference_check,
    evolve,
    fixed_point_solutions,
    symplectic_form,
    total_energy,
)


@pytest.fixture(scope="module")
def vacuum_run_64():
    cfg = cavity.standard_config(64)
    return protocol.run_cycles(cfg, n_cycles=500)


@pytest.fixture(scope="module")
def thermal_run_64():
    cfg = cavity.standard_config(64)
    freqs = cavity.mode_frequencies(cfg)
    return protocol.run_cycles(
        cfg, sigma_f0=gaussian.thermal_state(freqs, 1.0), n_cycles=500
    )


def window_config(**overrides):
    return cavity.resonant_window(cavity.standard_config(16, **overrides))


def coupled_modes(blocks):
    """The field modes blocks.coupled_map acts on, ascending."""
    return sorted(m for sector in blocks.sectors for m in sector)


def plateau_of(trajectory):
    return float(np.mean([r.log_negativity for r in trajectory.records[-50:]]))


def test_01_plateau_negativity(vacuum_run_64):
    # converges to a constant plateau; in base-2 units the plateau sits
    # within 30% of 2.3e-3 (reported unit choice: log base 2)
    en = np.array([r.log_negativity for r in vacuum_run_64.records])
    assert np.ptp(en[-50:]) < 0.01 * en[-1]
    plateau_bits = plateau_of(vacuum_run_64) / math.log(2.0)
    assert abs(plateau_bits - 2.3e-3) / 2.3e-3 < 0.30


def test_02_initial_state_independence():
    cfg = window_config()
    blocks = protocol.blocks_for(cfg)
    freqs = cavity.mode_frequencies(cfg)
    power = spectral.power_map(blocks, 2**22)
    finals, plateaus = [], []
    for temperature in (0.0, 0.5, 1.0):
        if temperature == 0.0:
            sigma0 = gaussian.vacuum_state(cfg.n_field_modes)
        else:
            sigma0 = gaussian.thermal_state(freqs, temperature)
        sigma = power.apply(sigma0)
        # the block of the modes blocks.coupled_map acts on
        finals.append(gaussian.reduce_modes(sigma, coupled_modes(blocks)))
        sigma_d, _ = protocol.full_cycle(sigma, blocks)
        plateaus.append(gaussian.log_negativity(sigma_d))
    for a in finals:
        for b in finals:
            assert np.max(np.abs(a - b)) < 1e-6
    assert max(plateaus) - min(plateaus) < 1e-6
    assert min(plateaus) > 0.0


def test_03_fixed_point_solver_vs_iteration():
    cfg = window_config()
    blocks = protocol.blocks_for(cfg)
    kron, oracle, eigen = fixed_point_solutions(blocks.coupled_map)
    assert np.max(np.abs(kron - oracle)) < 1e-8
    assert np.max(np.abs(eigen - oracle)) < 1e-8
    iterated = spectral.power_map(blocks, 2**22).apply(
        gaussian.vacuum_state(cfg.n_field_modes)
    )
    # compare where the map contracts, on the modes of blocks.coupled_map; the
    # decoupled mode is left out of the solve but collects rotation roundoff
    # under 2^22 numerical compositions
    diff = gaussian.reduce_modes(iterated, coupled_modes(blocks)) - kron
    assert np.max(np.abs(diff)) < 1e-8


def test_04_thermal_suppression(thermal_run_64):
    en = np.array([r.log_negativity for r in thermal_run_64.records])
    purity = np.array([r.field_purity for r in thermal_run_64.records])
    thermality = np.array([r.field_thermality for r in thermal_run_64.records])
    # exact zeros first, then extraction switches on
    assert en[0] == 0.0
    first_positive = int(np.argmax(en > 0.0))
    assert en[first_positive] > 0.0
    assert first_positive > 10
    assert np.all(en[:first_positive] == 0.0)
    # the protocol purifies the hot field monotonically through the transition
    assert np.all(np.diff(purity[:200]) > 0.0)
    # and drags it away from thermality
    assert thermality[0] > 0.99
    assert thermality[199] < 0.95
    assert np.all(thermality[1:200] <= thermality[:199] + 1e-12)


def test_05_coupling_scaling_of_instability():
    lams = np.geomspace(0.005, 0.04, 7)
    gaps, criticals = [], []
    for lam in lams:
        cfg = cavity.standard_config(16, coupling=float(lam), cycle_time=21.0)
        spec = spectral.field_spectrum(protocol.blocks_for(cfg).coupled_map)
        gaps.append(spec.max_modulus - 1.0)
        _, instability = spectral.timescales(spec)
        criticals.append(instability)
    assert all(g > 0 for g in gaps)
    slope = np.polyfit(np.log(lams), np.log(gaps), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)
    assert all(a > b for a, b in zip(criticals, criticals[1:]))


def test_06_cycle_time_periodicity():
    tfs = np.arange(1.0, 34.0)
    gaps = []
    for tf in tfs:
        cfg = cavity.standard_config(16, cycle_time=float(tf))
        spec = spectral.field_spectrum(protocol.blocks_for(cfg).coupled_map)
        gaps.append(spec.max_modulus - 1.0)
    # critical cycles ~ 1/gap; marginal and stable points are clamped so the
    # log-signal stays finite
    signal = np.log10(np.maximum(np.array(gaps), 1e-13))
    x = signal - signal.mean()

    def autocorrelation(lag):
        return float(np.dot(x[:-lag], x[lag:]) / ((len(x) - lag) * x.var()))

    values = {lag: autocorrelation(lag) for lag in range(2, 18)}
    peak = max(values, key=values.get)
    assert abs(peak - 16) <= 1
    assert values[16] > 0.5


def test_07_ultralong_extinction():
    scan = spectral.extinction_scan(cavity.standard_config(64))
    en = np.array(scan.negativities)
    assert en[0] > 0.0
    # positive plateau first, then extraction dies
    assert scan.extinction_k is not None
    died = scan.ks.index(scan.extinction_k)
    assert np.all(en[:died] > 0.0)
    assert en[died] == 0.0
    assert abs(math.log10(scan.extinction_k) - 7.0) < 1.0
    assert scan.spectral_estimate is not None
    assert abs(math.log10(scan.extinction_k) - math.log10(scan.spectral_estimate)) < 1.0


@pytest.mark.parametrize("factor", [1.44, 1.48, 1.52])
def test_08_short_cycle_decline(factor):
    base = cavity.standard_config(128)
    r = abs(base.x2 - base.x1)
    cfg = cavity.standard_config(128, cycle_time=factor * r)
    traj = protocol.run_cycles(cfg, n_cycles=60)
    en = np.array([rec.log_negativity for rec in traj.records])
    assert np.all(en > 0.0)
    # downward trend, no sustained plateau
    assert en[-1] < en[0]
    assert en[30:].max() < en[:10].max()
    assert en[59] < en[29] < en[9]


def test_09_oracle_equivalence():
    cav = cavity.standard_config(1)
    sigma_g = evolve(gaussian.vacuum_state(3), dynamics.propagator_for(cav))
    sigma_f = fock.evolve_and_covariance(fock.FockConfig(cav, 8), cav.cycle_time)
    assert np.max(np.abs(sigma_f - sigma_g)) < 1e-4
    en_g = gaussian.log_negativity(gaussian.reduce_modes(sigma_g, (0, 1)))
    en_f = gaussian.log_negativity(gaussian.reduce_modes(sigma_f, (0, 1)))
    assert abs(en_f - en_g) < 1e-4
    assert en_g > 0.0


def test_10_invariant_suites():
    rng = np.random.default_rng(42)
    cfg = cavity.standard_config(16)

    # propagator symplecticity
    prop = dynamics.propagator_for(cfg)
    assert gaussian.check_symplectic(prop) < 1e-9

    # uncertainty bound holds over ten thousand cycles
    step = protocol.blocks_for(cfg).field_map
    sigma = gaussian.vacuum_state(cfg.n_field_modes)
    worst = np.inf
    for _ in range(10_000):
        sigma = step.apply(sigma)
        worst = min(worst, float(gaussian.symplectic_eigenvalues(sigma).min()))
    assert worst >= 1.0 - 1e-8

    # Williamson round trips
    for _ in range(5):
        n = int(rng.integers(2, 7))
        s_rand = _random_symplectic(n, rng)
        nus = 1.0 + rng.uniform(0.0, 2.0, n)
        sigma_r = s_rand @ np.diag(np.repeat(nus, 2)) @ s_rand.T
        sigma_r = (sigma_r + sigma_r.T) / 2.0
        s_w, d_w = gaussian.williamson_normal_form(sigma_r)
        assert np.max(np.abs(s_w @ d_w @ s_w.T - sigma_r)) < 1e-9

    # relative entropy: non-negative, and the two evaluation routes agree
    freqs = cavity.mode_frequencies(cavity.standard_config(4))
    for temperature in (0.3, 0.7, 1.2):
        sigma_t = gaussian.thermal_state(freqs, temperature)
        s_rand = _random_symplectic(4, rng, scale=0.2)
        sigma_a = (s_rand @ sigma_t @ s_rand.T + (s_rand @ sigma_t @ s_rand.T).T) / 2.0
        rel, diff = entropy_difference_check(sigma_a, freqs)
        assert rel >= -1e-12
        assert abs(rel - diff) < 1e-8

    # total energy conserved along evolution
    f_sym = cavity.hamiltonian_matrix(cfg)
    sigma0 = gaussian.vacuum_state(2 + cfg.n_field_modes)
    e0 = total_energy(sigma0, f_sym)
    for t in (1.0, 5.0, 20.0):
        sig_t = evolve(sigma0, dynamics.propagator(f_sym, t))
        assert abs(total_energy(sig_t, f_sym) - e0) < 1e-9

    # detector-detector correlations grow as t^2 at early times (the two
    # detectors only talk through the field, so the first order vanishes)
    times = np.geomspace(1e-3, 1e-2, 6)
    growth = []
    for t in times:
        sig_t = evolve(sigma0, dynamics.propagator(f_sym, float(t)))
        block = sig_t[0:2, 2:4]
        growth.append(np.max(np.abs(block)))
    exponent = np.polyfit(np.log(times), np.log(growth), 1)[0]
    assert exponent == pytest.approx(2.0, abs=0.05)


def test_11_mode_count_convergence(vacuum_run_64):
    cfg = cavity.standard_config(128)
    run_128 = protocol.run_cycles(cfg, n_cycles=500)
    p64 = plateau_of(vacuum_run_64)
    p128 = plateau_of(run_128)
    assert abs(p128 - p64) / p64 < 0.01


def _random_symplectic(n, rng, scale=0.4):
    from scipy.linalg import expm

    h = rng.standard_normal((2 * n, 2 * n)) * scale
    return expm(symplectic_form(n) @ (h + h.T) / 2.0)
