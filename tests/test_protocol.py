"""Tests for the extraction cycle protocol."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from entfarm import cavity, dynamics, gaussian, protocol, thermo
from scipy.linalg import block_diag
from conftest import detector_pairs_covariance, evolve, whole_matrix_run

RNG = np.random.default_rng(5150)


def small_config(**overrides):
    overrides.setdefault("cycle_time", 20.0)
    return cavity.standard_config(8, **overrides)


# ---------------------------------------------------------------------------
# block decomposition


def test_block_decompose_identity():
    blocks = protocol.block_decompose(np.eye(10))
    assert np.array_equal(blocks.a, np.eye(4))
    assert np.array_equal(blocks.d, np.eye(6))
    assert not blocks.b.any() and not blocks.c.any()


def test_coupled_map_slices_the_decoupled_modes_out_of_the_field_map():
    cfg = cavity.standard_config(5)
    blocks = protocol.blocks_for(cfg)
    assert blocks.decoupled == (2,)
    keep = [0, 1, 2, 3, 6, 7, 8, 9]
    whole, coupled = blocks.field_map, blocks.coupled_map
    assert np.array_equal(coupled.d, whole.d[np.ix_(keep, keep)])
    assert np.array_equal(coupled.q, whole.q[np.ix_(keep, keep)])
    assert coupled.k == 1
    free = protocol.blocks_for(cavity.standard_config(5, x1=2.9, x2=5.3))
    assert free.decoupled == ()
    assert np.array_equal(free.coupled_map.d, free.field_map.d)


def test_maps_carry_the_parity_sectors_as_groups():
    # modes 1-5: "+" holds 1 and 5, "-" holds 2 and 4, mode 3 is nodal
    blocks = protocol.blocks_for(cavity.standard_config(5))
    assert blocks.sectors == ((0, 4), (1, 3))
    assert blocks.field_map.groups == ((0, 4), (1, 3), (2,))
    # the coupled map renumbers modes 0, 1, 3, 4 as 0, 1, 2, 3
    assert blocks.coupled_map.groups == ((0, 3), (1, 2))
    assert protocol.block_decompose(np.eye(14)).field_map.groups == ((0, 1, 2, 3, 4),)


def test_affine_map_groups_partition_its_modes():
    d = np.eye(4)
    for groups in (((0,),), ((0, 1), (1,)), ((0, 2),)):
        with pytest.raises(ValueError, match="do not partition"):
            protocol.AffineMap(d, d, 1, groups)
    one = protocol.AffineMap(d, d, 1, ((0, 1),))
    two = protocol.AffineMap(d, d, 1, ((0,), (1,)))
    with pytest.raises(ValueError, match="same groups"):
        one.then(two)
    assert two.then(two).groups == ((0,), (1,))


def test_whole_field_places_the_coupled_block_and_keeps_the_frozen_modes():
    blocks = protocol.blocks_for(cavity.standard_config(5))
    frozen = RNG.standard_normal((10, 10))
    coupled = RNG.standard_normal((8, 8))
    sigma = blocks.whole_field(coupled, frozen)
    keep, dead = [0, 1, 2, 3, 6, 7, 8, 9], [4, 5]
    assert np.array_equal(sigma[np.ix_(keep, keep)], coupled)
    assert np.array_equal(sigma[np.ix_(dead, dead)], frozen[np.ix_(dead, dead)])
    assert not sigma[np.ix_(dead, keep)].any() and not sigma[np.ix_(keep, dead)].any()
    assert not np.shares_memory(sigma, frozen)


def test_block_decompose_reassembles_exactly():
    s = RNG.normal(size=(12, 12))
    blocks = protocol.block_decompose(s)
    top = np.hstack([blocks.a, blocks.b])
    bottom = np.hstack([blocks.c, blocks.d])
    assert np.array_equal(np.vstack([top, bottom]), s)


def test_block_decompose_uncoupled_has_no_mixing():
    cfg = small_config(coupling=0.0)
    blocks = protocol.blocks_for(cfg)
    assert np.max(np.abs(blocks.b)) == 0.0
    assert np.max(np.abs(blocks.c)) == 0.0


# ---------------------------------------------------------------------------
# the one-cycle field map vs explicit joint evolution


def test_one_step_equals_joint_evolution():
    cfg = small_config()
    prop = dynamics.propagator_for(cfg)
    step = protocol.blocks_for(cfg).field_map
    vac_f = gaussian.vacuum_state(cfg.n_field_modes)
    joint = evolve(gaussian.vacuum_state(cfg.n_field_modes + 2), prop)
    field_part = gaussian.reduce_modes(joint, range(2, cfg.n_field_modes + 2))
    stepped = step.apply(vac_f)
    assert np.max(np.abs(stepped - field_part)) < 1e-12


def test_iterated_step_equals_iterated_full_cycle():
    cfg = small_config(coupling=0.05, cycle_time=7.0)
    blocks = protocol.blocks_for(cfg)
    sigma_step = gaussian.vacuum_state(cfg.n_field_modes)
    sigma_full = sigma_step.copy()
    for _ in range(9):
        sigma_step = blocks.field_map.apply(sigma_step)
        _, sigma_full = protocol.full_cycle(sigma_full, blocks)
    assert np.array_equal(sigma_step, sigma_full)


def test_step_is_affine():
    cfg = small_config()
    step = protocol.blocks_for(cfg).field_map
    from conftest import random_covariance

    s1, _ = random_covariance(cfg.n_field_modes, RNG)
    s2, _ = random_covariance(cfg.n_field_modes, RNG)
    alpha = 0.3
    mixed = step.apply(alpha * s1 + (1 - alpha) * s2)
    combo = alpha * step.apply(s1) + (1 - alpha) * step.apply(s2)
    assert np.allclose(mixed, combo, atol=1e-12)


def test_step_uncoupled_keeps_vacuum():
    cfg = small_config(coupling=0.0)
    step = protocol.blocks_for(cfg).field_map
    vac = gaussian.vacuum_state(cfg.n_field_modes)
    assert np.allclose(step.apply(vac), vac, atol=1e-12)


def test_step_rejects_bad_input():
    step = protocol.blocks_for(small_config()).field_map
    with pytest.raises(ValueError):
        step.apply(np.eye(4))
    lopsided = np.eye(16)
    lopsided[0, 1] = 0.5
    with pytest.raises(gaussian.InvalidStateError):
        step.apply(lopsided)
    with pytest.raises(gaussian.InvalidStateError, match="must be finite"):
        step.apply(np.diag([np.inf] + [1.0] * 15))


def test_non_finite_start_state_is_rejected_not_blamed_on_the_map():
    sigma0 = np.eye(16)
    sigma0[0, 0] = np.inf
    with pytest.raises(gaussian.InvalidStateError, match="must be finite"):
        protocol.run_cycles(small_config(), sigma_f0=sigma0)


def test_then_runs_the_first_map_first():
    from conftest import random_covariance

    first = protocol.AffineMap(RNG.normal(size=(4, 4)), np.eye(4), 2, ((0, 1),))
    second = protocol.AffineMap(
        RNG.normal(size=(4, 4)), np.diag([1.0, 2.0, 3.0, 4.0]), 3, ((0, 1),)
    )
    sigma, _ = random_covariance(2, RNG)
    both = first.then(second)
    assert both.k == 5
    assert np.allclose(both.apply(sigma), second.apply(first.apply(sigma)), atol=1e-12)


# ---------------------------------------------------------------------------
# full cycle


@pytest.mark.parametrize("n_modes", [4, 16])
def test_full_cycle_equals_joint_evolution_from_a_random_field_state(n_modes):
    from conftest import random_covariance

    cfg = cavity.standard_config(n_modes, cycle_time=20.0)
    blocks = protocol.blocks_for(cfg)
    sigma_f, _ = random_covariance(n_modes, RNG)
    assert not np.allclose(sigma_f, gaussian.vacuum_state(n_modes))
    joint = evolve(block_diag(np.eye(4), sigma_f), dynamics.propagator_for(cfg))
    sigma_d, sigma_f_out = protocol.full_cycle(sigma_f, blocks)
    assert np.max(np.abs(sigma_d - joint[:4, :4])) < 1e-12
    assert np.max(np.abs(sigma_f_out - joint[4:, 4:])) < 1e-12
    assert np.array_equal(sigma_d, blocks.detector_out(sigma_f))
    assert np.array_equal(sigma_f_out, blocks.field_map.apply(sigma_f))


def test_full_cycle_uncoupled_rotates_detectors():
    # uncoupled: the detectors only rotate, so they leave in the vacuum
    cfg = small_config(coupling=0.0)
    blocks = protocol.blocks_for(cfg)
    sigma_d, _ = protocol.full_cycle(gaussian.vacuum_state(cfg.n_field_modes), blocks)
    assert np.allclose(sigma_d, gaussian.vacuum_state(2), atol=1e-12)


def test_first_cycle_from_vacuum_extracts_entanglement():
    cfg = cavity.standard_config(64)
    blocks = protocol.blocks_for(cfg)
    sigma_d, _ = protocol.full_cycle(gaussian.vacuum_state(64), blocks)
    assert gaussian.log_negativity(sigma_d) > 1e-3


def test_first_cycle_from_hot_field_extracts_nothing():
    cfg = cavity.standard_config(64)
    blocks = protocol.blocks_for(cfg)
    hot = gaussian.thermal_state(cavity.mode_frequencies(cfg), 1.0)
    sigma_d, _ = protocol.full_cycle(hot, blocks)
    assert gaussian.log_negativity(sigma_d) == 0.0


def test_full_cycle_mirror_symmetry():
    # detectors at x and L - x: relabeling them must not change E_N
    cfg = small_config()
    assert cfg.x2 == pytest.approx(cfg.length - cfg.x1)
    blocks = protocol.blocks_for(cfg)
    sigma_d, _ = protocol.full_cycle(gaussian.vacuum_state(cfg.n_field_modes), blocks)
    swap = np.zeros((4, 4))
    swap[0:2, 2:4] = np.eye(2)
    swap[2:4, 0:2] = np.eye(2)
    assert gaussian.log_negativity(swap @ sigma_d @ swap.T) == pytest.approx(
        gaussian.log_negativity(sigma_d), rel=1e-10
    )


def test_full_cycle_shape_validation():
    blocks = protocol.blocks_for(small_config())
    with pytest.raises(ValueError, match="mode count"):
        protocol.full_cycle(np.eye(4), blocks)


# ---------------------------------------------------------------------------
# run_cycles


def test_run_cycles_uncoupled_is_inert():
    cfg = small_config(coupling=0.0)
    traj = protocol.run_cycles(cfg, n_cycles=5)
    assert [r.cycle for r in traj.records] == [1, 2, 3, 4, 5]
    for r in traj.records:
        assert r.log_negativity == 0.0
        assert r.energy_input == pytest.approx(0.0, abs=1e-10)
        assert r.field_purity == pytest.approx(1.0, abs=1e-11)
        assert math.isnan(r.field_thermality)  # vacuum field: estimator undefined


def test_run_cycles_computes_only_requested_diagnostics(monkeypatch):
    def unrequested(*args, **kwargs):
        raise AssertionError("an unrequested diagnostic was computed")

    # purity and thermality read the field analysis, energy_input the traces
    monkeypatch.setattr(gaussian, "StateAnalysis", unrequested)
    monkeypatch.setattr(gaussian, "energy_from_traces", unrequested)
    only = {"log_negativity": protocol.DIAGNOSTICS["log_negativity"]}
    traj = protocol.run_cycles(small_config(), n_cycles=3, observables=only)
    for r in traj.records:
        assert r.log_negativity > 0.0
        assert r.energy_input is None
        assert r.field_purity is None
        assert r.field_thermality is None
        assert list(r.values) == ["log_negativity"]


def test_run_cycles_validates_and_factors_each_field_state_once(monkeypatch):
    cfg, n_cycles = small_config(), 5
    field_dim = 2 * cfg.n_field_modes
    calls = Counter()

    def count(owner, name, field_sized_only=False):
        original = getattr(owner, name)

        def counted(a, *args, **kwargs):
            if not field_sized_only or np.shape(a)[0] == field_dim:
                calls[name] += 1
            return original(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(np.linalg, "cholesky")
    count(np.linalg, "slogdet")
    count(gaussian, "_as_covariance", field_sized_only=True)
    sigma0 = gaussian.thermal_state(cavity.mode_frequencies(cfg), 0.1)
    traj = protocol.run_cycles(cfg, sigma_f0=sigma0, n_cycles=n_cycles)
    assert all(list(r.values) == list(protocol.DIAGNOSTICS) for r in traj.records)
    # one factorization per parity sector, each cycle and once more for the
    # physicality check of sigma_f0; the nodal modes are closed form
    sectors = protocol.blocks_for(cfg).sectors
    assert [len(sector) for sector in sectors] == [3, 3]
    assert calls["cholesky"] == (n_cycles + 1) * len(sectors)
    assert calls["slogdet"] == 0
    # one per cycle's field_out, plus the entry check of sigma_f0
    assert calls["_as_covariance"] <= n_cycles + 1


def whole_matrix_diagnostics(states):
    """The built-in diagnostics of one cycle with its field state factored whole."""
    n = states.partition.n_modes
    whole = dataclasses.replace(
        states,
        field_in_blocks=[states.field_in],
        field_out_blocks=[states.field_out],
        partition=gaussian.Partition((tuple(range(n)),), n),
    )
    return {name: observe(whole) for name, observe in protocol.DIAGNOSTICS.items()}


@pytest.mark.parametrize("n_modes", [4, 16, 128])
@pytest.mark.parametrize("temperature", [0.0, 0.5])
def test_run_cycles_split_analysis_matches_the_whole_field(n_modes, temperature):
    cfg = cavity.standard_config(n_modes)
    sigma0 = None
    if temperature:
        sigma0 = gaussian.thermal_state(cavity.mode_frequencies(cfg), temperature)
    observables = dict(protocol.DIAGNOSTICS, states=lambda s: s)
    traj = protocol.run_cycles(cfg, sigma_f0=sigma0, n_cycles=3, observables=observables)
    blocks = protocol.blocks_for(cfg)
    nodal = tuple((m,) for m in cavity.decoupled_positions(cfg))
    assert len(nodal) == n_modes // 3
    for r in traj.records:
        states = r.values["states"]
        assert states.partition.groups == blocks.sectors + nodal
        want = whole_matrix_diagnostics(states)
        assert r.log_negativity == want["log_negativity"]
        assert r.energy_input == want["energy_input"]
        assert r.field_purity == pytest.approx(want["field_purity"], rel=1e-12, abs=0)
        # near the vacuum the entropy carries ~1e-12 of eigenvalue rounding
        # in either route (test_gaussian's 40-digit oracle bounds both at 1e-11)
        rel = 1e-11 if temperature == 0.0 else 1e-12
        assert r.field_thermality == pytest.approx(want["field_thermality"], rel=rel, abs=0)


def test_run_cycles_without_decoupled_modes_keeps_the_whole_field_route():
    cfg = cavity.standard_config(8, x1=2.9, x2=5.3)
    assert cavity.decoupled_positions(cfg) == []
    sigma0 = gaussian.thermal_state(cavity.mode_frequencies(cfg), 0.5)
    observables = dict(protocol.DIAGNOSTICS, states=lambda s: s)
    traj = protocol.run_cycles(cfg, sigma_f0=sigma0, n_cycles=3, observables=observables)
    for r in traj.records:
        states = r.values["states"]
        assert states.partition.whole
        want = whole_matrix_diagnostics(states)
        assert {name: r.values[name] for name in want} == want


def test_run_cycles_keeps_a_correlated_nodal_mode_in_the_factored_block():
    # mode 3 has a node at both detectors; a start that entangles it with
    # mode 1 (two-mode squeezed) keeps that correlation, so the run factors
    # the whole field, nodal mode included
    cfg = cavity.standard_config(4)
    assert cavity.decoupled_positions(cfg) == [2]
    assert protocol.blocks_for(cfg).field_map.groups == ((0,), (1, 3), (2,))
    c = 1.2
    sigma0 = np.eye(8)
    sigma0[[0, 1, 4, 5], [0, 1, 4, 5]] = c
    sigma0[[0, 1], [4, 5]] = sigma0[[4, 5], [0, 1]] = np.sqrt(c * c - 1.0) * np.array([1.0, -1.0])
    observables = dict(protocol.DIAGNOSTICS, whole=lambda s: s.partition.whole)
    traj = protocol.run_cycles(cfg, sigma_f0=sigma0, n_cycles=2, observables=observables)
    for r, want in zip(traj.records, whole_matrix_run(cfg, sigma0, 2)):
        assert r.values.pop("whole")
        assert r.values == pytest.approx(want, rel=1e-12, abs=0)


def test_run_cycles_rejects_a_start_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"does not match the map's 8 modes \(mode count 6\)"):
        protocol.run_cycles(cavity.standard_config(8), sigma_f0=gaussian.vacuum_state(6))


def test_run_cycles_rejects_an_unphysical_start():
    # every symplectic eigenvalue of 0.5 I is 0.5
    with pytest.raises(gaussian.InvalidStateError, match="0.5 violates the uncertainty bound"):
        protocol.run_cycles(cavity.standard_config(8), sigma_f0=0.5 * np.eye(16), n_cycles=3)


def test_run_cycles_checks_a_given_start_once_and_the_vacuum_never(monkeypatch):
    # with no observables only the physicality check of the start eigensolves,
    # once per parity sector; the nodal modes are closed form
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    cfg = small_config()
    protocol.run_cycles(cfg, n_cycles=3, observables={})
    assert shapes == []
    hot = gaussian.thermal_state(cavity.mode_frequencies(cfg), 0.5)
    protocol.run_cycles(cfg, sigma_f0=hot, n_cycles=3, observables={})
    assert shapes == [(6, 6), (6, 6)]


def test_run_cycles_factors_no_more_rows_than_the_largest_group(monkeypatch):
    # 16 modes: "+" holds 5 modes, "-" 6, and the 5 nodal modes are one-mode
    # groups; every factorization and eigensolve sees one group at most
    cfg = cavity.standard_config(16)
    groups = protocol.blocks_for(cfg).field_map.groups
    assert sorted(len(group) for group in groups) == [1] * 5 + [5, 6]
    rows = []
    for name in ("cholesky", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            rows.append(np.shape(a)[-1])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    traj = protocol.run_cycles(cfg, n_cycles=3, observables=protocol.DIAGNOSTICS)
    assert all(list(r.values) == list(protocol.DIAGNOSTICS) for r in traj.records)
    assert len(rows) == 12  # per cycle: both sectors, factored and eigensolved
    assert max(rows) == 2 * 6


def test_one_group_run_is_the_whole_matrix_loop_bit_for_bit():
    # an asymmetric pair with no nodal mode: the run's one group is the
    # whole field, so it must take exactly the whole-matrix route
    cfg = cavity.standard_config(16, x1=2.9, x2=5.3)
    assert protocol.blocks_for(cfg).field_map.groups == (tuple(range(16)),)
    sigma0 = gaussian.thermal_state(cavity.mode_frequencies(cfg), 0.5)
    traj = protocol.run_cycles(cfg, sigma_f0=sigma0, n_cycles=4)
    want = whole_matrix_run(cfg, sigma0, 4)
    assert [r.values for r in traj.records] == want


def test_run_cycles_diagnostics_need_no_nonsymmetric_eigensolve(monkeypatch):
    # per-cycle entropies and thermality go through Cholesky and a symmetric
    # eigensolve; np.linalg.eigvals is several times slower at 128 modes
    def nonsymmetric(*args, **kwargs):
        raise AssertionError("a per-cycle diagnostic called np.linalg.eigvals")

    monkeypatch.setattr(np.linalg, "eigvals", nonsymmetric)
    traj = protocol.run_cycles(cavity.standard_config(4), n_cycles=3)
    for r in traj.records:
        assert list(r.values) == list(protocol.DIAGNOSTICS)
        assert 0.0 < r.field_thermality < 1.0


def test_run_cycles_records_diagnostics():
    cfg = small_config()
    traj = protocol.run_cycles(cfg, n_cycles=12)
    negs = [r.log_negativity for r in traj.records]
    assert all(n > 0 for n in negs)
    for r in traj.records:
        assert 0.0 < r.field_purity <= 1.0 + 1e-12
        assert r.energy_input > 0.0  # switching work pumps energy in
        assert 0.0 <= r.field_thermality <= 1.0
        assert list(r.values) == list(protocol.DIAGNOSTICS)


def test_run_cycles_energy_bookkeeping():
    cfg = small_config()
    n = 10
    freqs = cavity.joint_frequencies(cfg)
    observables = {
        "energy_input": protocol.DIAGNOSTICS["energy_input"],
        "detector_gain": lambda s: gaussian.energy(s.detector_out, freqs[:2], "paper")
        - gaussian.energy(s.detector_in, freqs[:2], "paper"),
    }
    traj = protocol.run_cycles(cfg, n_cycles=n, observables=observables)
    total = sum(r.energy_input for r in traj.records)
    detector_gains = sum(r.values["detector_gain"] for r in traj.records)
    field_gain = gaussian.energy(
        traj.final_field_sigma, cavity.mode_frequencies(cfg), "paper"
    ) - gaussian.energy(
        gaussian.vacuum_state(cfg.n_field_modes), cavity.mode_frequencies(cfg), "paper"
    )
    assert total == pytest.approx(detector_gains + field_gain, abs=1e-9)


def test_run_cycles_thermal_start_suppresses_early_negativity():
    cfg = cavity.standard_config(16)
    hot = gaussian.thermal_state(cavity.mode_frequencies(cfg), 1.0)
    traj = protocol.run_cycles(cfg, sigma_f0=hot, n_cycles=30)
    negs = [r.log_negativity for r in traj.records]
    assert negs[0] == 0.0
    # the field cools toward the extraction regime: purity must rise
    purities = [r.field_purity for r in traj.records]
    assert purities[-1] > purities[0]


def test_run_cycles_field_stays_physical():
    cfg = small_config()
    min_nu = {"min_nu": lambda s: gaussian.symplectic_eigenvalues(s.field_out).min()}
    traj = protocol.run_cycles(cfg, n_cycles=2000, observables=min_nu)
    assert len(traj.records) == 2000
    for r in traj.records:
        assert r.values["min_nu"] >= 1.0 - 1e-8


# ---------------------------------------------------------------------------
# the entropy identity of a pure start


# From the vacuum the global state stays pure, so after k cycles the k
# discarded detector pairs purify the field: S(field_k) = S(d_1 ... d_k).
# Measured relative gaps over cycles 1-10, at 1 and 2 BLAS threads alike:
# 1.90e-8 to 2.27e-8 at 16 modes, 8.04e-7 to 1.01e-6 at 128.  The field side
# carries the error: a normal-mode propagator (ROADMAP item 2) narrows the
# 128-mode gap to 5.6e-10 to 8.3e-10, and these bounds tighten with it.
@pytest.mark.parametrize("n_modes, bound", [(16, 3e-8), (128, 1.5e-6)])
def test_field_entropy_from_the_vacuum_is_that_of_the_discarded_pairs(n_modes, bound):
    cfg = cavity.standard_config(n_modes)
    pairs = detector_pairs_covariance(
        protocol.blocks_for(cfg), gaussian.vacuum_state(n_modes), 10
    )
    traj = protocol.run_cycles(
        cfg, n_cycles=10, observables={"entropy": lambda s: s.field_analysis.entropy}
    )
    for k, record in enumerate(traj.records, start=1):
        s_pairs = gaussian.von_neumann_entropy(pairs[: 4 * k, : 4 * k])
        assert abs(record.values["entropy"] - s_pairs) <= bound * s_pairs, k
