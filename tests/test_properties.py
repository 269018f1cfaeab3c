"""Property-based invariant tests on random small Gaussian states and cavities.

Covariances come from conftest.random_covariance, seeded by Hypothesis, so
each example is a physical state of 1 to 4 modes with a known symplectic
spectrum.  Examples are derandomized: every run checks the same states.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.optimize import linear_sum_assignment

from entfarm import cavity, dynamics, gaussian, protocol, spectral, thermo
from conftest import (
    detector_pairs_covariance,
    eigvals_symplectic_eigenvalues,
    grouped_analysis,
    random_covariance,
    random_symplectic,
    schur_fixed_point,
    whole_analysis,
    whole_composition,
    whole_matrix_run,
    whole_update,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

modes = st.integers(min_value=1, max_value=3)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
excitations = st.floats(min_value=0.05, max_value=2.0)


@PROPERTY
@given(n=modes, seed=seeds, excitation=excitations)
def test_relative_entropy_is_nonnegative(n, seed, excitation):
    rng = np.random.default_rng(seed)
    sigma_a, _ = random_covariance(n, rng, excitation)
    sigma_b, _ = random_covariance(n, rng, excitation)
    assert thermo.relative_entropy(sigma_a, sigma_b) >= -1e-9


@PROPERTY
@given(n=modes, seed=seeds, excitation=excitations)
def test_relative_entropy_to_itself_vanishes(n, seed, excitation):
    sigma, _ = random_covariance(n, np.random.default_rng(seed), excitation)
    assert thermo.relative_entropy(sigma, sigma) == pytest.approx(0.0, abs=1e-9)


@PROPERTY
@given(
    n=modes,
    seed=seeds,
    excitation=excitations,
    coupling=st.floats(min_value=0.0, max_value=0.05),
    cycle_time=st.floats(min_value=0.5, max_value=40.0),
)
def test_full_cycle_keeps_states_physical(n, seed, excitation, coupling, cycle_time):
    rng = np.random.default_rng(seed)
    cav = cavity.standard_config(n, coupling=coupling, cycle_time=cycle_time)
    sigma_f, _ = random_covariance(n, rng, excitation)
    detector_out, field_out = protocol.full_cycle(sigma_f, protocol.blocks_for(cav))
    gaussian.assert_physical(field_out)
    gaussian.assert_physical(detector_out)


@PROPERTY
@given(
    n=modes,
    coupling=st.floats(min_value=0.0, max_value=0.2),
    cycle_time=st.floats(min_value=0.5, max_value=30.0),
)
def test_propagator_is_symplectic(n, coupling, cycle_time):
    cav = cavity.standard_config(n, coupling=coupling, cycle_time=cycle_time)
    prop = dynamics.propagator(cavity.hamiltonian_matrix(cav), cav.cycle_time)
    assert gaussian.check_symplectic(prop) <= 1e-9


@PROPERTY
@given(n=st.integers(min_value=1, max_value=4), seed=seeds, excitation=excitations)
def test_symplectic_eigenvalues_match_eigvals_oracle(n, seed, excitation):
    sigma, nus = random_covariance(n, np.random.default_rng(seed), excitation)
    got = gaussian.symplectic_eigenvalues(sigma)
    np.testing.assert_allclose(got, eigvals_symplectic_eigenvalues(sigma), rtol=1e-10, atol=0)
    np.testing.assert_allclose(got, nus, rtol=1e-10, atol=0)


@PROPERTY
@given(n=st.integers(min_value=1, max_value=4), seed=seeds, excitation=excitations)
def test_williamson_reconstructs_the_state(n, seed, excitation):
    sigma, _ = random_covariance(n, np.random.default_rng(seed), excitation)
    s, d = gaussian.williamson_normal_form(sigma)
    np.testing.assert_allclose(s @ d @ s.T, sigma, rtol=0, atol=1e-10 * np.abs(sigma).max())
    assert gaussian.check_symplectic(s) < 1e-9
    np.testing.assert_allclose(
        np.diag(d), np.repeat(gaussian.symplectic_eigenvalues(sigma), 2), rtol=1e-12, atol=0
    )


@PROPERTY
@given(seed=seeds, excitation=excitations)
def test_ppt_eigenvalues_multiply_to_the_determinant(seed, excitation):
    sigma, _ = random_covariance(2, np.random.default_rng(seed), excitation)
    a, b, c = sigma[0:2, 0:2], sigma[2:4, 2:4], sigma[0:2, 2:4]
    delta_tilde = np.linalg.det(a) + np.linalg.det(b) - 2.0 * np.linalg.det(c)
    nu_minus_sq = gaussian.ppt_minimum_eigenvalue(sigma) ** 2
    nu_plus_sq = delta_tilde - nu_minus_sq
    assert nu_minus_sq * nu_plus_sq == pytest.approx(np.linalg.det(sigma), rel=1e-9, abs=0)


@PROPERTY
@given(seed=seeds, excitation=excitations)
def test_ppt_minimum_eigenvalue_is_locally_invariant(seed, excitation):
    rng = np.random.default_rng(seed)
    sigma, _ = random_covariance(2, rng, excitation)
    local = block_diag(random_symplectic(1, rng), random_symplectic(1, rng))
    assert gaussian.ppt_minimum_eigenvalue(local @ sigma @ local.T) == pytest.approx(
        gaussian.ppt_minimum_eigenvalue(sigma), rel=1e-9, abs=0
    )


@PROPERTY
@given(seed=seeds, excitation=excitations)
def test_product_state_has_no_log_negativity(seed, excitation):
    rng = np.random.default_rng(seed)
    sigma_a, _ = random_covariance(1, rng, excitation)
    sigma_b, _ = random_covariance(1, rng, excitation)
    assert gaussian.log_negativity(block_diag(sigma_a, sigma_b)) == 0.0


def split_state(n_coupled, n_isolated, seed, excitation, cross=1e-18):
    """A random coupled block and isolated single-mode states, modes shuffled.

    Every covariance between an isolated mode and any other mode is +/-cross,
    the size propagation rounding leaves at nodal modes.  Returns the state
    and the isolated positions.
    """
    rng = np.random.default_rng(seed)
    coupled, _ = random_covariance(n_coupled, rng, excitation)
    singles = [random_covariance(1, rng, excitation)[0] for _ in range(n_isolated)]
    sigma = block_diag(coupled, *singles)
    n = n_coupled + n_isolated
    order = rng.permutation(n)
    idx = np.array([2 * m + o for m in order for o in (0, 1)])
    sigma = sigma[np.ix_(idx, idx)]
    isolated = sorted(int(np.flatnonzero(order == n_coupled + j)[0]) for j in range(n_isolated))
    for m in isolated:
        for o in (0, 1):
            row = 2 * m + o
            others = [j for j in range(2 * n) if j // 2 != m]
            signs = rng.choice([-1.0, 1.0], size=len(others))
            sigma[row, others] = signs * cross
            sigma[others, row] = signs * cross
    return sigma, isolated


def split_groups(sigma, isolated):
    """The coupled modes of a split_state as one group, each isolated mode as another."""
    n = sigma.shape[0] // 2
    return (tuple(m for m in range(n) if m not in isolated),) + tuple((m,) for m in isolated)


def rows_of(group):
    """The phase-space rows (q, p of each) of a group of modes."""
    return [2 * m + o for m in group for o in (0, 1)]


split_shapes = dict(
    n_coupled=st.integers(min_value=1, max_value=3),
    n_isolated=st.integers(min_value=1, max_value=3),
    seed=seeds,
    excitation=excitations,
)


@PROPERTY
@given(**split_shapes)
def test_split_analysis_matches_the_whole_matrix(n_coupled, n_isolated, seed, excitation):
    sigma, isolated = split_state(n_coupled, n_isolated, seed, excitation)
    freqs = np.random.default_rng(seed).uniform(0.1, 3.0, size=n_coupled + n_isolated)
    whole = gaussian.StateAnalysis(sigma)
    groups = split_groups(sigma, isolated)
    split = grouped_analysis(sigma, groups)
    assert split.restricted(groups[0]).sigma.shape == (2 * n_coupled, 2 * n_coupled)
    assert split.purity == pytest.approx(whole.purity, rel=1e-12, abs=0)
    assert split.entropy == pytest.approx(whole.entropy, rel=1e-12, abs=0)
    np.testing.assert_allclose(
        split.physical_spectrum, whole.physical_spectrum, rtol=1e-12, atol=0
    )
    assert thermo.thermality_of(split, freqs) == pytest.approx(
        thermo.thermality_of(whole, freqs), rel=1e-12, abs=0
    )


@PROPERTY
@given(**split_shapes)
def test_split_analysis_rejects_an_unphysical_isolated_mode(
    n_coupled, n_isolated, seed, excitation
):
    sigma, isolated = split_state(n_coupled, n_isolated, seed, excitation)
    m = isolated[0]
    block = slice(2 * m, 2 * m + 2)
    nu = np.sqrt(np.linalg.det(sigma[block, block]))
    sigma[block, block] *= (1.0 - 1e-6) / nu  # symplectic eigenvalue 1 - 1e-6
    with pytest.raises(gaussian.InvalidStateError) as whole:
        gaussian.StateAnalysis(sigma).physical_spectrum
    with pytest.raises(gaussian.InvalidStateError) as split:
        grouped_analysis(sigma, split_groups(sigma, isolated)).physical_spectrum
    pattern = r"^symplectic eigenvalue (\S+) violates the uncertainty bound$"
    (want,) = re.fullmatch(pattern, str(whole.value)).groups()
    (got,) = re.fullmatch(pattern, str(split.value)).groups()
    assert float(got) == pytest.approx(float(want), rel=1e-10, abs=0)


@PROPERTY
@given(
    half_rows=st.integers(min_value=9, max_value=32),
    seed=seeds,
    defect=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0), st.just(1.0)),
)
def test_eigenbasis_fixed_point_solves_or_refuses(half_rows, seed, defect):
    # a random contraction of 18-64 rows (the "stein" route) blended with a
    # defective Jordan block: the eigenbasis solve either meets the residual
    # and agrees with the Schur oracle, or raises SpectralFailureError
    m = 2 * half_rows
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, m))
    w /= np.max(np.abs(np.linalg.eigvals(w))) * rng.uniform(1.05, 2.5)
    d = (1.0 - defect) * w + defect * (0.5 * np.eye(m) + 0.3 * np.eye(m, k=1))
    c = rng.standard_normal((m, 4)) * 0.7
    try:
        res = spectral.fixed_point(protocol.AffineMap(d, c @ c.T, 1, (tuple(range(half_rows)),)))
    except spectral.SpectralFailureError:
        return
    assert res.method == "stein"
    assert res.residual < 1e-9
    np.testing.assert_allclose(res.sigma_star, schur_fixed_point(d, c @ c.T), rtol=0, atol=1e-8)


pair_cavities = dict(
    length=st.floats(min_value=2.0, max_value=16.0),
    coupling=st.floats(min_value=0.0, max_value=0.1),
    cycle_time=st.floats(min_value=0.5, max_value=40.0),
    n=st.integers(min_value=4, max_value=32),
)


@PROPERTY
@given(position=st.floats(min_value=0.05, max_value=0.45), **pair_cavities)
def test_mirror_symmetric_pair_splits_the_coupled_map_in_two(
    position, length, coupling, cycle_time, n
):
    # x2 = L - x1 gives sin(k_n x2) = (-1)^(n+1) sin(k_n x1): odd modes are
    # "+", even ones "-", and the cross-group blocks of D vanish
    x1 = position * length
    cav = cavity.standard_config(
        n, length=length, x1=x1, x2=length - x1, coupling=coupling, cycle_time=cycle_time
    )
    coupled = protocol.blocks_for(cav).coupled_map
    plus, minus = (rows_of(group) for group in coupled.groups)
    d = coupled.d
    cross = max(np.abs(d[np.ix_(plus, minus)]).max(), np.abs(d[np.ix_(minus, plus)]).max())
    assert cross <= 1e-14 * np.abs(d).max()
    grouped = spectral.field_spectrum(coupled).eigenvalues
    distance = np.abs(grouped[:, None] - np.linalg.eigvals(d)[None, :])
    rows, cols = linear_sum_assignment(distance)
    assert distance[rows, cols].max() <= 1e-12


@PROPERTY
@given(
    first=st.floats(min_value=0.02, max_value=0.98),
    second=st.floats(min_value=0.02, max_value=0.98),
    **pair_cavities,
)
def test_asymmetric_pair_keeps_one_group_and_the_whole_map_spectrum(
    first, second, length, coupling, cycle_time, n
):
    # mode 1 couples with sin(k_1 x) > 0 at both detectors, equal only when
    # x2 = x1 or x2 = L - x1
    assume(abs(first - second) > 1e-3 and abs(first + second - 1.0) > 1e-3)
    cav = cavity.standard_config(
        n,
        length=length,
        x1=first * length,
        x2=second * length,
        coupling=coupling,
        cycle_time=cycle_time,
    )
    coupled = protocol.blocks_for(cav).coupled_map
    assert len(coupled.groups) == 1
    parent = float(np.abs(np.linalg.eigvals(coupled.d)).max())
    assert spectral.field_spectrum(coupled).max_modulus == parent


# ---------------------------------------------------------------------------
# the grouped cycle engine against the whole-matrix oracles


group_sizes = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)


def random_groups(sizes, rng):
    """Groups of the given sizes over shuffled modes, each in ascending order."""
    order = rng.permutation(sum(sizes))
    bounds = np.cumsum([0, *sizes])
    return tuple(tuple(sorted(int(m) for m in order[a:b])) for a, b in zip(bounds, bounds[1:]))


def block_diagonal_map(groups, rng):
    """A random map block diagonal on groups, with q = c c^T per group."""
    n = sum(len(group) for group in groups)
    d, q = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n))
    for group in groups:
        block = np.ix_(rows_of(group), rows_of(group))
        d[block] = rng.normal(scale=0.5, size=(2 * len(group),) * 2)
        c = rng.normal(scale=0.5, size=(2 * len(group), 2))
        q[block] = c @ c.T
    return protocol.AffineMap(d, q, 1, groups)


def block_diagonal_state(groups, rng):
    """A random physical state block diagonal on groups."""
    n = sum(len(group) for group in groups)
    sigma = np.zeros((2 * n, 2 * n))
    for group in groups:
        sigma[np.ix_(rows_of(group), rows_of(group))] = random_covariance(len(group), rng)[0]
    return sigma


def correlate(sigma, first, second, rng):
    """sigma with the modes of two groups replaced by one random joint state."""
    joint = sorted(first + second)
    sigma = sigma.copy()
    sigma[np.ix_(rows_of(joint), rows_of(joint))] = random_covariance(len(joint), rng)[0]
    return sigma


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@PROPERTY
@given(sizes=group_sizes, seed=seeds)
def test_grouped_update_and_composition_match_the_whole_matrices(sizes, seed):
    rng = np.random.default_rng(seed)
    groups = random_groups(sizes, rng)
    first, after = block_diagonal_map(groups, rng), block_diagonal_map(groups, rng)
    sigma = block_diagonal_state(groups, rng)
    step, _ = first._state(sigma)
    assert step is first  # a block-diagonal start keeps the map's groups
    assert relative_gap(first.apply(sigma), whole_update(first.d, first.q, sigma)) <= 1e-12
    both = first.then(after)
    d, q = whole_composition(first, after)
    assert relative_gap(both.d, d) <= 1e-12
    assert relative_gap(both.q, q) <= 1e-12
    assert relative_gap(both.apply(sigma), whole_update(d, q, sigma)) <= 1e-12


@PROPERTY
@given(sizes=group_sizes, seed=seeds)
def test_a_start_that_correlates_two_groups_merges_them(sizes, seed):
    # into one group: such a state runs on the whole matrices
    assume(len(sizes) >= 2)
    rng = np.random.default_rng(seed)
    groups = random_groups(sizes, rng)
    step = block_diagonal_map(groups, rng)
    sigma = correlate(block_diagonal_state(groups, rng), groups[0], groups[1], rng)
    merged, _ = step._state(sigma)
    assert merged.partition.whole
    assert relative_gap(step.apply(sigma), whole_update(step.d, step.q, sigma)) <= 1e-12
    # full_cycle too, with a random detector readout and no injected noise
    rows = sigma.shape[0]
    blocks = protocol.CycleBlocks(
        a=np.eye(4), b=rng.normal(size=(4, rows)), c=np.zeros((rows, 4)), d=step.d,
        sectors=groups, decoupled=(),
    )
    sigma_d, sigma_f = protocol.full_cycle(sigma, blocks)
    assert relative_gap(sigma_f, whole_update(step.d, np.zeros((rows, rows)), sigma)) <= 1e-12
    assert relative_gap(sigma_d, whole_update(blocks.b, np.eye(4), sigma)) <= 1e-12


@PROPERTY
@given(n_modes=st.integers(min_value=2, max_value=9), seed=seeds)
def test_run_cycles_from_a_start_that_correlates_two_groups_is_the_whole_matrix_run(
    n_modes, seed
):
    # the cavity's own map: parity sectors and nodal modes as groups
    rng = np.random.default_rng(seed)
    cfg = cavity.standard_config(n_modes)
    blocks = protocol.blocks_for(cfg)
    groups = blocks.field_map.groups
    assume(len(groups) >= 2)
    first, second = rng.choice(len(groups), size=2, replace=False)
    sigma0 = correlate(block_diagonal_state(groups, rng), groups[first], groups[second], rng)
    observables = dict(protocol.DIAGNOSTICS, whole=lambda s: s.partition.whole)
    traj = protocol.run_cycles(cfg, sigma_f0=sigma0, n_cycles=3, observables=observables)
    for record, want in zip(traj.records, whole_matrix_run(cfg, sigma0, 3)):
        assert record.values.pop("whole")
        assert record.values == pytest.approx(want, rel=1e-12, abs=0)
    sigma = sigma0
    for _ in range(3):
        sigma = whole_update(blocks.d, blocks.field_map.q, sigma)
    assert relative_gap(traj.final_field_sigma, sigma) <= 1e-12


@PROPERTY
@given(sizes=group_sizes, seed=seeds)
def test_grouped_analysis_matches_the_whole_matrix_analysis(sizes, seed):
    rng = np.random.default_rng(seed)
    groups = random_groups(sizes, rng)
    sigma = block_diagonal_state(groups, rng)
    log_det, nus = whole_analysis(sigma)
    state = grouped_analysis(sigma, groups)
    assert state.log_det == pytest.approx(log_det, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(state.physical_spectrum, nus, rtol=1e-12, atol=0)


@PROPERTY
@given(s=st.floats(min_value=1.05, max_value=2.0), k=st.integers(min_value=1, max_value=2**16))
def test_power_map_completes_k_or_a_composition_under_the_cap(s, k):
    # d = s I and q = C C^T = I grow past the cap for most k; either way
    # every map handed out, and every k_reached, is under it
    blocks = protocol.CycleBlocks(
        a=np.eye(4), b=np.zeros((4, 4)), c=np.eye(4), d=s * np.eye(4),
        sectors=((0, 1),), decoupled=(),
    )

    def under_the_cap(power, k):
        assert power.k == k
        assert max(np.abs(power.d).max(), np.abs(power.q).max()) <= protocol.GROWTH_CAP

    try:
        under_the_cap(spectral.power_map(blocks, k), k)
    except spectral.GrowthOverflowError as exc:
        assert 0 <= exc.k_reached < k
        if exc.k_reached >= 1:
            under_the_cap(spectral.power_map(blocks, exc.k_reached), exc.k_reached)


def setdiff_coupled_modes(n_modes: int, decoupled) -> np.ndarray:
    """CycleBlocks._coupled_modes as np.setdiff1d gives it: the oracle for its mask."""
    return np.setdiff1d(np.arange(n_modes), decoupled)


def setdiff_whole_field(coupled_modes, coupled: np.ndarray, frozen: np.ndarray) -> np.ndarray:
    """CycleBlocks.whole_field with the decoupled rows taken by np.setdiff1d."""
    sigma = frozen.copy()
    keep = gaussian._mode_rows(coupled_modes)
    dead = np.setdiff1d(np.arange(sigma.shape[0]), keep)
    sigma[np.ix_(keep, keep)] = coupled
    sigma[np.ix_(dead, keep)] = 0.0
    sigma[np.ix_(keep, dead)] = 0.0
    return sigma


@PROPERTY
@given(flags=st.lists(st.booleans(), min_size=1, max_size=8), seed=seeds)
@example(flags=[False] * 3, seed=0)  # no decoupled mode
@example(flags=[True] * 3, seed=0)  # no coupled mode
def test_coupled_index_sets_match_the_setdiff1d_oracle(flags, seed):
    # flags[m] marks mode m decoupled; the blocks' matrices are random, as
    # the index sets depend only on the shapes
    rng = np.random.default_rng(seed)
    n = len(flags)
    decoupled = tuple(m for m, flag in enumerate(flags) if flag)
    coupled_modes = setdiff_coupled_modes(n, decoupled)
    sector = tuple(coupled_modes.tolist())
    blocks = protocol.CycleBlocks(
        a=rng.normal(size=(4, 4)), b=rng.normal(size=(4, 2 * n)),
        c=rng.normal(size=(2 * n, 4)), d=rng.normal(size=(2 * n, 2 * n)),
        sectors=(sector,) if sector else (), decoupled=decoupled,
    )
    got = blocks._coupled_modes
    assert got.dtype.kind == "i"
    assert np.all(np.diff(got) > 0)
    np.testing.assert_array_equal(got, coupled_modes)

    coupled = rng.normal(size=(2 * len(sector),) * 2)
    frozen = rng.normal(size=(2 * n, 2 * n))
    np.testing.assert_array_equal(
        blocks.whole_field(coupled, frozen), setdiff_whole_field(coupled_modes, coupled, frozen)
    )
    if sector:
        rows = np.ix_(gaussian._mode_rows(coupled_modes), gaussian._mode_rows(coupled_modes))
        restricted = blocks.coupled_map
        np.testing.assert_array_equal(restricted.d, blocks.d[rows])
        np.testing.assert_array_equal(restricted.q, (blocks.c @ blocks.c.T)[rows])
        assert restricted.groups == (tuple(range(len(sector))),)


# ---------------------------------------------------------------------------
# entropy flow through a cycle


@PROPERTY
@given(
    n=st.integers(min_value=1, max_value=8),
    x1=st.floats(min_value=0.1, max_value=7.9),  # in the cavity of length 8
    x2=st.floats(min_value=0.1, max_value=7.9),
    coupling=st.floats(min_value=0.0, max_value=0.2),
    cycle_time=st.floats(min_value=0.5, max_value=30.0),
    temperature=st.sampled_from((0.0, 0.3, 1.0)),
)
@example(n=8, x1=1.0, x2=2.0, coupling=0.0, cycle_time=28.4, temperature=0.3)
def test_detector_field_mutual_information_is_nonnegative(
    n, x1, x2, coupling, cycle_time, temperature
):
    # a cycle is a unitary on (vacuum pair, f_(k-1)), so S(d_k f_k) =
    # S(f_(k-1)), and Araki-Lieb gives I(d_k : f_k) = S(d_k) + S(f_k) -
    # S(f_(k-1)) >= 0.  The rounding bound is set by coupling 0, where I = 0
    # exactly: the propagator's 1e-13 symplectic drift shrinks the nearly
    # pure modes of a thermal start, and their entropy falls by up to 2.0e-12
    # a cycle over 3000 random draws (1.75e-12 in the example).  Every
    # positive coupling drawn read I >= 1.4e-9.
    cav = cavity.standard_config(n, x1=x1, x2=x2, coupling=coupling, cycle_time=cycle_time)
    start = None
    if temperature:
        start = gaussian.thermal_state(cavity.mode_frequencies(cav), temperature)

    def mutual_information(s):
        field_in = gaussian.StateAnalysis.of_blocks(s.partition, s.field_in_blocks)
        return (
            gaussian.von_neumann_entropy(s.detector_out)
            + s.field_analysis.entropy
            - field_in.entropy
        )

    traj = protocol.run_cycles(cav, start, 5, observables={"mi": mutual_information})
    assert min(record.values["mi"] for record in traj.records) >= -5e-12


@PROPERTY
@given(
    n=st.integers(min_value=1, max_value=8),
    x1=st.floats(min_value=0.1, max_value=7.9),  # in the cavity of length 8
    x2=st.one_of(st.none(), st.floats(min_value=0.1, max_value=7.9)),  # None: mirror, 8 - x1
    coupling=st.floats(min_value=0.0, max_value=0.2),
    cycle_time=st.floats(min_value=0.5, max_value=30.0),
)
@example(n=8, x1=5.93547743214562, x2=None, coupling=1.0463895001987278e-06,
         cycle_time=21.62278143743172)
def test_field_entropy_from_the_vacuum_is_that_of_the_discarded_pairs(
    n, x1, x2, coupling, cycle_time
):
    # the global state stays pure, so S(f_k) = S(d_1 ... d_k).  The gap does
    # not scale with the entropy: over 12000 random draws of these ranges it
    # was at most 4.96e-11 a cycle (the example, at cycle 1), at coupling 0
    # too, where both sides must vanish, and it is the propagator's rounding
    # (symplectic drift of order 1e-13).  A relative bound cannot hold at weak
    # coupling, where S(d_1 ... d_k) falls as the coupling squared: the
    # example's field entropy is twice that of its pair.
    x2 = 8.0 - x1 if x2 is None else x2
    cav = cavity.standard_config(n, x1=x1, x2=x2, coupling=coupling, cycle_time=cycle_time)
    pairs = detector_pairs_covariance(protocol.blocks_for(cav), gaussian.vacuum_state(n), 5)
    traj = protocol.run_cycles(
        cav, None, 5, observables={"entropy": lambda s: s.field_analysis.entropy}
    )
    for k, record in enumerate(traj.records, start=1):
        s_pairs = gaussian.von_neumann_entropy(pairs[: 4 * k, : 4 * k])
        assert abs(record.values["entropy"] - s_pairs) <= 1e-10 * k, k
