"""Tests for the cavity / detector model construction."""

import math

import numpy as np
import pytest

from entfarm import cavity, config


def test_mode_frequencies_fundamental():
    cfg = cavity.standard_config(4)
    freqs = cavity.mode_frequencies(cfg)
    assert freqs[0] == pytest.approx(math.pi / 8.0)
    # massless dispersion: even spacing pi/L
    assert np.allclose(np.diff(freqs), math.pi / cfg.length)


def test_mode_frequencies_arithmetic():
    cfg = cavity.CavityConfig(length=math.pi, mode_numbers=(1, 2, 3))
    assert np.allclose(cavity.mode_frequencies(cfg), [1.0, 2.0, 3.0])


def test_default_geometry():
    cfg = cavity.standard_config(2)
    assert cfg.x1 == pytest.approx(cfg.length / 3.0)
    assert cfg.x2 == pytest.approx(2.0 * cfg.length / 3.0)
    assert cfg.detector_frequency == pytest.approx(cavity.mode_frequencies(cfg)[0])


def test_config_validation():
    with pytest.raises(ValueError):
        cavity.CavityConfig(length=-1.0)
    with pytest.raises(ValueError):
        cavity.CavityConfig(x1=9.0)  # outside the default L = 8 cavity
    with pytest.raises(ValueError):
        cavity.CavityConfig(mode_numbers=(2, 1))
    with pytest.raises(ValueError):
        cavity.CavityConfig(mode_numbers=(0, 1))
    with pytest.raises(ValueError):
        cavity.CavityConfig(cycle_time=0.0)
    for name in ("length", "coupling", "detector_frequency", "x1", "x2", "cycle_time"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                cavity.CavityConfig(**{name: value})


def test_coupling_matrix_entries():
    cfg = cavity.standard_config(3)
    x = cavity.coupling_matrix(cfg)
    assert x.shape == (4, 6)
    # detector 1 at L/3: first mode amplitude sin(pi/3)/sqrt(pi)
    assert x[0, 0] == pytest.approx(math.sin(math.pi / 3.0) / math.sqrt(math.pi))
    # every third mode has nodes at both detectors
    assert x[0, 4] == pytest.approx(0.0, abs=1e-15)
    assert x[2, 4] == pytest.approx(0.0, abs=1e-15)
    # p rows and p columns stay empty
    assert np.all(x[1] == 0) and np.all(x[3] == 0)
    assert np.all(x[:, 1::2] == 0)


def test_coupling_matrix_node_at_midpoint():
    cfg = cavity.CavityConfig(x1=4.0, x2=6.0, mode_numbers=(1, 2))
    x = cavity.coupling_matrix(cfg)
    # x1 = L/2 sits on the node of mode 2
    assert x[0, 2] == pytest.approx(0.0, abs=1e-15)


def test_coupling_amplitude_envelope():
    cfg = cavity.standard_config(64, x1=1.13, x2=6.21)
    x = cavity.coupling_matrix(cfg)
    for j, n in enumerate(cfg.mode_numbers):
        assert abs(x[0, 2 * j]) <= 1.0 / math.sqrt(math.pi * n) + 1e-15


def test_hamiltonian_matrix_hand_computed():
    # single field mode, L = pi so omega_1 = 1
    cfg = cavity.CavityConfig(
        length=math.pi,
        coupling=0.05,
        detector_frequency=0.7,
        x1=1.0,
        x2=2.0,
        cycle_time=1.0,
        mode_numbers=(1,),
    )
    f = cavity.hamiltonian_matrix(cfg)
    expected = np.diag([0.7, 0.7, 0.7, 0.7, 1.0, 1.0])
    g1 = 2.0 * 0.05 * math.sin(1.0) / math.sqrt(math.pi)
    g2 = 2.0 * 0.05 * math.sin(2.0) / math.sqrt(math.pi)
    expected[0, 4] = expected[4, 0] = g1
    expected[2, 4] = expected[4, 2] = g2
    assert np.allclose(f, expected, atol=1e-15)


def test_hamiltonian_matrix_structure():
    cfg = cavity.standard_config(8, x1=1.37, x2=5.11)
    f = cavity.hamiltonian_matrix(cfg)
    assert np.array_equal(f, f.T)
    assert np.allclose(np.diag(f), np.repeat(cavity.joint_frequencies(cfg), 2))
    # exactly 4M coupling entries for generic positions: 2 detectors x M modes,
    # mirrored across the diagonal
    off = f - np.diag(np.diag(f))
    assert np.count_nonzero(off) == 4 * cfg.n_field_modes


def test_hamiltonian_matrix_uncoupled():
    cfg = cavity.standard_config(5, coupling=0.0)
    f = cavity.hamiltonian_matrix(cfg)
    assert np.allclose(f, np.diag(np.repeat(cavity.joint_frequencies(cfg), 2)))


def test_decoupled_modes_at_thirds():
    # modes 3, 6, 9 and 12
    cfg = cavity.standard_config(12)
    assert cavity.decoupled_positions(cfg) == [2, 5, 8, 11]


def test_decoupled_modes_generic_positions_none():
    cfg = cavity.standard_config(30, x1=1.234567, x2=5.654321)
    assert cavity.decoupled_positions(cfg) == []


def test_decoupled_modes_midpoint():
    # modes 2, 4, 6 and 8
    cfg = cavity.CavityConfig(x1=4.0, x2=4.0, mode_numbers=tuple(range(1, 9)))
    assert cavity.decoupled_positions(cfg) == [1, 3, 5, 7]


def test_decoupled_positions_index_the_retained_modes():
    # a window that skips modes: positions count retained modes, not n - 1
    cfg = cavity.CavityConfig(mode_numbers=(1, 3, 4, 6, 8, 9))
    assert cavity.decoupled_positions(cfg) == [1, 3, 5]


@pytest.mark.parametrize("modes, sizes", [(4, [1, 2]), (8, [3, 3]), (128, [43, 43])])
def test_parity_sectors_of_the_default_placement(modes, sizes):
    # at L/3 and 2L/3, sin(2 n pi / 3) = (-1)^(n+1) sin(n pi / 3): odd n
    # couple to q_d1 + q_d2, even n to q_d1 - q_d2, and 3 | n is nodal
    sectors = cavity.parity_sectors(cavity.standard_config(modes))
    n = np.arange(1, modes + 1)
    coupled = n % 3 != 0
    assert sectors == [
        tuple(np.flatnonzero(coupled & (n % 2 == 1)).tolist()),
        tuple(np.flatnonzero(coupled & (n % 2 == 0)).tolist()),
    ]
    assert [len(s) for s in sectors] == sizes
    if modes == 4:
        assert sectors == [(0,), (1, 3)]


def test_parity_sectors_of_the_default_window():
    # --window default keeps modes 1-5: 1 and 5 are "+", 2 and 4 "-", 3 nodal
    cfg = config.ExperimentConfig(window="default").cavity_config()
    assert cfg.mode_numbers == (1, 2, 3, 4, 5)
    assert cavity.parity_sectors(cfg) == [(0, 4), (1, 3)]


def test_parity_sectors_of_odd_modes_only_are_one_group():
    # every mode is "+": one group, the nodal mode 3 left out
    cfg = cavity.CavityConfig(mode_numbers=(1, 3, 5, 7))
    assert cavity.parity_sectors(cfg) == [(0, 2, 3)]


def test_parity_sectors_of_an_asymmetric_pair_are_one_group():
    cfg = cavity.standard_config(12, x1=1.234567, x2=5.654321)
    assert cavity.parity_sectors(cfg) == [tuple(range(12))]
    # an asymmetric pair with nodal modes (both at multiples of L/4 leaves
    # 4 | n nodal) keeps every other mode in its one group
    quarters = cavity.standard_config(8, x1=2.0, x2=4.0)
    assert cavity.decoupled_positions(quarters) == [3, 7]
    assert cavity.parity_sectors(quarters) == [(0, 1, 2, 4, 5, 6)]


def test_parity_sectors_of_nodal_modes_only_are_empty():
    assert cavity.parity_sectors(cavity.CavityConfig(mode_numbers=(3, 6))) == []


def test_resonant_window_defaults_to_first_five():
    cfg = cavity.standard_config(64)
    win = cavity.resonant_window(cfg)
    assert win.mode_numbers == (1, 2, 3, 4, 5)
    assert win.coupling == cfg.coupling


def test_resonant_window_explicit_width():
    cfg = cavity.standard_config(64)
    win = cavity.resonant_window(cfg, width=3.5 * math.pi / 8.0)
    # |omega_n - Omega| = |n - 1| pi/8 < 3.5 pi/8  ->  n in 1..4
    assert win.mode_numbers == (1, 2, 3, 4)
    off_resonance = cavity.standard_config(4, detector_frequency=0.5)
    with pytest.raises(ValueError):
        cavity.resonant_window(off_resonance, width=1e-6)


def test_resonant_window_rejects_nodal_modes_only():
    # at 3 pi / 8 a width of 0.1 keeps mode 3 alone, a node at both detectors
    cfg = cavity.standard_config(8, detector_frequency=3.0 * math.pi / 8.0)
    with pytest.raises(ValueError, match=r"keeps only modes \[3\], which have a node"):
        cavity.resonant_window(cfg, width=0.1)
    assert cavity.resonant_window(cfg, width=0.5).mode_numbers == (2, 3, 4)
    # a config built directly may still hold nodal modes only
    assert cavity.decoupled_positions(cavity.CavityConfig(mode_numbers=(3, 6))) == [0, 1]


def test_fingerprint_distinguishes_configs():
    a = cavity.standard_config(4)
    b = cavity.standard_config(4, coupling=0.02)
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == cavity.standard_config(4).fingerprint()


def test_fingerprint_is_pinned():
    # a cache or record keyed by the fingerprint survives a refactor only if
    # the hash of the reference setup stays put
    assert cavity.standard_config(4).fingerprint() == "97b3edef279b5951"
