"""Tests for symplectic propagation.

The matrix-exponential path is cross-checked against an analytic rotation,
a fixed-step RK4 integration of the equation of motion, and conservation
laws that hold exactly for the continuous dynamics.  It must equal
scipy.linalg.expm bit for bit, whichever of its two routes is taken.
"""

import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from entfarm import cavity, cli, dynamics, gaussian
from conftest import evolve, random_covariance, symplectic_form, total_energy

RNG = np.random.default_rng(97)


def small_config(**overrides):
    return cavity.standard_config(4, **overrides)


def test_zero_time_is_identity():
    f = cavity.hamiltonian_matrix(small_config())
    prop = dynamics.propagator(f, 0.0)
    assert np.array_equal(prop, np.eye(f.shape[0]))


def test_free_single_mode_is_rotation():
    omega, t = 0.9, 2.7
    f = np.diag([omega, omega])
    prop = dynamics.propagator(f, t)
    c, s = math.cos(omega * t), math.sin(omega * t)
    assert np.allclose(prop, [[c, s], [-s, c]], atol=1e-12)


def test_propagator_is_symplectic_and_unimodular():
    cfg = small_config()
    prop = dynamics.propagator_for(cfg)
    assert gaussian.check_symplectic(prop) < 1e-9
    assert np.linalg.det(prop) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("modes", [4, 64, 128])
def test_propagator_matches_dense_generator(modes):
    # Omega F_sym by row swaps hands expm the same matrix as the dense product,
    # and the kernel-driven exponential is scipy.linalg.expm bit for bit, at
    # the configured cycle time and at each of eigtime's 33
    cfg = cavity.standard_config(modes)
    f = cavity.hamiltonian_matrix(cfg)
    generator = symplectic_form(modes + 2) @ f
    eigtime = cli._SWEEP_FIGURES["eigtime"][0].grid().tolist()
    for t in [cfg.cycle_time, *eigtime]:
        assert np.array_equal(dynamics.propagator(f, t), expm(generator * t)), t


def random_generator(n_modes: int, shape: str, seed: int) -> np.ndarray:
    """A random symmetric F_sym whose Omega F_sym is dense, diagonal, upper or lower triangular.

    Omega F_sym is diagonal for F_sym = [[0, c], [c, 0]] per mode, and upper
    (lower) triangular when the p-p (q-q) entry is added to that; each mode
    is its own block then, as no coupling between modes keeps it triangular.
    """
    rng = np.random.default_rng(seed)
    if shape == "dense":
        f = rng.normal(size=(2 * n_modes, 2 * n_modes)) / math.sqrt(2 * n_modes)
        return f + f.T
    f = np.zeros((2 * n_modes, 2 * n_modes))
    q = np.arange(0, 2 * n_modes, 2)
    f[q, q + 1] = f[q + 1, q] = rng.normal(size=n_modes)
    if shape != "diagonal":
        diag = q + 1 if shape == "upper" else q
        f[diag, diag] = rng.normal(size=n_modes)
    return f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n_modes=st.integers(min_value=1, max_value=20),
    shape=st.sampled_from(["dense", "diagonal", "upper", "lower"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=12.0)),
)
def test_exponential_is_scipy_expm_bit_for_bit(n_modes, shape, seed, t):
    generator = gaussian.apply_symplectic_form(random_generator(n_modes, shape, seed)) * t
    lower, upper = np.tril(generator, -1).any(), np.triu(generator, 1).any()
    assert (lower, upper) == {
        "dense": (t > 0, t > 0), "diagonal": (False, False),
        "upper": (False, t > 0), "lower": (t > 0, False),
    }[shape]
    assert np.array_equal(dynamics._expm(generator), expm(generator))


def test_installed_scipy_takes_the_kernel_path():
    # a silent fall back to scipy.linalg.expm would cost every command the
    # import of scipy.linalg
    assert isinstance(dynamics._expm, functools.partial)
    assert dynamics._expm.func is dynamics._kernel_expm
    assert dynamics._expm.args[0].__name__ == dynamics._EXPM_KERNEL


def test_without_the_kernel_file_the_propagator_is_scipy_expm(monkeypatch, tmp_path):
    cfg = cavity.standard_config(16)
    f = cavity.hamiltonian_matrix(cfg)
    want = dynamics.propagator(f, cfg.cycle_time)
    fallback = dynamics._load_expm(str(tmp_path))  # a scipy directory with no kernel
    assert fallback is expm
    monkeypatch.setattr(dynamics, "_expm", fallback)
    assert np.array_equal(dynamics.propagator(f, cfg.cycle_time), want)


@pytest.mark.parametrize(
    "kernel_expm",
    [
        lambda kernel, a: kernel.pade_UV_calc(a, 2, 3),  # an older release's signature
        lambda kernel, a: np.eye(len(a)),  # a kernel that runs but is wrong
    ],
    ids=["signature", "probe"],
)
def test_a_kernel_failing_its_probe_falls_back_to_scipy_expm(monkeypatch, kernel_expm):
    monkeypatch.setattr(dynamics, "_kernel_expm", kernel_expm)
    assert dynamics._load_expm(dynamics._SCIPY_DIR) is expm


@pytest.mark.parametrize("modes", [4, 8])
@pytest.mark.parametrize("cycle_time", [20.0, 21.0])
def test_propagator_matches_high_precision_expm(modes, cycle_time):
    # the float generator is taken as exact; its exponential at 40 digits is
    # the reference.  Measured: 3.2e-13 and 5.3e-13 at 4 modes, 6.4e-13 and
    # 1.06e-12 at 8 modes.  A normal-mode propagator (ROADMAP item 2) should
    # tighten this bound.
    cfg = cavity.standard_config(modes, cycle_time=cycle_time)
    a = gaussian.apply_symplectic_form(cavity.hamiltonian_matrix(cfg)) * cycle_time
    with mpmath.workdps(40):
        want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
    err = np.max(np.abs(dynamics.propagator_for(cfg) - want)) / np.max(np.abs(want))
    assert err < 5e-12


def exact_powers(a: np.ndarray, count: int, bits: int = 100) -> list[np.ndarray]:
    """exp(a)^k for k = 1, ..., count, with the float matrix a taken as exact.

    exp(a) is mpmath's at 30 digits, rounded to a fixed point of 2^-bits;
    its powers are then exact integer products, each rounded down to the
    same fixed point, so every power is good to about 30 digits.
    """
    with mpmath.workdps(30):
        e = mpmath.expm(mpmath.matrix(a.tolist()))
        step = np.array(
            [[int(mpmath.nint(mpmath.ldexp(e[i, j], bits))) for j in range(e.cols)]
             for i in range(e.rows)],
            dtype=object,
        )
    powers, p = [], step
    for _ in range(count):
        powers.append(np.ldexp(p.astype(float), -bits))
        p = p.dot(step) >> bits
    return powers


@pytest.mark.parametrize("modes, bound", [(4, 2e-14), (8, 4e-13)])
def test_stepped_propagators_match_high_precision_powers(modes, bound):
    # eigtime's grid, t = 1, ..., 33: each point is propagator_from the one
    # before, so S(k) is S(1)^k.  Measured max |S - truth|: 4.8e-15 at 4 modes
    # and 8.4e-14 at 8, bounded with 4x headroom; an expm at each time is off
    # by 5.3e-13 and 1.1e-12, so stepping is the closer of the two
    grid = cli._SWEEP_FIGURES["eigtime"][0].grid().tolist()
    configs = [cavity.standard_config(modes, cycle_time=t) for t in grid]
    f_sym = cavity.hamiltonian_matrix(configs[0])
    want = exact_powers(gaussian.apply_symplectic_form(f_sym), len(configs))
    previous, stepped, direct = None, [], []
    for cfg, truth in zip(configs, want):
        previous = cfg, dynamics.propagator_from(previous, cfg)
        stepped.append(np.max(np.abs(previous[1] - truth)))
        direct.append(np.max(np.abs(dynamics.propagator(f_sym, cfg.cycle_time) - truth)))
    assert max(stepped) < bound
    assert max(stepped) < max(direct)


def test_propagator_from_steps_only_a_longer_cycle_time():
    # a product is built only from a config that differs in a shorter cycle
    # time; anything else is propagator_for's own read-only matrix
    base = small_config(cycle_time=3.0)
    s_base = dynamics.propagator_for(base)
    later = small_config(cycle_time=5.0)
    stepped = dynamics.propagator_from((base, s_base), later)
    assert not stepped.flags.writeable
    assert np.array_equal(stepped, s_base @ dynamics.propagator_for(small_config(cycle_time=2.0)))
    for previous, config in [
        (None, later),
        ((later, stepped), base),  # a shorter cycle time
        ((base, s_base), base),  # the same config
        ((base, s_base), small_config(cycle_time=5.0, coupling=0.02)),
        ((base, s_base), cavity.standard_config(5, cycle_time=5.0)),
    ]:
        assert dynamics.propagator_from(previous, config) is dynamics.propagator_for(config)


def test_propagator_composes():
    f = cavity.hamiltonian_matrix(small_config())
    s1 = dynamics.propagator(f, 7.0)
    s2 = dynamics.propagator(f, 13.0)
    s12 = dynamics.propagator(f, 20.0)
    assert np.max(np.abs(s2 @ s1 - s12)) < 1e-9


def test_propagator_input_validation():
    with pytest.raises(ValueError):
        dynamics.propagator(np.ones((3, 3)), 1.0)
    f = np.zeros((2, 2))
    f[0, 1] = 1.0
    with pytest.raises(ValueError):
        dynamics.propagator(f, 1.0)
    with pytest.raises(ValueError):
        dynamics.propagator(np.eye(2), -1.0)
    f_sym = cavity.hamiltonian_matrix(cavity.standard_config(2))
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            dynamics.propagator(f_sym, t)
    nan_f = f_sym.copy()
    nan_f[0, 0] = math.nan
    with pytest.raises(ValueError, match="finite"):
        dynamics.propagator(nan_f, 1.0)
    # the exponential overflows; a NaN symplectic drift must not pass the check
    with pytest.raises(dynamics.PropagatorAccuracyError):
        dynamics.propagator(f_sym, 1e200)


def test_propagator_cache_reuses_instance():
    a = dynamics.propagator_for(small_config())
    b = dynamics.propagator_for(small_config())
    assert a is b


@pytest.mark.parametrize("coupling", [0.1, 0.25, 0.27, 0.28, 0.3])
@pytest.mark.parametrize(
    "modes, placement",
    [
        pytest.param(modes, placement, id=f"{modes}-{placement}".removesuffix("-thirds"))
        for placement in ("thirds", "asymmetric", "window")
        for modes in (4, 8, 128)
    ],
)
def test_propagator_for_rejects_a_hamiltonian_unbounded_below(modes, placement, coupling):
    # the 4 x 4 Schur-complement test has the verdict of F_sym's own spectrum,
    # also for a pair placed off the mirror symmetry and for a resonant window
    # of the odd modes (1, 3, 5, ...: mode numbers that are not contiguous)
    cfg = cavity.standard_config(modes, coupling=coupling)
    if placement == "asymmetric":
        cfg = replace(cfg, x1=1.37, x2=5.11)
    elif placement == "window":
        odd = replace(cfg, mode_numbers=cfg.mode_numbers[::2])
        cfg = cavity.resonant_window(odd, width=modes * math.pi / 16)
    if np.linalg.eigvalsh(cavity.hamiltonian_matrix(cfg))[0] > 0.0:
        dynamics.propagator_for(cfg)
    else:
        with pytest.raises(dynamics.UnboundedHamiltonianError, match=f"coupling {coupling!r}"):
            dynamics.propagator_for(cfg)


def test_propagator_for_is_a_read_only_matrix():
    s = dynamics.propagator_for(small_config())
    assert isinstance(s, np.ndarray)
    with pytest.raises(ValueError):
        s[0, 0] = 0.0
    assert dynamics.propagator_for(small_config()) is s


# thread count of every OpenBLAS loaded once entfarm.dynamics is imported
BLAS_THREADS_SCRIPT = """
import ctypes, json
import entfarm.dynamics
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
threads = {}
for path in libs:
    lib = ctypes.CDLL(path)
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        get = getattr(lib, symbol, None)
        if get is not None:
            get.restype = ctypes.c_int
            threads[path] = get()
            break
print(json.dumps(threads))
"""


def test_scipy_bundled_blas_runs_single_threaded():
    if not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("reads /proc/self/maps; needs two cores for a two-thread OpenBLAS")
    src = Path(dynamics.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    threads = json.loads(out)
    if len(threads) < 2:
        pytest.skip("numpy and scipy share one BLAS")
    scipy_libs = Path(scipy.__file__).resolve().parents[1] / "scipy.libs"
    bundled = {path: n for path, n in threads.items() if Path(path).parent == scipy_libs}
    others = {path: n for path, n in threads.items() if path not in bundled}
    assert bundled and others
    assert set(bundled.values()) == {1}
    assert set(others.values()) == {2}


# OS threads after `import numpy` and after `import entfarm.dynamics`, and
# OPENBLAS_NUM_THREADS before and after the second import
BLAS_START_SCRIPT = """
import json, os
import numpy
before = (len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
import entfarm.dynamics
after = (len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
print(json.dumps([before, after]))
"""


def _blas_start(user_threads):
    src = Path(dynamics.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if user_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = user_threads
    out = subprocess.run(
        [sys.executable, "-c", BLAS_START_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return json.loads(out)


def test_scipy_bundled_blas_starts_no_worker_thread():
    if not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("reads /proc/self/task; needs two cores for a two-thread OpenBLAS")
    scipy_libs = Path(scipy.__file__).resolve().parents[1] / "scipy.libs"
    if not list(scipy_libs.glob("*openblas*.so*")):
        pytest.skip("numpy and scipy share one BLAS")
    (threads_before, _), (threads_after, _) = _blas_start("2")
    assert threads_after <= threads_before


@pytest.mark.parametrize("user_threads", ["2", None])
def test_loading_scipy_blas_leaves_the_thread_variable_as_it_was(user_threads):
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/task")
    (_, env_before), (_, env_after) = _blas_start(user_threads)
    assert env_before == env_after == user_threads


@pytest.mark.parametrize("user_threads", ["2", None])
def test_a_failed_blas_load_restores_the_environment(tmp_path, monkeypatch, user_threads):
    if user_threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_threads)
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy.libs").mkdir()
    (tmp_path / "scipy.libs" / "libscipy_openblas-x.so").write_bytes(b"")
    before = dict(os.environ)
    with pytest.raises(OSError):
        dynamics._single_thread_scipy_blas(str(tmp_path / "scipy"))
    assert dict(os.environ) == before


def test_blas_thread_setting_is_a_no_op_without_a_bundled_copy(tmp_path):
    # a scipy built against a shared BLAS has no scipy.libs beside it; no error
    dynamics._single_thread_scipy_blas(str(tmp_path / "scipy"))


def _fresh_process(args, user_timeout, **env):
    """Run args in a fresh Python process from src/, OPENBLAS_THREAD_TIMEOUT as given."""
    src = Path(dynamics.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), **env)
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if user_timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = user_timeout
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout


# the idle timeout of each OpenBLAS outside scipy.libs that exports it, and
# OPENBLAS_THREAD_TIMEOUT, after `import entfarm`
BLAS_TIMEOUT_SCRIPT = """
import ctypes, json, os
import entfarm
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
timeouts = []
for path in libs:
    get = getattr(ctypes.CDLL(path), "openblas_thread_timeout", None)
    if get is not None and os.path.basename(os.path.dirname(path)) != "scipy.libs":
        get.restype = ctypes.c_int
        timeouts.append(get())
print(json.dumps([timeouts, os.environ.get("OPENBLAS_THREAD_TIMEOUT")]))
"""


@pytest.mark.parametrize("user_timeout, timeout", [(None, 4), ("20", 20)])
def test_numpy_blas_loads_with_the_shortest_idle_timeout_unless_the_user_set_one(
    user_timeout, timeout
):
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/maps")
    timeouts, env_after = json.loads(_fresh_process(["-c", BLAS_TIMEOUT_SCRIPT], user_timeout))
    if not timeouts:
        pytest.skip("numpy's BLAS exports no openblas_thread_timeout")
    assert timeouts == [timeout]
    assert env_after == user_timeout


# OPENBLAS_THREAD_TIMEOUT after an `import entfarm` whose numpy fails to load
FAILED_NUMPY_LOAD_SCRIPT = """
import json, os, sys
sys.modules["numpy"] = None  # `import numpy` raises ImportError
try:
    import entfarm
except ImportError:
    print(json.dumps(os.environ.get("OPENBLAS_THREAD_TIMEOUT")))
"""


@pytest.mark.parametrize("user_timeout", ["20", None])
def test_a_failed_numpy_load_restores_the_environment(user_timeout):
    out = _fresh_process(["-c", FAILED_NUMPY_LOAD_SCRIPT], user_timeout)
    assert json.loads(out) == user_timeout


# CPU clock ticks of every thread but the main one, 0.3 s after `import entfarm`
IDLE_WORKER_SCRIPT = """
import os, time
import entfarm
time.sleep(0.3)
ticks = 0
for tid in os.listdir("/proc/self/task"):
    if int(tid) != os.getpid():
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
print(ticks)
"""


def test_numpy_blas_worker_sleeps_while_idle():
    # at OpenBLAS's default timeout the worker spins for about 0.1 s after
    # the load, some 13 ticks of 10 ms on a 2-core host
    if not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("reads /proc/self/task; needs two cores for a two-thread OpenBLAS")
    out = _fresh_process(["-c", IDLE_WORKER_SCRIPT], None, OPENBLAS_NUM_THREADS="2")
    assert int(out) <= 2


@pytest.mark.parametrize("argv", [["run-cycles"], ["reproduce-fig", "eigtime"]])
def test_the_idle_timeout_moves_no_output_byte(tmp_path, argv):
    # 28 is OpenBLAS's own default, the timeout the commands ran at before
    written = {}
    for user_timeout in (None, "28"):
        out = tmp_path / str(user_timeout)
        _fresh_process(
            ["-m", "entfarm.cli", *argv, "--modes", "8", "--out", str(out)],
            user_timeout,
            OPENBLAS_NUM_THREADS="2",
        )
        written[user_timeout] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert written[None] and written[None] == written["28"]


def test_evolve_preserves_symplectic_spectrum():
    cfg = small_config()
    prop = dynamics.propagator_for(cfg)
    sigma, nus = random_covariance(cfg.n_field_modes + 2, RNG)
    evolved = evolve(sigma, prop)
    assert np.allclose(gaussian.symplectic_eigenvalues(evolved), nus, atol=1e-8)


def test_evolve_keeps_vacuum_fixed_without_coupling():
    cfg = small_config(coupling=0.0)
    prop = dynamics.propagator_for(cfg)
    vac = gaussian.vacuum_state(cfg.n_field_modes + 2)
    assert np.allclose(evolve(vac, prop), vac, atol=1e-12)


def test_evolve_dimension_mismatch():
    prop = dynamics.propagator_for(small_config())
    with pytest.raises(ValueError):
        evolve(np.eye(4), prop)


def test_total_energy_conserved_along_evolution():
    cfg = small_config()
    f = cavity.hamiltonian_matrix(cfg)
    sigma, _ = random_covariance(cfg.n_field_modes + 2, RNG)
    e0 = total_energy(sigma, f)
    for t in (1.0, 5.0, 20.0):
        evolved = evolve(sigma, dynamics.propagator(f, t))
        assert total_energy(evolved, f) == pytest.approx(e0, abs=1e-9)


def test_decoupled_mode_block_is_free_rotation():
    cfg = cavity.standard_config(6)  # modes 3 and 6 sit on nodes of both detectors
    prop = dynamics.propagator_for(cfg)
    for pos in cavity.decoupled_positions(cfg):
        n = cfg.mode_numbers[pos]
        omega = n * math.pi / cfg.length
        c, s = math.cos(omega * cfg.cycle_time), math.sin(omega * cfg.cycle_time)
        i = 4 + 2 * pos
        block = prop[i : i + 2, i : i + 2]
        assert np.allclose(block, [[c, s], [-s, c]], atol=1e-10)
        # and that mode's rows/columns carry no mixing with anything else
        row = prop[i : i + 2].copy()
        row[:, i : i + 2] = 0.0
        assert np.max(np.abs(row)) < 1e-10


def test_detector_correlations_grow_quadratically():
    cfg = small_config()
    f = cavity.hamiltonian_matrix(cfg)
    vac = gaussian.vacuum_state(cfg.n_field_modes + 2)
    times = np.geomspace(1e-3, 1e-2, 7)
    norms = []
    for t in times:
        evolved = evolve(vac, dynamics.propagator(f, t))
        norms.append(np.linalg.norm(evolved[0:2, 2:4]))
    slope = np.polyfit(np.log(times), np.log(norms), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


# ---------------------------------------------------------------------------
# integrator oracle


class StepTooLargeError(RuntimeError):
    """The integrator step left too much symplectic drift."""


def integrate_propagator(f_sym_of_t, t: float, step: float) -> np.ndarray:
    """Fixed-step RK4 integration of dS/dt = Omega F_sym(t) S from S(0) = I.

    f_sym_of_t maps a time to the (symmetric) Hamiltonian matrix, so
    time-dependent generators are supported.  Used as the independent check
    on the exponential path.  Symplectic drift beyond 1e-6 raises
    StepTooLargeError.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    f0 = np.asarray(f_sym_of_t(0.0), dtype=float)
    n = f0.shape[0] // 2
    omega = symplectic_form(n)
    s = np.eye(2 * n)
    n_steps = max(1, int(np.ceil(t / step)))
    h = t / n_steps
    for i in range(n_steps):
        t0 = i * h
        a1 = omega @ np.asarray(f_sym_of_t(t0), dtype=float)
        a2 = omega @ np.asarray(f_sym_of_t(t0 + h / 2.0), dtype=float)
        a4 = omega @ np.asarray(f_sym_of_t(t0 + h), dtype=float)
        k1 = a1 @ s
        k2 = a2 @ (s + h / 2.0 * k1)
        k3 = a2 @ (s + h / 2.0 * k2)
        k4 = a4 @ (s + h * k3)
        s = s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    drift = gaussian.check_symplectic(s)
    if drift > 1e-6:
        raise StepTooLargeError(
            f"integration drifted off the symplectic manifold by {drift:.3e}; "
            "reduce the step"
        )
    return s


def test_integrator_zero_time():
    f = cavity.hamiltonian_matrix(small_config())
    prop = integrate_propagator(lambda t: f, 0.0, 1e-2)
    assert np.allclose(prop, np.eye(f.shape[0]))


def test_integrator_matches_exponential_on_reference_config():
    cfg = cavity.standard_config(16)
    f = cavity.hamiltonian_matrix(cfg)
    exact = dynamics.propagator(f, cfg.cycle_time)
    integrated = integrate_propagator(lambda t: f, cfg.cycle_time, 1e-3)
    assert np.max(np.abs(integrated - exact)) < 1e-8


def test_integrator_fourth_order_convergence():
    f = cavity.hamiltonian_matrix(small_config())
    exact = dynamics.propagator(f, 2.0)
    err = []
    for step in (2e-2, 1e-2):
        s = integrate_propagator(lambda t: f, 2.0, step)
        err.append(np.max(np.abs(s - exact)))
    ratio = err[0] / err[1]
    assert 12.0 < ratio < 20.0


def test_integrator_flags_too_large_step():
    cfg = cavity.standard_config(8, coupling=0.3)
    f = cavity.hamiltonian_matrix(cfg)
    with pytest.raises(StepTooLargeError):
        integrate_propagator(lambda t: f, 50.0, 1.0)


def test_integrator_handles_time_dependence():
    # ramped frequency: compare against two-piece composition with
    # piecewise-constant generator approximated finely
    def f_of_t(t):
        w = 1.0 + 0.5 * t
        return np.diag([w, w])

    prop = integrate_propagator(f_of_t, 1.0, 1e-4)
    # analytic: phase = integral of w dt = 1.25
    phase = 1.25
    expected = [[math.cos(phase), math.sin(phase)], [-math.sin(phase), math.cos(phase)]]
    assert np.allclose(prop, expected, atol=1e-8)
