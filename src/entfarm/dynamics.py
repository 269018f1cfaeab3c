"""Symplectic time evolution generated by the quadratic Hamiltonian.

The equation of motion for the phase-space propagator is
dS/dt = Omega F_sym S, solved exactly by S(t) = exp(Omega F_sym t) for
time-independent couplings.  The propagator is returned as the matrix S
itself, marked read-only; a state evolves as S sigma S^T.

The exponential is scipy.linalg.expm's, bit for bit, without importing
scipy.linalg (about 0.25 s of each command's start-up): only scipy's compiled
kernel, _EXPM_KERNEL, is loaded and driven as scipy.linalg.expm drives a dense
matrix.  Diagonal and triangular exponentials, which no command builds, go to
scipy.linalg.expm itself.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
from functools import lru_cache, partial

import numpy as np

from entfarm import _environ_for_load, cavity, gaussian

_EXPM_KERNEL = "scipy.linalg._matfuncs_expm"  # the one compiled module loaded
_SCIPY_DIR = os.path.dirname(importlib.util.find_spec("scipy").origin)  # scipy not imported


def _single_thread_scipy_blas(scipy_dir: str) -> None:
    """Run scipy's wheel-bundled OpenBLAS, if it has its own, on one thread.

    numpy and scipy wheels each bundle an OpenBLAS with its own thread pool.
    expm's Pade stage (and gaussian.williamson_normal_form's Schur form) run
    in scipy's copy, every other product and factorization in numpy's; with
    both multi-threaded the idle workers of one spin against the busy
    workers of the other.  OpenBLAS reads OPENBLAS_NUM_THREADS once, when it
    loads, and starts its workers then, so the variable reads 1 for the load
    alone and is then restored (or removed), also if the load fails.  scipy's
    copy so starts no worker: at 2 threads a process keeps the 2 OS threads
    it has after `import numpy`, where a copy loaded at 2 threads added a
    third that spun through each command's start-up.  set_num_threads(1)
    covers a copy already loaded, e.g. by `import scipy.linalg`.  numpy's
    copy keeps the thread count the user set.  Without a bundled copy beside
    the scipy package (a shared system BLAS, MKL, a non-Linux wheel) this
    does nothing.
    """
    for path in glob.glob(os.path.join(scipy_dir, os.pardir, "scipy.libs", "*openblas*.so*")):
        with _environ_for_load("OPENBLAS_NUM_THREADS", "1"):
            lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_set_num_threads", "openblas_set_num_threads"):
            set_threads = getattr(lib, symbol, None)
            if set_threads is not None:
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                set_threads(1)
                break


_single_thread_scipy_blas(_SCIPY_DIR)


def _kernel_expm(kernel, a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm of a square float64 matrix, on scipy's compiled kernel.

    The dense 2-D float64 path of scipy 1.17's expm (scipy/linalg/_matfuncs.py,
    BSD-3-Clause, Copyright (c) SciPy Developers): Al-Mohy and Higham's
    scaling and squaring, SIAM J. Matrix Anal. Appl. 31 (2009) 970.  A matrix
    with no entry below its diagonal, or none above it, goes to
    scipy.linalg.expm itself, whose closed forms take it; no cavity generator
    is one, as its +-omega t entries sit on both sides of the diagonal.
    """
    if not (np.tril(a, -1).any() and np.triu(a, 1).any()):
        from scipy.linalg import expm

        return expm(a)
    am = np.empty((5, *a.shape))
    am[0] = a
    m, s = kernel.pick_pade_structure(am)  # scales am[0] by 2**-s
    if m < 0 or kernel.pade_UV_calc(am, m) != 0:
        raise RuntimeError(f"scipy's expm kernel failed on a {len(a)}-row matrix")
    ea = am[0]
    for _ in range(s):
        ea = ea @ ea
    return ea


def _load_expm(scipy_dir: str):
    """_kernel_expm on the kernel file under scipy_dir, else scipy.linalg.expm.

    The kernel is kept only if it takes a rotation generator to its cos and
    sin, which a scipy release that names or calls it otherwise fails.
    """
    stem = os.path.join(scipy_dir, "linalg", _EXPM_KERNEL.rpartition(".")[2])
    for path in filter(os.path.isfile, (stem + x for x in importlib.machinery.EXTENSION_SUFFIXES)):
        loader = importlib.machinery.ExtensionFileLoader(_EXPM_KERNEL, path)
        try:
            kernel = loader.create_module(importlib.util.spec_from_loader(_EXPM_KERNEL, loader))
            loader.exec_module(kernel)
            probe = _kernel_expm(kernel, np.array([[0.0, 8.0], [-8.0, 0.0]]))
        except (ImportError, AttributeError, TypeError, ValueError, RuntimeError):
            continue
        c, s = np.cos(8.0), np.sin(8.0)
        if np.allclose(probe, [[c, s], [-s, c]], rtol=0.0, atol=1e-12):
            return partial(_kernel_expm, kernel)
    from scipy.linalg import expm

    return expm


_expm = _load_expm(_SCIPY_DIR)


class PropagatorAccuracyError(RuntimeError):
    """The computed propagator failed its symplectic self-check."""


class UnboundedHamiltonianError(ValueError):
    """The coupling makes the Hamiltonian unbounded below, so no state is stable."""


def propagator(f_sym: np.ndarray, t: float) -> np.ndarray:
    """exp(Omega F_sym t) via scaling-and-squaring Pade approximation.

    The result is verified to be symplectic to 1e-9 in max norm; a failure
    indicates the exponential lost accuracy (ill-scaled input) and raises
    PropagatorAccuracyError rather than returning a drifting matrix.  A
    non-finite F_sym or t raises ValueError.  The matrix is returned
    read-only, so that no caller can alter a cached one.
    """
    f_sym = np.asarray(f_sym, dtype=float)
    if f_sym.ndim != 2 or f_sym.shape[0] != f_sym.shape[1] or f_sym.shape[0] % 2:
        raise ValueError("F_sym must be square with even dimension")
    if not (np.isfinite(f_sym).all() and np.isfinite(t)):
        raise ValueError("F_sym and the evolution time must be finite")
    if not np.allclose(f_sym, f_sym.T, atol=1e-12 * max(1.0, np.abs(f_sym).max())):
        raise ValueError("F_sym must be symmetric")
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    s = _expm(gaussian.apply_symplectic_form(f_sym) * t)
    drift = gaussian.check_symplectic(s)
    if not drift <= 1e-9:  # a NaN drift fails too
        raise PropagatorAccuracyError(
            f"propagator violates the symplectic condition by {drift:.3e}"
        )
    s.flags.writeable = False
    return s


def _check_bounded_below(f_sym: np.ndarray, coupling: float) -> None:
    """Raise UnboundedHamiltonianError unless F_sym is positive definite.

    F_sym's field block is diagonal and positive (the free frequencies), so
    F_sym > 0 exactly when the 4 x 4 Schur complement of that block,
    F_dd - F_df diag(F_ff)^-1 F_fd, is: an O(M) test.  Beyond a coupling of
    about 0.27 in the reference cavity it fails, and evolution would run
    into unphysical states some cycles later.
    """
    f_df = f_sym[:4, 4:]
    schur = f_sym[:4, :4] - (f_df / np.diag(f_sym)[4:]) @ f_df.T
    try:
        np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        # eigvalsh only here: its first call pages in LAPACK code that the
        # commands' own work may never touch (0.6 MiB of peak RSS)
        least = float(np.linalg.eigvalsh(schur)[0])
        raise UnboundedHamiltonianError(
            f"coupling {coupling!r} makes the Hamiltonian unbounded below "
            f"(least eigenvalue of its detector Schur complement {least:.6g})"
        ) from None


# Sweeps and figures finish with one config before they move to the next, so
# only the last config's propagator is kept; holding more keeps unused
# 2M x 2M matrices alive for the rest of a sweep.
@lru_cache(maxsize=1)
def propagator_for(config: cavity.CavityConfig) -> np.ndarray:
    """One-cycle propagator for a cavity setup; the last config's is cached.

    Raises UnboundedHamiltonianError before any evolution when the coupling
    leaves the Hamiltonian unbounded below.
    """
    f_sym = cavity.hamiltonian_matrix(config)
    _check_bounded_below(f_sym, config.coupling)
    return propagator(f_sym, config.cycle_time)
