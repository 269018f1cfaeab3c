"""Non-perturbative Gaussian simulator of cyclic entanglement extraction.

Pairs of gapped detectors couple to a cavity field for a fixed interaction
time, are measured and replaced, and the field carries the memory of every
past cycle.  The package provides the phase-space machinery (covariance
matrices, symplectic evolution), the cycle protocol, spectral analysis of
the induced affine map on field states, thermodynamic diagnostics, and a
small truncated-Fock cross-check.
"""

import contextlib
import os


@contextlib.contextmanager
def _environ_for_load(name: str, value: str):
    """Set the environment variable `name` to `value` for one library load.

    OpenBLAS reads its variables once, when it loads, so the variable is
    needed only during the load: afterwards the caller's value, or its
    absence, is put back, also if the load fails.
    """
    user_value = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if user_value is None:
            del os.environ[name]
        else:
            os.environ[name] = user_value


# numpy's OpenBLAS loads here.  After each threaded call its idle workers spin
# for 2**OPENBLAS_THREAD_TIMEOUT cycles (2**28 by default, about 0.1 s), and a
# command makes such a call every few ms, so at two or more threads a worker
# spins through the whole command.  At 4, OpenBLAS's floor, an idle worker
# sleeps at once.  A timeout the user set is followed, and the thread count is
# left as the user set it.
with _environ_for_load("OPENBLAS_THREAD_TIMEOUT", os.environ.get("OPENBLAS_THREAD_TIMEOUT", "4")):
    from entfarm.gaussian import (
        log_negativity,
        purity,
        symplectic_eigenvalues,
        symplectic_form,
        thermal_state,
        vacuum_state,
        von_neumann_entropy,
        williamson_normal_form,
    )

__all__ = [
    "log_negativity",
    "purity",
    "symplectic_eigenvalues",
    "symplectic_form",
    "thermal_state",
    "vacuum_state",
    "von_neumann_entropy",
    "williamson_normal_form",
]

__version__ = "0.1.0"
