"""Non-perturbative Gaussian simulator of cyclic entanglement extraction.

Pairs of gapped detectors couple to a cavity field for a fixed interaction
time, are measured and replaced, and the field carries the memory of every
past cycle.  The package provides the phase-space machinery (covariance
matrices, symplectic evolution), the cycle protocol, spectral analysis of
the induced affine map on field states, thermodynamic diagnostics, and a
small truncated-Fock cross-check.
"""

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
