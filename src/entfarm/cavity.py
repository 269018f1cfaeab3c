"""Cavity, detectors, and the quadratic Hamiltonian they generate.

A massless field in a Dirichlet cavity of length L has modes
phi_n(x) = sin(n pi x / L) / sqrt(pi n) with omega_n = n pi / L (c = hbar = 1).
Two gapped oscillator detectors at fixed positions x1, x2 couple to the local
field amplitude with equal strength lambda.  The phase-space vector is
ordered (q_d1, p_d1, q_d2, p_d2, q_1, p_1, ..., q_M, p_M): detectors first,
then the retained field modes.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

import numpy as np

DEFAULT_N_MODES = 128
# |sin(k_n x)| below this at a detector counts as a node of mode n there
NODE_TOL = 1e-12


@dataclass(frozen=True)
class CavityConfig:
    """Physical parameters of one detector-pair / cavity setup.

    mode_numbers lists the physical indices n of the retained field modes
    (not necessarily contiguous, so resonant-window truncations are
    first-class).  x1 and x2 default to L/3 and 2L/3.
    """

    length: float = 8.0
    coupling: float = 0.01
    detector_frequency: float = math.pi / 8.0
    x1: float | None = None
    x2: float | None = None
    cycle_time: float = 20.0
    mode_numbers: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.x1 is None:
            object.__setattr__(self, "x1", self.length / 3.0)
        if self.x2 is None:
            object.__setattr__(self, "x2", 2.0 * self.length / 3.0)
        for name in ("length", "coupling", "detector_frequency", "x1", "x2", "cycle_time"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.mode_numbers is None:
            object.__setattr__(self, "mode_numbers", tuple(range(1, DEFAULT_N_MODES + 1)))
        else:
            object.__setattr__(self, "mode_numbers", tuple(int(n) for n in self.mode_numbers))
        if self.length <= 0:
            raise ValueError("cavity length must be positive")
        if self.coupling < 0:
            raise ValueError("coupling must be non-negative")
        if self.detector_frequency <= 0:
            raise ValueError("detector frequency must be positive")
        if self.cycle_time <= 0:
            raise ValueError("cycle time must be positive")
        for x in (self.x1, self.x2):
            if not 0 < x < self.length:
                raise ValueError(f"detector position {x} outside the cavity (0, {self.length})")
        if not self.mode_numbers:
            raise ValueError("at least one field mode is required")
        if any(n < 1 for n in self.mode_numbers) or any(
            b <= a for a, b in zip(self.mode_numbers, self.mode_numbers[1:])
        ):
            raise ValueError("mode numbers must be positive and strictly increasing")

    @property
    def n_field_modes(self) -> int:
        return len(self.mode_numbers)

    def fingerprint(self) -> str:
        """16 hex digits of the SHA-256 of the fields; hashlib (and with it
        OpenSSL's libcrypto) loads on the first call, as no command makes one."""
        import hashlib

        payload = repr(astuple(self))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def standard_config(n_modes: int = DEFAULT_N_MODES, **overrides) -> CavityConfig:
    """The reference setup with the first n_modes field modes retained."""
    return CavityConfig(mode_numbers=tuple(range(1, n_modes + 1)), **overrides)


def resonant_window(config: CavityConfig, width: float | None = None) -> CavityConfig:
    """Truncate to field modes near the detector frequency.

    With an explicit width, keeps modes with |omega_n - Omega| < width.
    Without one, keeps the five lowest retained modes, which is enough to
    cover the resonance and its nearest neighbors in the reference setup.
    A window that keeps no mode, or only modes with a node at both
    detectors (nothing left to couple to), raises ValueError.
    """
    if width is None:
        kept = config.mode_numbers[: min(5, len(config.mode_numbers))]
    else:
        near = np.abs(mode_frequencies(config) - config.detector_frequency) < width
        kept = tuple(n for n, keep in zip(config.mode_numbers, near) if keep)
    if not kept:
        raise ValueError("resonant window is empty; widen it")
    windowed = replace(config, mode_numbers=kept)
    if len(decoupled_positions(windowed)) == len(kept):
        raise ValueError(
            f"resonant window keeps only modes {list(kept)}, which have a node at "
            "both detectors; widen it"
        )
    return windowed


def mode_frequencies(config: CavityConfig) -> np.ndarray:
    """omega_n = n pi / L for each retained mode (massless dispersion)."""
    return np.array([n * math.pi / config.length for n in config.mode_numbers])


def joint_frequencies(config: CavityConfig) -> np.ndarray:
    """Free frequencies of the full system: both detectors, then the field."""
    return np.concatenate(
        [[config.detector_frequency, config.detector_frequency], mode_frequencies(config)]
    )


def _amplitudes(config: CavityConfig) -> np.ndarray:
    """sin(k_n x1) and sin(k_n x2) for each retained mode, as a 2 x M array.

    The one place the mode shapes are evaluated: the couplings, the nodal
    modes and the parity sectors are all read off these values.
    """
    modes, length = config.mode_numbers, config.length
    return np.array(
        [[math.sin(n * math.pi * x / length) for n in modes] for x in (config.x1, config.x2)]
    )


def coupling_matrix(config: CavityConfig) -> np.ndarray:
    """Detector-field coupling block X (4 x 2M).

    Only q-q entries are populated: X[0, 2j] couples detector 1 to mode j,
    X[2, 2j] detector 2 to mode j, with amplitude sin(k_n x_d)/sqrt(pi n).
    """
    x = np.zeros((4, 2 * config.n_field_modes))
    x[::2, ::2] = _amplitudes(config) / np.sqrt([math.pi * n for n in config.mode_numbers])
    return x


def hamiltonian_matrix(config: CavityConfig) -> np.ndarray:
    """Symmetrized quadratic form F_sym with H = (1/2) x^T F_sym x.

    Free part: diag(Omega, Omega, Omega, Omega, omega_1, omega_1, ...).
    Interaction: off-diagonal blocks 2 lambda X and its transpose.
    """
    f_sym = np.diag(np.repeat(joint_frequencies(config), 2))
    if config.coupling != 0.0:
        f_sym[:4, 4:] = 2.0 * config.coupling * coupling_matrix(config)
        f_sym[4:, :4] = f_sym[:4, 4:].T
    return f_sym


def decoupled_positions(config: CavityConfig) -> list[int]:
    """Positions (0-based within the field block) of the modes with a node at both detectors.

    These modes never talk to the detectors: their propagator block is an
    exact free rotation no matter the coupling.
    """
    return np.flatnonzero((np.abs(_amplitudes(config)) < NODE_TOL).all(axis=0)).tolist()


def parity_sectors(config: CavityConfig) -> list[tuple[int, ...]]:
    """The coupled modes (0-based positions, as in decoupled_positions) split by parity.

    When every coupled mode has sin(k_n x2) = +sin(k_n x1) or -sin(k_n x1)
    within NODE_TOL, as for a pair placed mirror-symmetrically about the
    centre, the "+" modes couple only to q_d1 + q_d2 and the "-" modes only
    to q_d1 - q_d2.  Both detectors share Omega and lambda, so the rotation
    to those two combinations leaves the detectors' free Hamiltonian (and
    their vacuum) unchanged and splits the Hamiltonian, hence the propagator,
    into two blocks that never mix: the field map D is block diagonal on the
    "+" and "-" modes, and so is C C^T for vacuum detectors.  Returns the
    non-empty sectors, "+" first; otherwise one group of every coupled
    mode, or none when every mode is decoupled.
    """
    s1, s2 = amplitudes = _amplitudes(config)
    coupled = ~(np.abs(amplitudes) < NODE_TOL).all(axis=0)
    plus = coupled & (np.abs(s2 - s1) < NODE_TOL)
    minus = coupled & ~plus & (np.abs(s2 + s1) < NODE_TOL)
    if ((plus | minus) != coupled).any():
        return [tuple(np.flatnonzero(coupled).tolist())]
    return [tuple(np.flatnonzero(sector).tolist()) for sector in (plus, minus) if sector.any()]
