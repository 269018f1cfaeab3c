"""The repeated extraction cycle.

Each cycle injects a fresh detector pair in its ground state, evolves the
joint system for the cycle time, reads the detector diagnostics, and
discards the detector-field correlations.  The surviving field state obeys
the affine update sigma_f -> D sigma_f D^T + C C^T, where (C, D) are blocks
of the one-cycle propagator.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from entfarm import cavity, dynamics, gaussian, thermo
from entfarm.gaussian import InvalidStateError

# largest covariance entry a cycle or a composed map may reach: past it the
# cycle map is expanding, and double precision can no longer resolve the
# uncertainty bound of the state it drives
GROWTH_CAP = 1e12


class GrowthOverflowError(RuntimeError):
    """A field state or a composed cycle map passed GROWTH_CAP.

    k_reached is the largest number of cycles completed under the cap.
    """

    def __init__(self, message: str, k_reached: int):
        super().__init__(message)
        self.k_reached = k_reached


def _mode_rows(modes) -> np.ndarray:
    """Phase-space rows (q, p of each) of the given 0-based mode positions."""
    return (2 * np.asarray(modes, dtype=int)[:, None] + np.array([0, 1])).ravel()


@dataclass(frozen=True)
class AffineMap:
    """The k-cycle field update sigma -> d sigma d^T + q.

    For one cycle d = D and q = C C^T; the inhomogeneity encodes the
    injected detector vacuum.  groups partitions the map's modes (0-based
    positions) into sets that d never mixes: d is block diagonal on them,
    and so is every composition with a map of the same groups.
    (tuple(range(M)),) claims nothing.
    """

    d: np.ndarray
    q: np.ndarray
    k: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        listed = sorted(j for group in self.groups for j in group)
        if listed != list(range(self.d.shape[0] // 2)):
            raise ValueError(f"groups {self.groups} do not partition the map's modes")

    @property
    def group_rows(self) -> list[np.ndarray]:
        """The phase-space rows of each group."""
        return [_mode_rows(group) for group in self.groups]

    def apply(self, sigma: np.ndarray) -> np.ndarray:
        sigma = gaussian._as_covariance(sigma)
        if sigma.shape != self.d.shape:
            raise ValueError(
                f"field state shape {sigma.shape} does not match D block {self.d.shape}"
            )
        return self._update(sigma)

    def _update(self, sigma: np.ndarray) -> np.ndarray:
        """apply without validation, for a covariance of d's shape."""
        out = self.d @ sigma @ self.d.T + self.q
        return (out + out.T) / 2.0

    def then(self, after: AffineMap) -> AffineMap:
        """The composition that runs this map first, then `after`; both share groups."""
        if after.groups != self.groups:
            raise ValueError("only maps with the same groups compose")
        return AffineMap(
            after.d @ self.d,
            after.d @ self.q @ after.d.T + after.q,
            self.k + after.k,
            self.groups,
        )


@dataclass(frozen=True)
class CycleBlocks:
    """Propagator blocks: detector rows first, field rows second.

    The one place where the injected ground-state detectors enter a cycle:
    field_map adds their share C C^T to the field, detector_out their
    share A A^T to the detectors.

    decoupled lists the field modes (0-based positions) with a node at both
    detectors.  They only rotate freely, so they take no part in the
    fixed point or the spectrum of the cycle map; coupled_map leaves them
    out and whole_field puts them back.  sectors partitions the other modes
    into groups that D never mixes: cavity.parity_sectors' "+" and "-"
    modes when the detector pair is mirror-symmetric (sin(k_n x2) =
    +/-sin(k_n x1) within NODE_TOL for every coupled mode; both detectors
    share Omega and lambda, and the injected vacuum is invariant under the
    rotation to q_d1 +/- q_d2, so D and C C^T are exactly block diagonal
    there), otherwise one group.  The maps carry them as their groups.
    """

    a: np.ndarray  # 4 x 4, detector -> detector
    b: np.ndarray  # 4 x 2M, field -> detector
    c: np.ndarray  # 2M x 4, detector -> field
    d: np.ndarray  # 2M x 2M, field -> field
    sectors: tuple[tuple[int, ...], ...]
    decoupled: tuple[int, ...]

    @cached_property
    def field_map(self) -> AffineMap:
        """One cycle's field update, formed once; the decoupled modes form one
        more group."""
        groups = self.sectors + ((self.decoupled,) if self.decoupled else ())
        return AffineMap(self.d, self.c @ self.c.T, 1, groups)

    def detector_out(self, sigma_f: np.ndarray) -> np.ndarray:
        """The detector state after one cycle from field state sigma_f, not validated:
        B sigma_f B^T + A A^T."""
        out = self.b @ sigma_f @ self.b.T + self.a @ self.a.T
        return (out + out.T) / 2.0

    @cached_property
    def _coupled_modes(self) -> np.ndarray:
        """Positions of the field modes not listed in decoupled."""
        return np.setdiff1d(np.arange(self.d.shape[0] // 2), self.decoupled)

    @property
    def coupled_map(self) -> AffineMap:
        """field_map on the coupled modes: decoupled rows and columns sliced out."""
        whole = self.field_map
        rows = _mode_rows(self._coupled_modes)
        keep = np.ix_(rows, rows)
        groups = tuple(
            tuple(np.searchsorted(self._coupled_modes, sector).tolist())
            for sector in self.sectors
        )
        return AffineMap(whole.d[keep], whole.q[keep], 1, groups)

    def whole_field(self, coupled: np.ndarray, frozen: np.ndarray) -> np.ndarray:
        """The field state with coupled block `coupled` and decoupled modes as in `frozen`.

        The inverse of restricting to coupled_map: the decoupled blocks keep
        their state in frozen, and the correlations between the two sectors
        are zero (they vanish at a fixed point of the coupled map).
        """
        sigma = np.asarray(frozen, dtype=float).copy()
        keep = _mode_rows(self._coupled_modes)
        dead = np.setdiff1d(np.arange(sigma.shape[0]), keep)
        sigma[np.ix_(keep, keep)] = coupled
        sigma[np.ix_(dead, keep)] = 0.0
        sigma[np.ix_(keep, dead)] = 0.0
        return sigma


@dataclass(frozen=True)
class CycleStates:
    """The states around one cycle: the argument of every observable.

    run_cycles validates the states it is given once, on entry, and
    full_cycle returns exactly symmetric states, so observables may read
    them without re-validating.  detector_in is the injected ground state;
    only energy_input reads it.  isolated lists the field modes that no
    detector couples to; only field_analysis reads it.
    """

    detector_in: np.ndarray
    field_in: np.ndarray
    detector_out: np.ndarray
    field_out: np.ndarray
    detector_freqs: np.ndarray
    field_freqs: np.ndarray
    isolated: tuple[int, ...]

    @cached_property
    def field_analysis(self) -> gaussian.StateAnalysis:
        """field_out validated and factored once, on first use, for every observable.

        The isolated modes enter in closed form; only the coupled block is
        factored.
        """
        return gaussian.StateAnalysis(self.field_out, self.isolated)


def _energy(sigma: np.ndarray, freqs: np.ndarray) -> float:
    return gaussian.energy_from_traces(gaussian.block_traces(sigma), freqs, "paper")


def _energy_input(s: CycleStates) -> float:
    e_start = _energy(s.detector_in, s.detector_freqs) + _energy(s.field_in, s.field_freqs)
    e_end = _energy(s.detector_out, s.detector_freqs) + _energy(s.field_out, s.field_freqs)
    return e_end - e_start


def _field_thermality(s: CycleStates) -> float:
    try:
        return thermo.thermality_of(s.field_analysis, s.field_freqs)
    except thermo.UndefinedEstimatorError:
        return math.nan


# the built-in per-cycle diagnostics, keyed by their CycleRecord attribute
DIAGNOSTICS = MappingProxyType(
    {
        "log_negativity": lambda s: gaussian.log_negativity(s.detector_out),
        "energy_input": _energy_input,
        "field_purity": lambda s: s.field_analysis.purity,
        "field_thermality": _field_thermality,
    }
)


def _diagnostic(name: str) -> property:
    return property(lambda record: record.values.get(name))


@dataclass
class CycleRecord:
    """Observables captured at the end of one cycle.

    values maps each requested observable to its value; the built-in
    diagnostics also read as attributes, None when not requested.
    field_thermality is NaN when the estimator is undefined (field at
    vacuum energy).
    """

    cycle: int
    values: dict[str, object]

    log_negativity = _diagnostic("log_negativity")
    energy_input = _diagnostic("energy_input")
    field_purity = _diagnostic("field_purity")
    field_thermality = _diagnostic("field_thermality")


@dataclass
class Trajectory:
    records: list[CycleRecord]
    final_field_sigma: np.ndarray


# phase-space rows of the detector pair, which come first in a propagator
DETECTOR_DIM = 4


def block_decompose(s: np.ndarray) -> CycleBlocks:
    """Partition a propagator into detector and field blocks, every field mode in one sector."""
    s = np.asarray(s, dtype=float)
    k = DETECTOR_DIM
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < k + 2:
        raise ValueError("propagator must be square and include at least one field mode")
    return CycleBlocks(
        a=s[:k, :k].copy(),
        b=s[:k, k:].copy(),
        c=s[k:, :k].copy(),
        d=s[k:, k:].copy(),
        sectors=(tuple(range((s.shape[0] - k) // 2)),),
        decoupled=(),
    )


def blocks_for(config: cavity.CavityConfig) -> CycleBlocks:
    """The blocks of config's propagator, with its decoupled modes and sectors named."""
    blocks = block_decompose(dynamics.propagator_for(config))
    return replace(
        blocks,
        sectors=tuple(cavity.parity_sectors(config)),
        decoupled=tuple(cavity.decoupled_positions(config)),
    )


def full_cycle(sigma_f: np.ndarray, blocks: CycleBlocks) -> tuple[np.ndarray, np.ndarray]:
    """One cycle with ground-state detectors: (sigma_d_out, sigma_f_out).

    These are the diagonal blocks of the evolved joint state
    S (I_4 xor sigma_f) S^T, with S given by its blocks: blocks.detector_out
    and blocks.field_map's update.  sigma_f is checked for shape only.
    """
    sigma_f = np.asarray(sigma_f, dtype=float)
    if sigma_f.shape != blocks.d.shape:
        raise ValueError("field state does not match the propagator mode count")
    return blocks.detector_out(sigma_f), blocks.field_map._update(sigma_f)


def run_cycles(
    config: cavity.CavityConfig,
    sigma_f0: np.ndarray | None = None,
    n_cycles: int = 1,
    observables: Mapping[str, Callable[[CycleStates], object]] = DIAGNOSTICS,
) -> Trajectory:
    """Run the extraction protocol for n_cycles and record observables.

    Each cycle injects a ground-state detector pair; the field starts in
    sigma_f0, the vacuum by default.  observables maps a
    name to a function of one cycle's CycleStates; each is evaluated every
    cycle and nothing else is.  The default, DIAGNOSTICS, gives the
    detector log-negativity, the energy the cycle pumped into the system
    (free-Hamiltonian convention including zero-point terms), and the
    purity / thermality of the surviving field.  Only the final field state
    is kept; an observable such as {"field": lambda s: s.field_out} records
    the state of every cycle.  A field state with an entry past GROWTH_CAP
    (or a non-finite one) raises GrowthOverflowError: the cycle map is
    expanding.
    """
    if n_cycles < 1:
        raise ValueError("need at least one cycle")
    blocks = blocks_for(config)
    # modes with a node at both detectors keep their initial state, so they
    # stay isolated when they start out uncorrelated with the rest
    isolated = blocks.decoupled
    if sigma_f0 is None:
        sigma_f = gaussian.vacuum_state(config.n_field_modes)
    else:
        sigma_f = gaussian.StateAnalysis(sigma_f0).sigma.copy()
        isolated = gaussian.isolated_modes(sigma_f, isolated)
    sigma_d0 = gaussian.vacuum_state(2)
    detector_freqs = cavity.joint_frequencies(config)[:2]
    field_freqs = cavity.mode_frequencies(config)

    records = []
    for k in range(1, n_cycles + 1):
        sigma_d_out, sigma_f_next = full_cycle(sigma_f, blocks)
        largest = np.abs(sigma_f_next).max()
        if not largest <= GROWTH_CAP:
            raise GrowthOverflowError(
                f"cycle {k}: largest field covariance entry {largest:.3g} passed the "
                f"growth cap {GROWTH_CAP:g}; the cycle map is expanding",
                k_reached=k - 1,
            )
        states = CycleStates(
            sigma_d0, sigma_f, sigma_d_out, sigma_f_next, detector_freqs, field_freqs, isolated
        )
        try:
            values = {name: observe(states) for name, observe in observables.items()}
        except InvalidStateError as exc:
            raise InvalidStateError(f"cycle {k}: {exc}") from exc
        records.append(CycleRecord(cycle=k, values=values))
        sigma_f = sigma_f_next
    return Trajectory(records, sigma_f)
