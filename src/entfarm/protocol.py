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

# largest |entry| a field state, or the d or q of a composed map, may reach
# (checked as not x <= GROWTH_CAP, so NaN fails too): past it the cycle map is
# expanding, and double precision cannot resolve the uncertainty bound
GROWTH_CAP = 1e12


class GrowthOverflowError(RuntimeError):
    """A field state or a composed cycle map passed GROWTH_CAP.

    k_reached is the largest number of cycles completed under the cap.
    """

    def __init__(self, message: str, k_reached: int):
        super().__init__(message)
        self.k_reached = k_reached


def _t(x: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(x, -1, -2)


def _summed(x: np.ndarray) -> np.ndarray:
    """A matrix, or the sum of a stack of them."""
    return x if x.ndim == 2 else x.sum(axis=0)


def _largest_entry(blocks) -> float:
    """Largest |entry| over a list of blocks; NaN if any entry is NaN."""
    return float(np.max([np.abs(block).max() for block in blocks]))


class AffineMap:
    """The k-cycle field update sigma -> d sigma d^T + q.

    For one cycle d = D and q = C C^T; the inhomogeneity encodes the
    injected detector vacuum.  groups partitions the map's modes (0-based
    positions) into sets that d never mixes: d is block diagonal on them,
    and so is every composition with a map of the same groups.
    (tuple(range(M)),) claims nothing.

    The groups are the unit of work.  The map forms the diagonal blocks of
    d and q on them once (blocks, on the gaussian.Partition partition: one
    dense block per group of two or more modes, one stack of the one-mode
    groups), and apply, then, power_map, extinction_scan and field_spectrum
    work block by block; a map made by then holds only its blocks and
    assembles d and q when they are read.  The entries of d and q between
    groups are dropped.  For a CycleBlocks' maps they are rounding left by
    the propagator, the same exactness field_spectrum's split relies on: at
    4-256 modes, over eigtime's 33 cycle times and eigcoupling's 7
    couplings, at most 2.9e-17 in D and 3.1e-16 of the largest entry of
    C C^T.
    """

    def __init__(self, d: np.ndarray, q: np.ndarray, k: int, groups):
        self.partition = gaussian.Partition(groups, d.shape[0] // 2)
        self.d = d
        self.q = q
        self.k = k

    @classmethod
    def _of_blocks(cls, partition, d_blocks, q_blocks, k: int) -> AffineMap:
        step = cls.__new__(cls)
        step.partition = partition
        step.blocks = (d_blocks, q_blocks)
        step.k = k
        return step

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        return self.partition.groups

    @cached_property
    def d(self) -> np.ndarray:
        return self.partition.join(self.blocks[0])

    @cached_property
    def q(self) -> np.ndarray:
        return self.partition.join(self.blocks[1])

    @cached_property
    def blocks(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The diagonal blocks of d and of q on the parts of partition, formed once."""
        return self.partition.split(self.d), self.partition.split(self.q)

    @property
    def entry_max(self) -> float:
        """Largest |entry| of d and q, read off their blocks; NaN if any entry is NaN."""
        d_blocks, q_blocks = self.blocks
        return _largest_entry(d_blocks + q_blocks)

    def apply(self, sigma: np.ndarray) -> np.ndarray:
        """The field state after the map, d sigma d^T + q, from any field state (_state)."""
        step, state = self._state(sigma)
        return step.partition.join(step._update(state))

    def _state(self, sigma: np.ndarray) -> tuple[AffineMap, list[np.ndarray]]:
        """The map that steps sigma and sigma's blocks on its partition.

        The entry of apply, full_cycle, run_cycles and (through
        _checked_start) extinction_scan: sigma is checked for shape and
        symmetry, not physicality.  A sigma with a covariance between two of
        the map's groups past gaussian.ISOLATION_TOL times its largest
        diagonal entry (or 1) runs on the one-group map, the whole matrices,
        so the update stays exact; any other runs on the groups, and its
        smaller covariances between them are dropped.  No command starts from
        such a state; the route stays for sigma_f0, as a start that correlates
        two sectors is a valid input to the paper's claim that the farm
        forgets its start.
        """
        sigma = gaussian._as_covariance(sigma)
        n = self.partition.n_modes
        if sigma.shape[0] != 2 * n:
            raise ValueError(
                f"field state shape {sigma.shape} does not match the map's {n} modes "
                f"(mode count {sigma.shape[0] // 2})"
            )
        bound = gaussian.ISOLATION_TOL * max(1.0, float(np.abs(np.diagonal(sigma)).max()))
        step = self
        if self.partition.cross_max(sigma) > bound:
            step = AffineMap(self.d, self.q, self.k, (tuple(range(n)),))
        return step, step.partition.split(sigma)

    def _update(self, state: list[np.ndarray]) -> list[np.ndarray]:
        """The blocks of the state after the map, from a state's blocks on the
        map's partition; nothing is validated.  Every block comes out exactly
        symmetric."""
        d_blocks, q_blocks = self.blocks
        out = []
        for d, sigma, q in zip(d_blocks, state, q_blocks):
            block = d @ sigma @ _t(d) + q
            out.append((block + _t(block)) / 2.0)
        return out

    def then(self, after: AffineMap) -> AffineMap:
        """The composition that runs this map first, then `after`; both share groups."""
        if after.groups != self.groups:
            raise ValueError("only maps with the same groups compose")
        (d_first, q_first), (d_after, q_after) = self.blocks, after.blocks
        return AffineMap._of_blocks(
            self.partition,
            [a @ d for a, d in zip(d_after, d_first)],
            [a @ q @ _t(a) + qa for a, q, qa in zip(d_after, q_first, q_after)],
            self.k + after.k,
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
        """One cycle's field update, formed once; each decoupled mode, a free
        rotation, is one more group."""
        groups = self.sectors + tuple((m,) for m in self.decoupled)
        return AffineMap(self.d, self.c @ self.c.T, 1, groups)

    def detector_out(self, sigma_f: np.ndarray) -> np.ndarray:
        """The detector state after one cycle from field state sigma_f, not validated:
        B sigma_f B^T + A A^T, _readout on the whole matrices."""
        n = self.d.shape[0] // 2
        return self._readout(gaussian.Partition((tuple(range(n)),), n), [sigma_f])

    def _readout(self, partition: gaussian.Partition, state: list[np.ndarray]) -> np.ndarray:
        """detector_out of a field state given by its blocks on partition:
        B_g sigma_g B_g^T summed over the parts, B_g the columns of B that
        meet part g."""
        out = sum(
            _summed(b @ sigma @ _t(b)) for b, sigma in zip(partition.columns(self.b), state)
        ) + self.a @ self.a.T
        return (out + out.T) / 2.0

    @cached_property
    def _coupled_modes(self) -> np.ndarray:
        """Positions of the field modes not listed in decoupled, ascending (a
        mask, not np.setdiff1d, whose first call imports numpy.ma)."""
        coupled = np.ones(self.d.shape[0] // 2, dtype=bool)
        coupled[np.asarray(self.decoupled, dtype=int)] = False
        return np.flatnonzero(coupled)

    @property
    def coupled_map(self) -> AffineMap:
        """field_map on the coupled modes: decoupled rows and columns sliced out."""
        whole = self.field_map
        rows = gaussian._mode_rows(self._coupled_modes)
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
        keep = gaussian._mode_rows(self._coupled_modes)
        dead = gaussian._mode_rows(self.decoupled)
        sigma[np.ix_(keep, keep)] = coupled
        sigma[np.ix_(dead, keep)] = 0.0
        sigma[np.ix_(keep, dead)] = 0.0
        return sigma


@dataclass(frozen=True)
class CycleStates:
    """The states around one cycle: the argument of every observable.

    run_cycles carries the field as its diagonal blocks on the partition of
    the map that steps it (the cycle map's groups, or one group when the
    start correlates them), field_in_blocks before the cycle and
    field_out_blocks after it.  field_in and field_out assemble the whole
    matrices, and field_analysis analyses field_out group by group, each
    only on first use.  run_cycles validates its start once, on entry, and
    the update keeps every block exactly symmetric, so nothing is validated
    again.  detector_in is the injected ground state; only energy_input
    reads it.
    """

    detector_in: np.ndarray
    field_in_blocks: list[np.ndarray]
    detector_out: np.ndarray
    field_out_blocks: list[np.ndarray]
    partition: gaussian.Partition
    detector_freqs: np.ndarray
    field_freqs: np.ndarray

    @cached_property
    def field_in(self) -> np.ndarray:
        return self.partition.join(self.field_in_blocks)

    @cached_property
    def field_out(self) -> np.ndarray:
        return self.partition.join(self.field_out_blocks)

    @cached_property
    def field_analysis(self) -> gaussian.StateAnalysis:
        """field_out factored once, per group, on first use, for every observable.

        The one-mode groups (nodal modes) enter in closed form.
        """
        return gaussian.StateAnalysis.of_blocks(self.partition, self.field_out_blocks)


def _energy(traces: np.ndarray, freqs: np.ndarray) -> float:
    return gaussian.energy_from_traces(traces, freqs, "paper")


def _energy_input(s: CycleStates) -> float:
    def energy(detector: np.ndarray, field: list[np.ndarray]) -> float:
        return _energy(gaussian.block_traces(detector), s.detector_freqs) + _energy(
            s.partition.block_traces(field), s.field_freqs
        )

    return energy(s.detector_out, s.field_out_blocks) - energy(s.detector_in, s.field_in_blocks)


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
    return _blocks_of(config, dynamics.propagator_for(config))


def _blocks_of(config: cavity.CavityConfig, s: np.ndarray) -> CycleBlocks:
    """blocks_for(config) from s, config's propagator."""
    blocks = block_decompose(s)
    return replace(
        blocks,
        sectors=tuple(cavity.parity_sectors(config)),
        decoupled=tuple(cavity.decoupled_positions(config)),
    )


def full_cycle(sigma_f: np.ndarray, blocks: CycleBlocks) -> tuple[np.ndarray, np.ndarray]:
    """One cycle with ground-state detectors: (sigma_d_out, sigma_f_out).

    These are the diagonal blocks of the evolved joint state
    S (I_4 xor sigma_f) S^T, with S given by its blocks: blocks.detector_out
    and blocks.field_map's update, both on the partition that
    AffineMap._state picks for sigma_f (the map's groups, or the whole
    matrices for a sigma_f that correlates them).  sigma_f is checked for
    shape and symmetry only.
    """
    step, state = blocks.field_map._state(sigma_f)
    return blocks._readout(step.partition, state), step.partition.join(step._update(state))


def _checked_start(
    field_map: AffineMap, sigma_f0: np.ndarray | None
) -> tuple[AffineMap, list[np.ndarray]]:
    """field_map._state of a copy of sigma_f0, checked once to be a physical
    state; None starts from the vacuum, which is split unchecked."""
    if sigma_f0 is None:
        return field_map._state(gaussian.vacuum_state(field_map.partition.n_modes))
    step, state = field_map._state(np.array(sigma_f0, dtype=float))
    gaussian.StateAnalysis.of_blocks(step.partition, state).physical_spectrum
    return step, state


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

    A given sigma_f0 is checked once, on entry: its shape, its symmetry and
    its physicality (InvalidStateError, as StateAnalysis.physical_spectrum
    raises it).  The field is carried as one block per group of
    blocks.field_map (parity sectors and single nodal modes), which never
    correlates two of its groups, so each cycle updates, reads out and
    factors the groups one by one.  A start that correlates two groups
    beyond gaussian.ISOLATION_TOL runs the same code on the whole matrices
    (AffineMap._state); smaller covariances between groups are dropped.
    """
    if n_cycles < 1:
        raise ValueError("need at least one cycle")
    blocks = blocks_for(config)
    step, state = _checked_start(blocks.field_map, sigma_f0)
    sigma_d0 = gaussian.vacuum_state(2)
    detector_freqs = cavity.joint_frequencies(config)[:2]
    field_freqs = cavity.mode_frequencies(config)

    records = []
    for k in range(1, n_cycles + 1):
        after = step._update(state)
        largest = _largest_entry(after)
        if not largest <= GROWTH_CAP:
            raise GrowthOverflowError(
                f"cycle {k}: largest field covariance entry {largest:.3g} passed the "
                f"growth cap {GROWTH_CAP:g}; the cycle map is expanding",
                k_reached=k - 1,
            )
        sigma_d_out = blocks._readout(step.partition, state)
        states = CycleStates(
            sigma_d0, state, sigma_d_out, after, step.partition, detector_freqs, field_freqs
        )
        try:
            values = {name: observe(states) for name, observe in observables.items()}
        except InvalidStateError as exc:
            raise InvalidStateError(f"cycle {k}: {exc}") from exc
        records.append(CycleRecord(cycle=k, values=values))
        state = after
    return Trajectory(records, step.partition.join(state))
