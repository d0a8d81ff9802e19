"""Slot-level Monte Carlo simulation of the deadline-constrained channel.

Every station is saturated: as soon as a head-of-line packet is resolved a
new one takes its place. A packet is resolved in one of two ways. If the
station transmits, that single attempt decides it: the packet succeeds when
the slot carries at most `mpr` transmissions in total, and is lost otherwise.
If the station stays silent for `deadline` consecutive slots, the packet
expires unsent and counts as a failure.

`run_interval` simulates the process for many stations at once. It
consumes one uniform draw per station per slot, slot-major then
station-index order, so it gives the same counts as a per-slot simulation
of the same stream (the tests keep such a reference). It turns each block
of draws into a station-major transmission matrix with one bit per slot.
Per-slot totals mark the decodable slots and the slots of each probed
multiplicity, and a station's count over such a set of slots is the
popcount of its bits ANDed with the set's bits. Expiries come from the
gaps between each station's transmissions, found in one pass over the
matrix (a sparse one is read a byte of eight cells at a time). Each block
is split into slot-contiguous parts, one per usable CPU, that run at once
on threads: a part draws its own piece of the stream from a copy of the
generator moved on by PCG64's exact jump-ahead, so the split changes no
count and leaves the caller's generator where a serial run would.
`run_stationary` runs it for fresh stations at one fixed tau, and
`delivery_rate` turns the counts into delivery rates.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analytic import (ChannelConfig, _int_text, _require_deadline,
                       as_probability)

__all__ = [
    "IntervalOutcome",
    "run_interval",
    "run_stationary",
    "delivery_rate",
]


@dataclass(frozen=True)
class IntervalOutcome:
    """Per-station counts for one simulated stretch of slots.

    probe_counts[c] holds, per station, the number of slots in which the
    station was silent and exactly c transmissions occurred in total.
    """

    completed: np.ndarray
    succeeded: np.ndarray
    probe_counts: dict[int, np.ndarray] = field(default_factory=dict)


# Most station-slots `run_interval` simulates at once. A block peaks at
# about 9 bytes per station-slot while its float64 draw and the bool mask
# coexist, or, when most stations transmit, at up to 25 in the expiry scan
# (1 for the matrix, 24 per transmission for positions and gaps): from
# about 10 MB at a low tau to about 26 MB when every station always sends.
_BLOCK_CELLS = 1 << 20

# Slot-contiguous parts per block, one per usable CPU. The parts hold one
# block's draws between them, so the split does not change the peak.
_PARTS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

# Fewest station-slots worth a part of their own. Handing a part to
# another thread and back costs 0.15-0.3 ms, the serial kernel 8-10 ns a
# station-slot, so a smaller part would cost more than it saves.
_MIN_PART_CELLS = 1 << 16

# Largest share of set cells at which the expiry scan reads the packed
# bytes. At or below 10 % numpy's `flatnonzero` switches to a slower loop
# that skips runs of unset cells, and the packed scan takes about half its
# time (0.30 against 0.71 ms on 40 stations by 10,000 slots at tau 0.069);
# above it numpy's loop is the faster (0.18 against 0.27 ms on 20 stations
# at tau 0.13).
_SPARSE_SCAN_SHARE = 0.1


def _new_pool() -> None:
    """Give the module a fresh pool for every part but the first. It starts
    its threads on first use, so importing the module starts none."""
    global _workers
    _workers = ThreadPoolExecutor(max_workers=max(1, _PARTS - 1))


_new_pool()
if hasattr(os, "register_at_fork"):
    # A forked child inherits the pool's record of its threads but not the
    # threads, so the inherited pool would queue parts that no thread runs.
    os.register_at_fork(after_in_child=_new_pool)


def run_interval(
    rng: np.random.Generator,
    tx_probs: np.ndarray,
    mpr: int,
    deadline: int,
    n_slots: int,
    hol_ages: np.ndarray,
    probes: tuple[int, ...] = (),
) -> IntervalOutcome:
    """Vectorized simulation of `n_slots` slots for len(tx_probs) stations.

    hol_ages is updated in place so consecutive intervals chain exactly like
    one longer interval. The stream is consumed as an (n_slots, n_users)
    uniform block in row-major order, one draw per station per slot, and
    `rng` is left where that serial draw would leave it. The slots are
    simulated in blocks of at most _BLOCK_CELLS station-slots, which bounds
    memory, and each block in up to _PARTS slot-contiguous parts, none much
    smaller than _MIN_PART_CELLS station-slots, that run at once. Blocks and
    parts chain the same way, so neither changes a count.
    """
    n_users = len(tx_probs)
    _require_deadline(deadline)
    if n_slots < 0:
        raise ValueError(f"n_slots must be >= 0, got {_int_text(n_slots)}")
    if len(hol_ages) != n_users:
        raise ValueError(
            f"hol_ages must have one entry per station ({n_users}), "
            f"got {len(hol_ages)}"
        )
    # The per-slot process never carries an age of `deadline` or more; the
    # chaining would expire age // deadline packets for one at once.
    outside = (hol_ages < 0) | (hol_ages >= deadline)
    if outside.any():
        raise ValueError(
            f"hol_ages must lie in [0, deadline), got {hol_ages[outside][0]}"
        )
    # An age never exceeds the slots simulated, so a longer deadline expires
    # no packet, as 2**62 does; the int64 expiry arithmetic needs the clamp.
    deadline = min(deadline, 2**62)
    block = max(1, _BLOCK_CELLS // max(1, n_users))
    bit_gen = rng.bit_generator
    parts = _PARTS if _exact_advance(bit_gen) else 1
    completed = np.zeros(n_users, dtype=np.int64)
    succeeded = np.zeros(n_users, dtype=np.int64)
    probe_counts = {c: np.zeros(n_users, dtype=np.int64) for c in probes}
    for start in range(0, n_slots, block):
        n = min(block, n_slots - start)
        k = max(1, min(parts, n, n * n_users // _MIN_PART_CELLS))
        cuts = [n * i // k for i in range(k + 1)]
        # Part i draws from slot cuts[i] of the block on; the first part
        # draws from `rng` itself.
        rngs = [rng] + [
            np.random.Generator(_advanced(bit_gen, cut * n_users))
            for cut in cuts[1:-1]
        ]
        jobs = [
            (part_rng, hi - lo, tx_probs, mpr, deadline, probes)
            for part_rng, lo, hi in zip(rngs, cuts, cuts[1:])
        ]
        for delivered, heard, hits, inner, head, tail in _run_parts(jobs):
            succeeded += delivered
            for c, part_heard in zip(probes, heard):
                probe_counts[c] += part_heard
            # The part's first silent run follows the age carried in, and a
            # station that never sent carries that whole run on.
            head += hol_ages
            completed += hits + inner + head // deadline
            hol_ages[:] = np.where(hits > 0, tail, head % deadline)
        if k > 1:
            # The last part ended where the serial draw ends. `random` does
            # not touch the generator's buffered 32-bit half, so keep it.
            state = bit_gen.state
            state["state"] = rngs[-1].bit_generator.state["state"]
            bit_gen.state = state
    return IntervalOutcome(completed, succeeded, probe_counts)


def _exact_advance(bit_gen) -> bool:
    """Whether `bit_gen.advance(k)` skips exactly k 64-bit outputs, i.e. k
    float64 uniforms. Philox's counts blocks of four outputs and MT19937
    has none, so those run every block as one part. (Looked up at call
    time: numpy loads `numpy.random` on first use, and a process that never
    simulates should not pay for it.)"""
    return isinstance(bit_gen, (np.random.PCG64, np.random.PCG64DXSM))


def _advanced(bit_gen, outputs: int):
    """A new bit generator at `outputs` 64-bit outputs past `bit_gen`."""
    moved = type(bit_gen)()
    moved.state = bit_gen.state
    return moved.advance(outputs)


def _run_parts(jobs: list[tuple]) -> list[tuple]:
    """`_part(*job)` for every job, in job order: the first on the calling
    thread, the others on the worker pool at the same time."""
    futures = [_workers.submit(_part, *job) for job in jobs[1:]]
    try:
        first = _part(*jobs[0])
    finally:
        # Wait for every worker part, so none outlives the call, and raise
        # what a part raised.
        rest = [future.result() for future in futures]
    return [first, *rest]


def _part(
    rng: np.random.Generator,
    n: int,
    tx_probs: np.ndarray,
    mpr: int,
    deadline: int,
    probes: tuple[int, ...],
) -> tuple:
    """Draw and reduce `n` slots of one block from `rng`.

    Returns, per station, its successes, for each probe in order its heard
    probe slots, its transmissions, the expiries in every silent run but
    the first (the trailing run's included), the first run's length and
    the trailing run mod `deadline`. Only numpy calls that release the
    interpreter lock do the work, so parts on other threads run at once.
    """
    n_users = len(tx_probs)
    transmitted = rng.random((n, n_users)) < tx_probs
    # Station-major, plus a sentinel transmission after the last slot for
    # the expiry scan.
    marks = np.empty((n_users, n + 1), dtype=bool)
    marks[:, :n] = transmitted.T
    marks[:, n] = True
    del transmitted  # not held through the expiry scan
    sent = marks[:, :n]
    # Transmitters per slot, in the smallest type that holds n_users.
    totals = sent.view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(n_users))
    bits = np.packbits(sent, axis=1)
    succeeded = _sent_in(bits, totals <= mpr)
    # Probe slots the station heard, i.e. those it did not send in.
    heard = []
    for c in probes:
        in_probe = totals == c
        heard.append(np.count_nonzero(in_probe) - _sent_in(bits, in_probe))
    hits = np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
    if deadline == 1:
        # Every silent slot expires its packet and no age carries over.
        return succeeded, heard, hits, n - hits, 0 * hits, 0 * hits
    # Set cells: the transmissions and one sentinel per station.
    sparse = hits.sum() + n_users <= _SPARSE_SCAN_SHARE * marks.size
    scan = _packed_flatnonzero if sparse else np.flatnonzero
    # Silent slots before each transmission, the sentinel's included.
    gaps = np.diff(scan(marks), prepend=-1)
    gaps -= 1
    last = np.cumsum(hits + 1) - 1
    first = last - hits
    head = gaps[first]
    tail = gaps[last] % deadline
    gaps[first] = 0
    gaps //= deadline
    return succeeded, heard, hits, np.add.reduceat(gaps, first), head, tail


def _packed_flatnonzero(marks: np.ndarray) -> np.ndarray:
    """`np.flatnonzero(marks)` for a bool array, found a byte of eight cells
    at a time: the set bytes of the packed array first, then the set bits
    of those bytes alone."""
    packed = np.packbits(marks.ravel())
    used = np.flatnonzero(packed != 0)
    cells = np.flatnonzero(np.unpackbits(packed[used]).view(bool))
    return (used[cells >> 3] << 3) | (cells & 7)


def _sent_in(bits: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Per station, its transmissions in the slots where the bool mask
    `slots` is set; `bits` holds each station's slots packed, one row each."""
    return np.bitwise_count(bits & np.packbits(slots)).sum(
        axis=1, dtype=np.int64
    )


def run_stationary(
    config: ChannelConfig, tau, slots: int, seed: int
) -> IntervalOutcome:
    """Simulate `slots` slots with every station at the same fixed tau.

    Fresh stations (hol_age 0), counts from zero. Deterministic in `seed`.
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    return run_interval(
        np.random.default_rng(seed),
        np.full(config.n_users, as_probability(tau)),
        config.mpr,
        config.deadline,
        slots,
        np.zeros(config.n_users, dtype=np.int64),
    )


def delivery_rate(succeeded, completed) -> np.ndarray:
    """Succeeded over completed, element by element; NaN where nothing
    completed."""
    completed = np.asarray(completed)
    rate = np.full(completed.shape, math.nan)
    np.divide(succeeded, completed, out=rate, where=completed > 0)
    return rate
