import csv
import math
import os
import select
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpraloha import cli, simulate
from mpraloha.analytic import ChannelConfig, delivery_prob
from mpraloha.simulate import delivery_rate, run_interval, run_stationary
from reference import UserState, step_slot


class _ScriptedRng:
    """Feeds step_slot a fixed sequence of uniform vectors."""

    def __init__(self, rows):
        self.rows = [np.asarray(r, dtype=float) for r in rows]

    def random(self, n):
        row = self.rows.pop(0)
        assert len(row) == n
        return row


class TestStepSlot:
    def test_decodable_slot_counts_successes(self):
        users = [UserState(0.5), UserState(0.5), UserState(0.5)]
        rng = _ScriptedRng([[0.1, 0.9, 0.1]])
        total, sent = step_slot(users, mpr=2, deadline=4, rng=rng)
        assert sent == [True, False, True]
        assert total == 2
        assert [u.packets_completed for u in users] == [1, 0, 1]
        assert [u.packets_succeeded for u in users] == [1, 0, 1]
        assert [u.hol_age for u in users] == [0, 1, 0]

    def test_collision_completes_without_success(self):
        users = [UserState(1.0), UserState(1.0), UserState(1.0)]
        rng = _ScriptedRng([[0.0, 0.0, 0.0]])
        total, _ = step_slot(users, mpr=2, deadline=4, rng=rng)
        assert total == 3
        assert [u.packets_completed for u in users] == [1, 1, 1]
        assert [u.packets_succeeded for u in users] == [0, 0, 0]

    def test_deadline_expiry_is_a_completed_failure(self):
        users = [UserState(0.0)]
        rng = _ScriptedRng([[0.5], [0.5], [0.5], [0.5]])
        for _ in range(4):
            step_slot(users, mpr=1, deadline=2, rng=rng)
        # Two silent slots per expiry: four slots make two expired packets.
        assert users[0].packets_completed == 2
        assert users[0].packets_succeeded == 0
        assert users[0].hol_age == 0

    def test_transmission_resets_deadline_clock(self):
        users = [UserState(0.5)]
        rng = _ScriptedRng([[0.9], [0.1], [0.9], [0.9]])
        for _ in range(4):
            step_slot(users, mpr=1, deadline=3, rng=rng)
        # Silent, send, silent, silent: one success, no expiry yet.
        assert users[0].packets_completed == 1
        assert users[0].packets_succeeded == 1
        assert users[0].hol_age == 2


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("deadline", [1, 3, 7])
    def test_matches_reference_bit_for_bit(self, deadline):
        n, mpr, slots = 9, 3, 2500
        taus = np.linspace(0.05, 0.6, n)
        rng_ref = np.random.default_rng(123)
        users = [UserState(float(t)) for t in taus]
        for _ in range(slots):
            step_slot(users, mpr, deadline, rng_ref)

        rng_vec = np.random.default_rng(123)
        ages = np.zeros(n, dtype=np.int64)
        out = run_interval(rng_vec, taus, mpr, deadline, slots, ages)
        assert list(out.completed) == [u.packets_completed for u in users]
        assert list(out.succeeded) == [u.packets_succeeded for u in users]
        assert list(ages) == [u.hol_age for u in users]

    def test_interval_chaining_matches_single_run(self):
        n, mpr, deadline = 6, 2, 4
        taus = np.full(n, 0.25)
        rng_a = np.random.default_rng(5)
        ages_a = np.zeros(n, dtype=np.int64)
        out1 = run_interval(rng_a, taus, mpr, deadline, 1300, ages_a)
        out2 = run_interval(rng_a, taus, mpr, deadline, 700, ages_a)

        rng_b = np.random.default_rng(5)
        ages_b = np.zeros(n, dtype=np.int64)
        whole = run_interval(rng_b, taus, mpr, deadline, 2000, ages_b)
        assert list(out1.completed + out2.completed) == list(whole.completed)
        assert list(out1.succeeded + out2.succeeded) == list(whole.succeeded)
        assert list(ages_a) == list(ages_b)

    def test_block_cells_do_not_change_results(self, monkeypatch):
        n, mpr, deadline, slots = 7, 3, 4, 2003
        taus = np.linspace(0.05, 0.5, n)
        probes = (1, 2, 3)

        def run():
            ages = np.zeros(n, dtype=np.int64)
            out = run_interval(
                np.random.default_rng(9), taus, mpr, deadline, slots, ages,
                probes=probes,
            )
            return out, ages

        whole, ages_whole = run()
        # Blocks of 3 slots (rounded down from 23 cells over 7 stations).
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", 23)
        blocked, ages_blocked = run()
        assert list(blocked.completed) == list(whole.completed)
        assert list(blocked.succeeded) == list(whole.succeeded)
        for c in probes:
            assert list(blocked.probe_counts[c]) == list(whole.probe_counts[c])
        assert list(ages_blocked) == list(ages_whole)

    def test_probe_counts_match_reference_observations(self):
        n, mpr, deadline, slots = 8, 4, 5, 1500
        taus = np.linspace(0.1, 0.5, n)
        probes = (1, 2, 3, 4)

        rng_ref = np.random.default_rng(77)
        users = [UserState(float(t)) for t in taus]
        manual = {c: [0] * n for c in probes}
        for _ in range(slots):
            total, sent = step_slot(users, mpr, deadline, rng_ref)
            if total in manual:
                for j, tagged in enumerate(sent):
                    if not tagged:
                        manual[total][j] += 1

        rng_vec = np.random.default_rng(77)
        ages = np.zeros(n, dtype=np.int64)
        out = run_interval(
            rng_vec, taus, mpr, deadline, slots, ages, probes=probes
        )
        for c in probes:
            assert list(out.probe_counts[c]) == manual[c]


def _reference(taus, mpr, deadline, slots, rng, ages, probes):
    """Per-slot `step_slot` run from the given head-of-line ages: counts,
    final ages and, per probe c, the silent slots with c transmitters."""
    users = [UserState(float(t), hol_age=int(a)) for t, a in zip(taus, ages)]
    heard = {c: [0] * len(users) for c in probes}
    for _ in range(slots):
        total, sent = step_slot(users, mpr, deadline, rng)
        if total in heard:
            for j, tagged in enumerate(sent):
                if not tagged:
                    heard[total][j] += 1
    return (
        [u.packets_completed for u in users],
        [u.packets_succeeded for u in users],
        [u.hol_age for u in users],
        heard,
    )


def _assert_matches_reference(taus, mpr, deadline, slots, seed, probes):
    """Run `run_interval` and the `step_slot` reference on the same stream
    from the same random ages and require identical results; returns the
    reference's successes and probe counts."""
    ages = np.random.default_rng(seed).integers(0, deadline, len(taus))
    rng_ref = np.random.default_rng(seed)
    completed, succeeded, ref_ages, heard = _reference(
        taus, mpr, deadline, slots, rng_ref, ages, probes
    )
    rng_vec = np.random.default_rng(seed)
    vec_ages = ages.astype(np.int64)
    out = run_interval(
        rng_vec, taus, mpr, deadline, slots, vec_ages, probes=probes
    )
    assert list(out.completed) == completed
    assert list(out.succeeded) == succeeded
    assert list(vec_ages) == ref_ages
    for c in probes:
        assert list(out.probe_counts[c]) == heard[c]
    # Both consumed the same number of draws.
    assert rng_vec.random() == rng_ref.random()
    return succeeded, heard


class TestKernelEdgeCases:
    """`run_interval` against `step_slot`, bit for bit, where the blocked
    kernel has special cases: degenerate tau, the one-slot deadline, ages
    carried in, intervals shorter than the deadline, probes counted
    across block boundaries and more than 255 stations."""

    # Two stations that always send and two that never do, around
    # interior ones: every slot carries at least two transmissions.
    TAUS = np.array([0.0, 1.0, 0.35, 0.0, 0.1, 1.0, 0.6])
    PROBES = (0, 1, 2, 4)

    @pytest.mark.parametrize("block_cells", [None, 23])
    @pytest.mark.parametrize("slots", [1, 4, 500])
    @pytest.mark.parametrize("deadline", [1, 2, 6])
    def test_matches_reference(
        self, monkeypatch, deadline, slots, block_cells
    ):
        if block_cells is not None:
            # Blocks of 3 slots (23 cells over 7 stations).
            monkeypatch.setattr(simulate, "_BLOCK_CELLS", block_cells)
        _assert_matches_reference(
            self.TAUS, 3, deadline, slots, 31 * deadline + slots, self.PROBES
        )

    def test_many_stations_match_reference(self):
        # Over 255 stations the per-slot totals need more than a byte.
        taus = np.full(300, 0.9)
        taus[:5], taus[5:10] = 0.0, 1.0
        succeeded, heard = _assert_matches_reference(
            taus, 270, 4, 40, 8, (255, 262, 266, 301)
        )
        assert sum(succeeded) > 0 and sum(heard[266]) > 0


@pytest.mark.parametrize("deadline, slots, n_ages, name", [
    (0, 10, 3, "deadline"), (2, -1, 3, "n_slots"), (2, 10, 2, "hol_ages"),
], ids=["deadline-0", "slots-negative", "ages-length"])
def test_run_interval_rejects_what_it_cannot_simulate(
    deadline, slots, n_ages, name
):
    with pytest.raises(ValueError, match=name):
        run_interval(np.random.default_rng(0), np.full(3, 0.5), 2, deadline,
                     slots, np.zeros(n_ages, dtype=np.int64))


@pytest.mark.parametrize("probs, mpr, message", [
    ([0.5, 1.5, 0.5], 2, "tx_probs must lie in [0, 1], got 1.5 for station 1"),
    ([0.5, 0.5, math.nan], 2,
     "tx_probs must lie in [0, 1], got nan for station 2"),
    ([-0.1, 0.5, 0.5], 2,
     "tx_probs must lie in [0, 1], got -0.1 for station 0"),
    ([0.5, 0.5, 0.5], 0, "mpr must be >= 1, got 0"),
    ([0.5, 0.5, 0.5], -10**5000,
     "mpr must be >= 1, got a negative 5001-digit number"),
], ids=["prob-above-1", "prob-nan", "prob-negative", "mpr-0", "mpr-huge"])
def test_run_interval_rejects_what_no_station_can_do(probs, mpr, message):
    # A probability above 1 would send in every slot, NaN or a negative one
    # in none, and mpr 0 would fail every packet: all raise before a draw.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as info:
        run_interval(rng, np.array(probs), mpr, 5, 10,
                     np.zeros(3, dtype=np.int64))
    assert str(info.value) == message
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("deadline, age", [
    (1, 1), (1, 3), (4, 4), (4, -1), (2**62, 2**62),
])
def test_run_interval_rejects_ages_outside_the_deadline(deadline, age):
    # The per-slot reference keeps every age below the deadline; an age at
    # or past it would be counted as that many silent slots.
    ages = np.array([0, age, 0], dtype=np.int64)
    with pytest.raises(ValueError, match="hol_ages must lie in"):
        run_interval(np.random.default_rng(0), np.full(3, 0.5), 2, deadline,
                     10, ages)


@pytest.mark.parametrize("deadline", [2**62, 10**19, 2**70])
def test_deadline_past_int64_acts_as_no_deadline(deadline):
    # No age passes the slots simulated plus the age carried in (307 here),
    # so a longer deadline, beyond int64 included, must count as 308 does.
    taus = np.array([0.0, 0.02, 0.3, 1.0])

    def run(d):
        rng = np.random.default_rng(4)
        ages = np.array([5, 0, 7, 2], dtype=np.int64)
        out = run_interval(rng, taus, 2, d, 300, ages, probes=(0, 1, 2))
        probes = {c: v.tolist() for c, v in out.probe_counts.items()}
        return (out.completed.tolist(), out.succeeded.tolist(), probes,
                ages.tolist(), rng.bit_generator.state)

    assert run(deadline) == run(308)


def _marks(n_users, slots, density, seed, n_silent=0, n_busy=0):
    """A station-major transmission matrix with the expiry scan's sentinel
    column: cells set at `density`, then `n_silent` rows that never send
    and `n_busy` rows that always do, at random rows."""
    rng = np.random.default_rng(seed)
    marks = np.empty((n_users, slots + 1), dtype=bool)
    marks[:, :slots] = rng.random((n_users, slots)) < density
    rows = rng.permutation(n_users)
    marks[rows[:n_silent], :slots] = False
    marks[rows[n_silent:n_silent + n_busy], :slots] = True
    marks[:, slots] = True
    return marks


@st.composite
def _station_major_marks(draw):
    n_users = draw(st.one_of(st.integers(1, 40), st.integers(250, 300)))
    n_silent = draw(st.integers(0, n_users))
    return _marks(
        n_users,
        draw(st.integers(1, 45)),
        draw(st.one_of(st.floats(0.0, 0.2), st.floats(0.0, 1.0))),
        draw(st.integers(0, 2**32 - 1)),
        n_silent,
        draw(st.integers(0, n_users - n_silent)),
    )


class TestSparseScan:
    """The expiry scan's packed-byte path against `np.flatnonzero`, and
    `run_interval` against the reference with each scan forced."""

    @given(marks=_station_major_marks())
    @example(marks=_marks(300, 13, 0.05, 1, n_silent=40, n_busy=3))
    @example(marks=_marks(20, 8, 0.5, 2, n_silent=20))
    @example(marks=_marks(7, 1, 1.0, 3))
    @settings(max_examples=200, deadline=None)
    def test_matches_flatnonzero(self, marks):
        got = simulate._packed_flatnonzero(marks)
        want = np.flatnonzero(marks)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    # Silent, always-sending and low-tau stations.
    TAUS = np.array([0.0, 0.02, 1.0, 0.05, 0.0, 0.1, 0.01, 0.15, 0.03])
    PROBES = (0, 1, 2)

    @pytest.mark.parametrize("block_cells", [None, 23])
    @pytest.mark.parametrize("share", [0.0, 1.0])
    def test_each_scan_matches_reference(self, monkeypatch, share,
                                         block_cells):
        # A share of 0 sends every part to `np.flatnonzero`, 1 to the
        # packed scan.
        monkeypatch.setattr(simulate, "_SPARSE_SCAN_SHARE", share)
        if block_cells is not None:
            # Blocks of 2 slots (23 cells over 9 stations).
            monkeypatch.setattr(simulate, "_BLOCK_CELLS", block_cells)
        _assert_matches_reference(self.TAUS, 2, 6, 700, 41, self.PROBES)


def _split(monkeypatch, parts):
    """Run every block of `run_interval` as up to `parts` parts, however
    few station-slots it has."""
    monkeypatch.setattr(simulate, "_PARTS", parts)
    monkeypatch.setattr(simulate, "_MIN_PART_CELLS", 1)


def _outcome(rng, taus, mpr, deadline, slots, ages, probes):
    """`run_interval` from copies of `ages`: counts, final ages and the
    caller's generator state after the call."""
    ages = np.array(ages, dtype=np.int64)
    out = run_interval(rng, taus, mpr, deadline, slots, ages, probes=probes)
    return (
        out.completed.tolist(),
        out.succeeded.tolist(),
        {c: out.probe_counts[c].tolist() for c in probes},
        ages.tolist(),
        rng.bit_generator.state,
    )


class TestParts:
    """A block run as several slot-contiguous parts, each drawing from a
    copy of the stream moved on by `advance`, against the same block run
    as one part."""

    TAUS = np.array([0.0, 1.0, 0.35, 0.05, 0.1, 0.6, 0.2])
    PROBES = (0, 1, 2, 4)
    DRAW_CELLS = (1, 7, 23)

    def _compare(self, monkeypatch, parts, taus, deadline, slots, seed,
                 block_cells=None, buffered=False, mpr=3, probes=PROBES):
        if block_cells is not None:
            monkeypatch.setattr(simulate, "_BLOCK_CELLS", block_cells)
        ages = np.random.default_rng(seed).integers(0, deadline, len(taus))
        results = []
        for p in (1, parts):
            _split(monkeypatch, p)
            rng = np.random.default_rng(seed)
            if buffered:
                # Leaves half of a 64-bit output buffered in the generator.
                rng.integers(0, 10, dtype=np.int32)
            results.append(
                _outcome(rng, taus, mpr, deadline, slots, ages, probes)
            )
        # The split run again with draw chunks of under one slot row (one
        # slot a chunk) and of a few rows that do not divide the part.
        for cells in self.DRAW_CELLS:
            monkeypatch.setattr(simulate, "_DRAW_CELLS", cells)
            rng = np.random.default_rng(seed)
            if buffered:
                rng.integers(0, 10, dtype=np.int32)
            results.append(
                _outcome(rng, taus, mpr, deadline, slots, ages, probes)
            )
        one, *split = results
        for other in split:
            assert other[:4] == one[:4]
            assert other[4] == one[4]
        return one

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("slots", [1, 2, 999, 2001])
    @pytest.mark.parametrize("deadline", [1, 2, 6])
    def test_parts_match_one_part(self, monkeypatch, parts, deadline, slots):
        self._compare(
            monkeypatch, parts, self.TAUS, deadline, slots, 7 * slots + deadline
        )

    def test_more_parts_than_slots(self, monkeypatch):
        # Eight parts asked for, five slots: five one-slot parts.
        self._compare(monkeypatch, 8, self.TAUS, 4, 5, 12)

    @pytest.mark.parametrize("deadline", [1, 5])
    def test_small_blocks_in_three_parts(self, monkeypatch, deadline):
        # Blocks of 3 slots (23 cells over 7 stations), each 3 parts.
        self._compare(
            monkeypatch, 3, self.TAUS, deadline, 2003, 19, block_cells=23
        )

    def test_many_stations(self, monkeypatch):
        taus = np.full(300, 0.9)
        taus[:5], taus[5:10] = 0.0, 1.0
        # Over 255 stations the per-slot totals need more than a byte.
        one = self._compare(monkeypatch, 3, taus, 4, 41, 8, mpr=270,
                            probes=(255, 262, 266, 301))
        assert sum(one[1]) > 0 and sum(one[2][266]) > 0

    def test_buffered_half_output_is_kept(self, monkeypatch):
        self._compare(monkeypatch, 3, self.TAUS, 4, 300, 2, buffered=True)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                               np.random.Philox])
    def test_generator_without_exact_advance(self, monkeypatch,
                                             bit_generator):
        # MT19937 has no `advance`, and Philox's moves blocks of four
        # outputs: both run every block as one part, as `step_slot` does.
        _split(monkeypatch, 3)
        ages = np.array([0, 1, 2, 3, 0, 1, 2])
        rng_ref = np.random.Generator(bit_generator(5))
        completed, succeeded, ref_ages, heard = _reference(
            self.TAUS, 3, 4, 300, rng_ref, ages, self.PROBES
        )
        rng = np.random.Generator(bit_generator(5))
        out = _outcome(rng, self.TAUS, 3, 4, 300, ages, self.PROBES)
        assert out[:4] == (completed, succeeded, heard, ref_ages)
        assert rng.random() == rng_ref.random()

    @pytest.mark.parametrize("parts", [1, 2])
    def test_memory_stays_per_block(self, monkeypatch, parts):
        # Every station always sends, so the expiry scan's arrays are as
        # large as they get. Five blocks, in parts, must peak no higher
        # than one block in one part (parts that happen to run one after
        # the other peak lower, so the reference is the one-part block).
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", 50 * 2000)
        taus = np.ones(50)

        def peak(slots):
            ages = np.zeros(50, dtype=np.int64)
            tracemalloc.start()
            try:
                run_interval(np.random.default_rng(0), taus, 3, 4, slots,
                             ages)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _split(monkeypatch, 1)
        peak(2000)  # first use: numpy's caches
        one_block = peak(2000)
        _split(monkeypatch, parts)
        peak(2000)  # first use of the worker thread
        assert peak(5 * 2000) <= 1.05 * one_block

    @pytest.mark.parametrize("parts", [1, 3])
    @pytest.mark.parametrize("draw_cells", DRAW_CELLS)
    def test_draw_chunks_match_reference(self, monkeypatch, parts,
                                         draw_cells):
        # 7 stations: one slot a chunk for 1 and 7 cells, three slots for
        # 23, which divides none of the parts of 301 slots.
        monkeypatch.setattr(simulate, "_DRAW_CELLS", draw_cells)
        _split(monkeypatch, parts)
        ages = np.array([0, 1, 2, 3, 0, 1, 2])
        rng_ref = np.random.default_rng(11)
        completed, succeeded, ref_ages, heard = _reference(
            self.TAUS, 3, 4, 301, rng_ref, ages, self.PROBES
        )
        rng = np.random.default_rng(11)
        out = _outcome(rng, self.TAUS, 3, 4, 301, ages, self.PROBES)
        assert out[:4] == (completed, succeeded, heard, ref_ages)
        assert out[4] == rng_ref.bit_generator.state

    def test_draw_peaks_at_one_chunk(self, monkeypatch):
        # A `surge` call: 40 stations by 20,000 slots at tau 0.069. The
        # float64 draw lives one chunk at a time, so the call peaks below
        # the matrix plus one chunk of uniforms plus the expiry scan's
        # arrays (two packed rows of bits, and 32 bytes a set cell for
        # positions and gaps), not at 9 bytes a station-slot.
        _split(monkeypatch, 1)
        n_users, slots = 40, 20_000
        taus = np.full(n_users, 0.069)

        def call(rng):
            run_interval(rng, taus, 5, 20, slots,
                         np.zeros(n_users, dtype=np.int64), probes=(2, 5))

        rng = np.random.default_rng(1)
        call(rng)  # first use: numpy's caches
        tracemalloc.start()
        try:
            call(rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = n_users * slots
        set_cells = 0.069 * cells + n_users
        bound = (n_users * (slots + 1) + 8 * simulate._DRAW_CELLS
                 + 2 * cells // 8 + 32 * 1.1 * set_cells)
        assert peak < bound < 9 * cells

    def test_two_part_call_peak(self, monkeypatch):
        # The same call in 2 parts, whose draw chunks live at once when the
        # parts overlap. With 1 MiB chunks of 2^17 cells, 65 calls peaked
        # at 3.03 MiB at most; with 2 MiB chunks of 2^18, 54 of 60 calls
        # peaked above 3.4 MiB, most at 4.84 MiB. The highest of five
        # calls stays under a fixed bound.
        _split(monkeypatch, 2)
        taus = np.full(40, 0.069)
        rng = np.random.default_rng(1)

        def peak():
            ages = np.zeros(40, dtype=np.int64)
            tracemalloc.start()
            try:
                run_interval(rng, taus, 5, 20, 20_000, ages, probes=(2, 5))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak()  # first use: numpy's caches and the worker thread
        peaks = [peak() for _ in range(5)]
        assert max(peaks) < 3.4 * 2**20, peaks

    def test_part_failure_propagates(self, monkeypatch):
        _split(monkeypatch, 2)
        part = simulate._part

        def fail_off_the_calling_thread(*job):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("part 2 failed")
            return part(*job)

        monkeypatch.setattr(simulate, "_part", fail_off_the_calling_thread)
        with pytest.raises(RuntimeError, match="part 2 failed"):
            run_interval(
                np.random.default_rng(0), self.TAUS, 3, 4, 100,
                np.zeros(len(self.TAUS), dtype=np.int64),
            )

    def test_concurrent_callers(self, monkeypatch):
        # Six callers share the worker pool at once, with frequent thread
        # switches; each must get its one-part result.
        _split(monkeypatch, 1)
        expected = [
            _outcome(np.random.default_rng(s), self.TAUS, 3, 4, 400,
                     np.zeros(7), self.PROBES)
            for s in range(6)
        ]
        _split(monkeypatch, 3)
        got = [None] * 6

        def call(s):
            got[s] = _outcome(np.random.default_rng(s), self.TAUS, 3, 4,
                              400, np.zeros(7), self.PROBES)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(s,))
                       for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
    def test_forked_child_runs_parts(self, monkeypatch):
        # The parent's worker thread is running when it forks; the child
        # must still get its parts run, not wait on the inherited pool.
        _split(monkeypatch, 1)
        expected = _outcome(np.random.default_rng(3), self.TAUS, 3, 4, 400,
                            np.zeros(7), self.PROBES)
        _split(monkeypatch, 2)
        assert _outcome(np.random.default_rng(3), self.TAUS, 3, 4, 400,
                        np.zeros(7), self.PROBES) == expected
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                got = _outcome(np.random.default_rng(3), self.TAUS, 3, 4,
                               400, np.zeros(7), self.PROBES)
                os.write(write, b"1" if got == expected else b"0")
            finally:
                os._exit(0)
        os.close(write)
        try:
            ready, _, _ = select.select([read], [], [], 60)
            answer = os.read(read, 1) if ready else b"timed out"
        finally:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert answer == b"1"

    def test_import_starts_no_thread(self):
        # Nor does it load numpy's random module: `solve`, `sweep` and
        # `verify` never draw and should not pay for it in start-up time or
        # memory.
        code = (
            "import sys, threading\n"
            "before = threading.active_count()\n"
            "import mpraloha\n"
            "from mpraloha import simulate\n"
            "assert threading.active_count() == before\n"
            "assert 'numpy.random' not in sys.modules\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=60)


@st.composite
def _chained_calls(draw):
    """Stations, deadline, carried ages, slots and parts for one
    `run_interval` call. Tau 0 stations never send, so they stay silent
    through every part; low tau gives silent runs that cross the parts'
    boundaries."""
    n_users = draw(st.integers(1, 8))
    taus = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.2),
                  st.floats(0.0, 1.0)),
        min_size=n_users, max_size=n_users,
    ))
    deadline = draw(st.sampled_from([1, 2, 7, 2**62]))
    ages = draw(st.lists(st.integers(0, deadline - 1), min_size=n_users,
                         max_size=n_users))
    return (np.array(taus), draw(st.integers(1, 3)), deadline, ages,
            draw(st.integers(1, 300)), draw(st.integers(1, 4)),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from([1, 7, 23, simulate._DRAW_CELLS])))


@given(call=_chained_calls())
@example(call=(np.array([0.0, 0.05, 1.0]), 2, 7, [5, 6, 3], 40, 4, 1,
               simulate._DRAW_CELLS))
@example(call=(np.array([0.0, 0.3]), 1, 2**62, [2**62 - 50, 9], 300, 3, 2,
               simulate._DRAW_CELLS))
@example(call=(np.array([0.0, 0.05, 1.0, 0.5]), 2, 7, [5, 6, 3, 0], 97, 3,
               4, 7))
@settings(max_examples=150, deadline=None)
def test_chained_parts_match_reference(call):
    # Each part hands back per-station counts only, and the calling thread
    # chains them through the ages: the result must be the per-slot one,
    # whatever chunks each part draws its slots in.
    taus, mpr, deadline, ages, slots, parts, seed, draw_cells = call
    probes = (0, 1, 2)
    rng_ref = np.random.default_rng(seed)
    completed, succeeded, ref_ages, heard = _reference(
        taus, mpr, deadline, slots, rng_ref, ages, probes
    )
    with pytest.MonkeyPatch.context() as patch:
        _split(patch, parts)
        patch.setattr(simulate, "_DRAW_CELLS", draw_cells)
        got = _outcome(np.random.default_rng(seed), taus, mpr, deadline,
                       slots, ages, probes)
    assert got[:4] == (completed, succeeded, heard, ref_ages)
    assert got[4] == rng_ref.bit_generator.state


class TestRunStationary:
    def test_silent_stations_expire_on_schedule(self):
        cfg = ChannelConfig(4, 2, 5)
        outcome = run_stationary(cfg, 0.0, 1003, seed=0)
        assert outcome.completed.tolist() == [1003 // 5] * 4
        assert outcome.succeeded.tolist() == [0] * 4

    def test_saturated_collisions_all_fail(self):
        cfg = ChannelConfig(4, 2, 3)
        outcome = run_stationary(cfg, 1.0, 500, seed=0)
        assert outcome.completed.tolist() == [500] * 4
        assert outcome.succeeded.tolist() == [0] * 4

    def test_validation(self):
        cfg = ChannelConfig(4, 2, 3)
        with pytest.raises(ValueError):
            run_stationary(cfg, 0.2, 0, seed=0)
        with pytest.raises(ValueError):
            run_stationary(cfg, 1.2, 100, seed=0)

    def test_empirical_tracks_analytic(self):
        cfg = ChannelConfig(10, 2, 5)
        outcome = run_stationary(cfg, 0.2, 300_000, seed=11)
        pooled = delivery_rate(
            outcome.succeeded.sum(), outcome.completed.sum()
        )
        assert pooled == pytest.approx(delivery_prob(cfg, 0.2), abs=0.005)


class TestDeliveryRate:
    def test_elementwise_with_nan(self):
        rate = delivery_rate(np.array([3, 0, 2]), np.array([4, 0, 2]))
        assert rate[0] == pytest.approx(0.75)
        assert math.isnan(rate[1])
        assert rate[2] == 1.0
        assert delivery_rate(3, 4) == pytest.approx(0.75)
        assert math.isnan(delivery_rate(0, 0))


def _aggregate_row(tmp_path, tau, slots, seed):
    """The aggregate row of `mpraloha simulate` for (10, 2, 5) at one
    replication."""
    path = tmp_path / "reps.csv"
    assert cli.main(
        ["simulate", "--n", "10", "--m", "2", "--d", "5",
         "--tau", str(tau), "--slots", str(slots), "--seed", str(seed),
         "--out", str(path)]
    ) == 0
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))[-1]


class TestTheoreticalCheck:
    def test_frozen_z_score(self, tmp_path):
        row = _aggregate_row(tmp_path, 0.2, 1_000_000, 1)
        assert float(row["z_score"]) == pytest.approx(-0.886, abs=1e-3)
        assert float(row["sdp"]) == pytest.approx(
            float(row["analytic"]), abs=0.002
        )
        assert int(row["packets_completed"]) > 1_900_000

    def test_degenerate_tau_gives_exact_zero(self, tmp_path):
        row = _aggregate_row(tmp_path, 1.0, 1000, 0)
        assert float(row["sdp"]) == 0.0
        assert float(row["analytic"]) == 0.0
        assert float(row["z_score"]) == 0.0

    def test_z_score_rule(self):
        z_score = cli._z_score
        assert z_score(0.5, 0.4, 0.05) == pytest.approx(2.0)
        assert z_score(0.4, 0.4, 0.0) == 0.0
        assert z_score(0.5, 0.4, 0.0) == math.inf
        assert z_score(0.3, 0.4, 0.0) == -math.inf
