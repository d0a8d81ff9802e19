import math

import numpy as np
import pytest

from mpraloha import simulate
from mpraloha.analytic import ChannelConfig, delivery_prob
from mpraloha.simulate import (
    SimResult,
    UserState,
    run_interval,
    run_stationary,
    step_slot,
    theoretical_check,
    z_score,
)


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
        obs = step_slot(users, mpr=2, deadline=4, rng=rng)
        assert [o.tagged_transmitted for o in obs] == [True, False, True]
        assert all(o.total_transmitters == 2 for o in obs)
        assert [u.packets_completed for u in users] == [1, 0, 1]
        assert [u.packets_succeeded for u in users] == [1, 0, 1]
        assert [u.hol_age for u in users] == [0, 1, 0]

    def test_collision_completes_without_success(self):
        users = [UserState(1.0), UserState(1.0), UserState(1.0)]
        rng = _ScriptedRng([[0.0, 0.0, 0.0]])
        obs = step_slot(users, mpr=2, deadline=4, rng=rng)
        assert all(o.total_transmitters == 3 for o in obs)
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
            for j, obs in enumerate(
                step_slot(users, mpr, deadline, rng_ref)
            ):
                if not obs.tagged_transmitted and (
                    obs.total_transmitters in manual
                ):
                    manual[obs.total_transmitters][j] += 1

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
        for j, obs in enumerate(step_slot(users, mpr, deadline, rng)):
            if not obs.tagged_transmitted and obs.total_transmitters in heard:
                heard[obs.total_transmitters][j] += 1
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


class TestRunStationary:
    def test_silent_stations_expire_on_schedule(self):
        cfg = ChannelConfig(4, 2, 5)
        result = run_stationary(cfg, 0.0, 1003, seed=0)
        assert set(result.packets_completed) == {1003 // 5}
        assert set(result.packets_succeeded) == {0}

    def test_saturated_collisions_all_fail(self):
        cfg = ChannelConfig(4, 2, 3)
        result = run_stationary(cfg, 1.0, 500, seed=0)
        assert set(result.packets_completed) == {500}
        assert set(result.packets_succeeded) == {0}

    def test_validation(self):
        cfg = ChannelConfig(4, 2, 3)
        with pytest.raises(ValueError):
            run_stationary(cfg, 0.2, 0, seed=0)
        with pytest.raises(ValueError):
            run_stationary(cfg, 1.2, 100, seed=0)

    def test_empirical_tracks_analytic(self):
        cfg = ChannelConfig(10, 2, 5)
        result = run_stationary(cfg, 0.2, 300_000, seed=11)
        assert result.pooled_sdp() == pytest.approx(
            delivery_prob(cfg, 0.2), abs=0.005
        )

    def test_result_accessors(self):
        r = SimResult(packets_completed=(4, 0), packets_succeeded=(3, 0))
        assert r.pooled_sdp() == pytest.approx(0.75)
        per_user = r.per_user_sdp()
        assert per_user[0] == pytest.approx(0.75)
        assert math.isnan(per_user[1])


class TestTheoreticalCheck:
    def test_frozen_z_score(self):
        cmp = theoretical_check(ChannelConfig(10, 2, 5), 0.2, 1_000_000, 1)
        assert cmp.z_score == pytest.approx(-0.886, abs=1e-3)
        assert cmp.empirical == pytest.approx(cmp.analytic, abs=0.002)
        assert cmp.packets > 1_900_000

    def test_degenerate_tau_gives_exact_zero(self):
        cmp = theoretical_check(ChannelConfig(10, 2, 5), 1.0, 1000, 0)
        assert cmp.empirical == 0.0
        assert cmp.analytic == 0.0
        assert cmp.z_score == 0.0

    def test_z_score_rule(self):
        assert z_score(0.5, 0.4, 0.05) == pytest.approx(2.0)
        assert z_score(0.4, 0.4, 0.0) == 0.0
        assert z_score(0.5, 0.4, 0.0) == math.inf
        assert z_score(0.3, 0.4, 0.0) == -math.inf
