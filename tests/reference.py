"""The per-slot reference simulator that `simulate.run_interval` is tested
against.

It simulates one slot at a time for explicit per-station state and spells
out the channel's rules: a station that transmits resolves its packet,
which succeeds when the slot carries at most `mpr` transmissions; a station
silent for `deadline` consecutive slots loses its packet to expiry. It
draws one uniform per station per slot in station order, so run slot after
slot it consumes the stream exactly as `run_interval` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mpraloha.analytic import as_probability


@dataclass
class UserState:
    """Mutable per-station simulation state.

    hol_age counts consecutive silent slots for the current head-of-line
    packet and always stays below the deadline; reaching it expires the
    packet and resets the counter.
    """

    tx_prob: float
    hol_age: int = 0
    packets_completed: int = 0
    packets_succeeded: int = 0

    def __post_init__(self) -> None:
        self.tx_prob = as_probability(self.tx_prob)


def step_slot(
    users: list[UserState],
    mpr: int,
    deadline: int,
    rng: np.random.Generator,
) -> tuple[int, list[bool]]:
    """Advance every station one slot, mutating `users` in place.

    Draws exactly len(users) uniforms from `rng`, in user-index order.
    Returns the slot's number of transmitters and, per station, whether it
    transmitted.
    """
    draws = rng.random(len(users))
    transmitted = [d < u.tx_prob for d, u in zip(draws, users)]
    total = sum(transmitted)
    decodable = total <= mpr
    for user, sent in zip(users, transmitted):
        if sent:
            user.packets_completed += 1
            if decodable:
                user.packets_succeeded += 1
            user.hol_age = 0
        else:
            user.hol_age += 1
            if user.hol_age >= deadline:
                # Deadline passed without a transmission: expired failure.
                user.packets_completed += 1
                user.hol_age = 0
    return total, transmitted
