"""Round-bucketed eviction for state bounded by the retention horizon.

The networked engine keeps per-transaction evidence and dedup state
(auditor labels, Δ-timer keys, packed tx ids) only for ``H`` rounds
(:meth:`repro.core.params.ProtocolParams.horizon_rounds`; DESIGN.md,
"Retention horizon").  :class:`RoundBuckets` files each key under the
round it first entered that state, so evicting a round drops its whole
bucket: the cost is O(evicted keys), never a scan of the live state.
"""

from __future__ import annotations

from collections.abc import Hashable

__all__ = ["RoundBuckets"]


class RoundBuckets:
    """Keys filed under the round they were first inserted in.

    File each key once, when it first enters the state it indexes.
    Rounds are expected in non-decreasing order; a key filed under an
    older round after a newer one is evicted no earlier than that
    newer round.
    """

    __slots__ = ("_rounds", "_last", "_bucket")

    def __init__(self) -> None:
        self._rounds: dict[int, list] = {}
        self._last: int | None = None
        self._bucket: list = []

    def add(self, round_number: int, key: Hashable) -> None:
        """File ``key`` under ``round_number``."""
        if round_number != self._last:
            self._bucket = self._rounds.setdefault(round_number, [])
            self._last = round_number
        self._bucket.append(key)

    def pop_through(self, round_number: int) -> list:
        """Remove and return every key filed under rounds ``<= round_number``."""
        evicted: list = []
        rounds = self._rounds
        while rounds and (oldest := next(iter(rounds))) <= round_number:
            evicted.extend(rounds.pop(oldest))
        self._last = None
        return evicted
