"""Shared block store: the read path for every node.

Providers and collectors are not consensus participants, but the paper
gives *every* node ``retrieve(s)`` (Section 3.1) — providers must read
blocks to notice a mislabeled transaction and ``argue``.  The
:class:`BlockStore` is the distribution point: governors publish
committed blocks, any node reads them, and per-reader cursors let active
providers consume the chain in order without missing a block (the
definition of an *active* node), from the tip at which they joined.

A store may be *anchored* at a checkpoint base ``(base_serial,
base_hash)``: blocks at or below the base have been compacted away
(their integrity is pinned by a durable Merkle checkpoint — see
:mod:`repro.storage`) and only the suffix is held in memory.  The
default base is 0/genesis, which is the classic full store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import AgreementError, BlockNotFoundError, LedgerError
from repro.ledger.block import GENESIS_PREV_HASH, Block

__all__ = ["BlockStore"]


@dataclass
class BlockStore:
    """Append-once, read-many block distribution.

    Publishing the same serial twice with an identical block is a no-op
    (every governor publishes each round); publishing a *different*
    block for an existing serial raises — that would be an Agreement
    violation surfacing at the storage layer.
    """

    _blocks: dict[int, Block] = field(default_factory=dict)
    _cursors: dict[str, int] = field(default_factory=dict)
    #: Highest serial published, tracked incrementally — ``height`` sits
    #: on the per-round per-reader hot path via ``unread_count``.
    _height: int = 0
    _base_serial: int = 0
    _base_hash: bytes = GENESIS_PREV_HASH

    @property
    def height(self) -> int:
        """Highest serial published so far."""
        return self._height

    @property
    def base_serial(self) -> int:
        """Serial the store is anchored at (0 = full chain from genesis)."""
        return self._base_serial

    @property
    def base_hash(self) -> bytes:
        """Tip hash at ``base_serial`` (genesis hash when unanchored)."""
        return self._base_hash

    def tip_hash(self) -> bytes:
        """Hash the next published block must reference."""
        if self._height == self._base_serial:
            return self._base_hash
        return self.retrieve(self._height).hash()

    def anchor(self, serial: int, tip_hash: bytes) -> None:
        """Anchor an *empty* store at a checkpointed base.

        Raises:
            LedgerError: the store already holds blocks, or the anchor
                is malformed.
        """
        if self._blocks or self._height:
            raise LedgerError("cannot anchor a non-empty store")
        if serial < 1 or len(tip_hash) != 32:
            raise LedgerError(f"malformed anchor (serial {serial})")
        self._base_serial = serial
        self._base_hash = tip_hash
        self._height = serial

    def publish(self, block: Block) -> None:
        """Make ``block`` available to all readers.

        Publishing a serial at or below the anchored base is a no-op:
        those blocks are already pinned by the checkpoint the base came
        from, and the compacted store has nothing to conflict-check
        against.

        Raises:
            AgreementError: a conflicting block exists for this serial.
        """
        if block.serial <= self._base_serial:
            return
        existing = self._blocks.get(block.serial)
        if existing is not None:
            if existing.hash() != block.hash():
                raise AgreementError(
                    f"conflicting blocks published for serial {block.serial}"
                )
            return
        self._blocks[block.serial] = block
        if block.serial > self._height:
            self._height = block.serial

    def retrieve(self, serial: int) -> Block:
        """The paper's ``retrieve(s)`` for any node.

        Raises:
            BlockNotFoundError: serial not yet published, or compacted
                below the anchored base.
        """
        try:
            return self._blocks[serial]
        except KeyError:
            if 1 <= serial <= self._base_serial:
                raise BlockNotFoundError(
                    f"serial {serial} compacted below checkpoint base "
                    f"{self._base_serial}"
                ) from None
            raise BlockNotFoundError(f"no published block with serial {serial}") from None

    def next_for(self, reader: str) -> Block | None:
        """Next unread block for ``reader`` in serial order, or None.

        Advances the reader's cursor; an *active* provider polls this
        every round so that no block escapes its argue check.  A reader
        placed with :meth:`join` starts at the tip it joined at; a
        reader never joined (or forgotten) starts at the anchored base
        (compacted history cannot be replayed from this store).
        """
        cursor = self._cursors.get(reader, self._base_serial)
        block = self._blocks.get(cursor + 1)
        if block is None:
            return None
        self._cursors[reader] = cursor + 1
        return block

    def join(self, reader: str) -> None:
        """Place ``reader``'s cursor at the current tip.

        Engines join each provider when they enrol it: a provider can
        only argue about transactions it signed after it existed, and
        those land in blocks published from now on, so the blocks
        already in the store are never worth its read.
        """
        self._cursors[reader] = self._height

    def unread_count(self, reader: str) -> int:
        """How many published blocks ``reader`` has not consumed yet."""
        return self._height - self._cursors.get(reader, self._base_serial)

    def forget_reader(self, reader: str) -> None:
        """Drop ``reader``'s cursor (no-op if absent).

        Engines call this when a node is retired, quarantined or
        migrated away so ``_cursors`` does not grow without bound under
        churn soaks.
        """
        self._cursors.pop(reader, None)
