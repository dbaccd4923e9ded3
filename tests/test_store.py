"""Unit tests for the shared block store."""

from __future__ import annotations

import pytest

from repro.crypto.signatures import SigningKey
from repro.exceptions import AgreementError, BlockNotFoundError, LedgerError
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.store import BlockStore
from repro.ledger.transaction import CheckStatus, Label, TxRecord, make_signed_transaction

KEY = SigningKey(owner="p0", secret=b"\x0e" * 32)


def block(serial: int, payload: str = "x", prev: bytes = GENESIS_PREV_HASH) -> Block:
    tx = make_signed_transaction(KEY, payload, 1.0, nonce=serial)
    rec = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)
    return Block(
        serial=serial, tx_list=(rec,), prev_hash=prev, proposer="g0", round_number=serial
    )


class TestPublish:
    def test_publish_and_retrieve(self):
        store = BlockStore()
        b = block(1)
        store.publish(b)
        assert store.retrieve(1) is b
        assert store.height == 1

    def test_republish_identical_is_noop(self):
        store = BlockStore()
        b = block(1)
        store.publish(b)
        store.publish(b)
        assert store.height == 1

    def test_conflicting_publish_rejected(self):
        store = BlockStore()
        store.publish(block(1, "a"))
        with pytest.raises(AgreementError):
            store.publish(block(1, "b"))

    def test_retrieve_missing(self):
        with pytest.raises(BlockNotFoundError):
            BlockStore().retrieve(1)


class TestCursors:
    def test_next_for_walks_in_order(self):
        store = BlockStore()
        b1, b2 = block(1), block(2)
        store.publish(b1)
        store.publish(b2)
        assert store.next_for("reader").serial == 1
        assert store.next_for("reader").serial == 2
        assert store.next_for("reader") is None

    def test_cursors_independent_per_reader(self):
        store = BlockStore()
        store.publish(block(1))
        assert store.next_for("a").serial == 1
        assert store.next_for("b").serial == 1

    def test_unread_count(self):
        store = BlockStore()
        store.publish(block(1))
        store.publish(block(2))
        assert store.unread_count("r") == 2
        store.next_for("r")
        assert store.unread_count("r") == 1

    def test_reader_resumes_after_gap_fill(self):
        store = BlockStore()
        store.publish(block(1))
        store.next_for("r")
        assert store.next_for("r") is None
        store.publish(block(2))
        assert store.next_for("r").serial == 2


class TestIncrementalHeight:
    def test_height_tracks_max_serial(self):
        store = BlockStore()
        store.publish(block(1))
        store.publish(block(3))
        assert store.height == 3
        store.publish(block(2))
        assert store.height == 3

    def test_republish_leaves_height_alone(self):
        store = BlockStore()
        b = block(2)
        store.publish(b)
        store.publish(b)
        assert store.height == 2

    def test_tip_hash_follows_latest(self):
        store = BlockStore()
        assert store.tip_hash() == GENESIS_PREV_HASH
        b1 = block(1)
        store.publish(b1)
        assert store.tip_hash() == b1.hash()


class TestForgetReader:
    def test_forget_resets_cursor(self):
        store = BlockStore()
        store.publish(block(1))
        store.publish(block(2))
        assert store.next_for("r").serial == 1
        store.forget_reader("r")
        assert store.next_for("r").serial == 1
        assert store.unread_count("r") == 1

    def test_forget_unknown_reader_is_noop(self):
        BlockStore().forget_reader("never-seen")


class TestJoin:
    def test_join_starts_reader_at_height(self):
        store = BlockStore()
        store.publish(block(1))
        store.publish(block(2))
        store.join("r")
        assert store.unread_count("r") == 0
        assert store.next_for("r") is None
        store.publish(block(3))
        assert store.unread_count("r") == 1
        assert store.next_for("r").serial == 3

    def test_join_on_empty_store_reads_from_genesis(self):
        store = BlockStore()
        store.join("r")
        assert store.unread_count("r") == 0
        store.publish(block(1))
        assert store.next_for("r").serial == 1

    def test_join_on_anchored_store(self):
        store = BlockStore()
        tip = b"\xaa" * 32
        store.anchor(serial=5, tip_hash=tip)
        store.join("r")
        assert store.unread_count("r") == 0
        b6 = block(6, prev=tip)
        store.publish(b6)
        store.join("late")
        assert store.unread_count("late") == 0
        assert store.next_for("late") is None
        assert store.next_for("r") is b6

    def test_join_after_forget_reader(self):
        store = BlockStore()
        store.publish(block(1))
        store.join("r")
        store.publish(block(2))
        assert store.next_for("r").serial == 2
        store.forget_reader("r")
        store.publish(block(3))
        # Forgotten, the reader would start over at the base ...
        assert store.unread_count("r") == 3
        # ... re-joined, it starts at the tip instead.
        store.join("r")
        assert store.unread_count("r") == 0
        assert store.next_for("r") is None
        store.publish(block(4))
        assert store.next_for("r").serial == 4

    def test_join_leaves_other_readers_alone(self):
        store = BlockStore()
        store.publish(block(1))
        store.join("late")
        assert store.next_for("early").serial == 1
        assert store.next_for("late") is None


class TestAnchoredStore:
    TIP = b"\xaa" * 32

    def anchored(self) -> BlockStore:
        store = BlockStore()
        store.anchor(serial=5, tip_hash=self.TIP)
        return store

    def test_anchor_sets_base_and_tip(self):
        store = self.anchored()
        assert store.height == 5
        assert store.base_serial == 5
        assert store.tip_hash() == self.TIP

    def test_anchor_nonempty_rejected(self):
        store = BlockStore()
        store.publish(block(1))
        with pytest.raises(LedgerError):
            store.anchor(serial=1, tip_hash=self.TIP)

    def test_anchor_malformed_rejected(self):
        with pytest.raises(LedgerError):
            BlockStore().anchor(serial=0, tip_hash=self.TIP)
        with pytest.raises(LedgerError):
            BlockStore().anchor(serial=1, tip_hash=b"short")

    def test_publish_below_base_is_noop(self):
        store = self.anchored()
        store.publish(block(3))
        assert store.height == 5
        with pytest.raises(BlockNotFoundError, match="compacted"):
            store.retrieve(3)

    def test_publish_continues_above_base(self):
        store = self.anchored()
        b6 = block(6, prev=self.TIP)
        store.publish(b6)
        assert store.height == 6
        assert store.tip_hash() == b6.hash()

    def test_cursors_start_at_base(self):
        store = self.anchored()
        assert store.next_for("r") is None
        b6 = block(6, prev=self.TIP)
        store.publish(b6)
        assert store.unread_count("r") == 1
        assert store.next_for("r").serial == 6
