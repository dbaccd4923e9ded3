"""Collision-resistant hashing used throughout the ledger.

The paper assumes a public collision-resistant hash function ``H`` used to
chain blocks (Chain Integrity property, Section 3.1).  We wrap SHA-256
behind a small canonical-serialisation layer so that every structured
object in the system hashes to a stable, platform-independent digest.

Canonical serialisation rules
-----------------------------
* ``bytes`` are hashed as-is with a length prefix.
* ``str`` is encoded UTF-8.
* ``int`` is encoded as its decimal string (arbitrary precision).
* ``float`` is encoded via ``repr`` (shortest round-trip form).
* ``None``, ``bool`` get fixed tags.
* tuples/lists hash the concatenation of member digests with a length
  prefix, so ``("a", "b")`` and ``("ab",)`` differ.
* dicts hash sorted ``(key, value)`` pairs.

Every encoding is prefixed with a one-byte type tag to rule out
cross-type collisions (``hash_value(1)`` never equals ``hash_value("1")``).
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

__all__ = ["DIGEST_SIZE", "sha256", "hash_value", "hash_many", "hexdigest"]

#: Size in bytes of every digest produced by this module.
DIGEST_SIZE = 32

_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_INT = b"I"
_TAG_FLOAT = b"F"
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"f"
_TAG_SEQ = b"L"
_TAG_MAP = b"M"


def sha256(data: bytes) -> bytes:
    """Return the raw SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def _encode(value: Any, out: list[bytes]) -> None:
    """Append the canonical encoding of ``value`` to ``out``.

    Flat by design: a sequence's members are encoded in this loop rather
    than by a call each, and only nested containers and domain objects
    recurse.  Members dispatch on their exact type first (the hot shapes
    are tuples of bytes, str, int and float); everything else (None,
    bools, dicts, subclasses such as ``IntEnum`` labels, domain objects)
    takes the ``isinstance`` chain, whose order matters: ``True`` before
    ``int``, ``str`` subclasses as ``str``.  A scalar ``value`` is
    encoded as the loop's only member.
    """
    append = out.append
    kind = type(value)
    if kind is tuple or kind is list or isinstance(value, (tuple, list)):
        append(_TAG_SEQ)
        append(len(value).to_bytes(8, "big"))
        items = value
    else:
        items = (value,)
    for item in items:
        kind = type(item)
        if kind is bytes:
            raw = item
            append(_TAG_BYTES)
        elif kind is str:
            raw = item.encode("utf-8")
            append(_TAG_STR)
        elif kind is float:
            raw = repr(item).encode("ascii")
            append(_TAG_FLOAT)
        elif kind is int:
            raw = str(item).encode("ascii")
            append(_TAG_INT)
        elif isinstance(item, (tuple, list)):
            _encode(item, out)
            continue
        elif item is None:
            append(_TAG_NONE)
            continue
        elif item is True:
            append(_TAG_TRUE)
            continue
        elif item is False:
            append(_TAG_FALSE)
            continue
        elif isinstance(item, bytes):
            raw = item
            append(_TAG_BYTES)
        elif isinstance(item, str):
            raw = item.encode("utf-8")
            append(_TAG_STR)
        elif isinstance(item, int):
            raw = str(item).encode("ascii")
            append(_TAG_INT)
        elif isinstance(item, float):
            raw = repr(item).encode("ascii")
            append(_TAG_FLOAT)
        elif isinstance(item, dict):
            pairs = sorted(item.items(), key=lambda kv: repr(kv[0]))
            append(_TAG_MAP)
            append(len(pairs).to_bytes(8, "big"))
            for key, val in pairs:
                _encode(key, out)
                _encode(val, out)
            continue
        elif hasattr(item, "canonical_bytes"):
            # Domain objects (transactions, blocks) expose their own
            # stable encoding; treat it as opaque bytes.
            _encode(item.canonical_bytes(), out)
            continue
        else:
            raise TypeError(f"cannot canonically hash value of type {type(item)!r}")
        append(len(raw).to_bytes(8, "big"))
        append(raw)


def canonical_encode(value: Any) -> bytes:
    """Return the canonical byte encoding of ``value``.

    The encoding is injective over the supported type universe, which is
    what makes ``hash_value`` collision-resistant whenever SHA-256 is.
    """
    parts: list[bytes] = []
    _encode(value, parts)
    return b"".join(parts)


def hash_value(value: Any) -> bytes:
    """Hash any supported value through the canonical encoding."""
    return sha256(canonical_encode(value))


def hash_many(values: Iterable[Any]) -> bytes:
    """Hash an iterable of values as an ordered sequence.

    Streams each member's canonical encoding into one incremental
    SHA-256 instead of materialising an intermediate tuple and one big
    concatenated buffer; the digest is identical to
    ``hash_value(tuple(values))``.
    """
    if not hasattr(values, "__len__"):
        values = list(values)
    hasher = hashlib.sha256()
    hasher.update(_TAG_SEQ)
    hasher.update(len(values).to_bytes(8, "big"))
    parts: list[bytes] = []
    for item in values:
        _encode(item, parts)
        for part in parts:
            hasher.update(part)
        parts.clear()
    return hasher.digest()


def hexdigest(value: Any) -> str:
    """Hex form of :func:`hash_value`, convenient for logging and ids."""
    return hash_value(value).hex()
