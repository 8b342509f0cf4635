"""Stable seeded hashing.

All sampling decisions in the pipeline (synonym picks, NA retention,
down-sampling survivors) derive from sha256 over explicit strings, so results
are identical across machines, Python versions, process counts, and record
arrival order. The one exception is split's document shuffle
(dataset.split_corpus), which draws from random.Random(seed); ROADMAP item 8
is to replace it.
"""

from __future__ import annotations

from hashlib import sha256


def _hash(parts: tuple):
    """sha256 over the parts' str() joined by "\x1f"."""
    return sha256("\x1f".join(map(str, parts)).encode())


def _int(h) -> int:
    return int.from_bytes(h.digest()[:8], "big")


def _unit(h) -> float:
    return _int(h) / 2.0 ** 64


def stable_int(*parts: object) -> int:
    """The first 8 bytes, big-endian, of the parts' sha256."""
    return _int(_hash(parts))


def stable_unit(*parts: object) -> float:
    """Deterministic pseudo-uniform value in [0, 1)."""
    return _unit(_hash(parts))


def stable_unit_prefix(*prefix: object):
    """The function part -> stable_unit(*prefix, part), which hashes the prefix
    once and copies that sha256 state for each part."""
    head = _hash((*prefix, ""))  # ends in the separator before part

    def unit(part: object) -> float:
        h = head.copy()
        h.update(str(part).encode())
        return _unit(h)
    return unit


def stable_hex(*parts: object) -> str:
    return _hash(parts).digest()[:8].hex()
