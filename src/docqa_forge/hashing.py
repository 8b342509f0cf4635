"""Stable seeded hashing.

All sampling decisions in the pipeline (synonym picks, NA retention,
down-sampling survivors) derive from sha256 over explicit strings, so results
are identical across machines, Python versions, process counts, and record
arrival order.
"""

from __future__ import annotations

from hashlib import sha256


def _digest(parts: tuple) -> bytes:
    return sha256("\x1f".join(map(str, parts)).encode()).digest()


def stable_int(*parts: object) -> int:
    """The first 8 bytes, big-endian, of sha256 over the parts' str() joined by "\\x1f"."""
    return int.from_bytes(_digest(parts)[:8], "big")


def stable_unit(*parts: object) -> float:
    """Deterministic pseudo-uniform value in [0, 1)."""
    return stable_int(*parts) / 2.0 ** 64


def stable_hex(*parts: object) -> str:
    return _digest(parts)[:8].hex()
