"""Stable seeded hashing.

All sampling decisions in the pipeline (synonym picks, NA retention,
down-sampling survivors) derive from sha256 over explicit strings, so results
are identical across machines, Python versions, process counts, and record
arrival order.

Hot callers (make_qid, the N/A draw, the synonym pick) format the same payload
in one f-string, valid as their parts are str or int, whose format() is str();
tests/test_generator.py::test_inlined_hashes_equal_the_stable_helpers pins them.
"""

from __future__ import annotations

import hashlib


def stable_digest(*parts: object) -> bytes:
    payload = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(payload.encode("utf-8")).digest()


def stable_int(*parts: object) -> int:
    return int.from_bytes(stable_digest(*parts)[:8], "big")


def stable_unit(*parts: object) -> float:
    """Deterministic pseudo-uniform value in [0, 1)."""
    return stable_int(*parts) / 2.0 ** 64


def stable_hex(*parts: object) -> str:
    return stable_digest(*parts).hex()[:16]
