"""Test-only counterparts of package code: question parsing, the plain record
encoder, and the two balance stages as one call.

The package never needs these; the tests use them to check what it writes.
"""

from __future__ import annotations

import re
from functools import lru_cache

from docqa_forge.balance import BalanceConfig, balance_answers, balance_parameters
from docqa_forge.generator import QARecord
from docqa_forge.templates import SLOT_VALUES, QuestionTemplate, SlotSpec, _renderings, load_templates


# ---------------------------------------------------------------------------
# Binding extraction: the inverse of templates.instantiate
# ---------------------------------------------------------------------------

def _alternation(options) -> str:
    return "|".join(re.escape(o) for o in sorted(options, key=len, reverse=True))


def _closed_surfaces(slot: SlotSpec) -> dict[str, object]:
    """Every surface a closed-vocabulary slot can render -> the value it renders."""
    return {text: value for value in SLOT_VALUES[slot.kind] for text in _renderings(slot, value)}


@lru_cache(maxsize=None)
def _extraction_regex(template_id: str) -> re.Pattern:
    literals, slots = load_templates().by_id(template_id).pieces
    pieces = [re.escape(literals[0])]
    for slot, literal in zip(slots, literals[1:]):
        group = f"(?P<{slot.name}>%s)"
        if slot.kind in SLOT_VALUES:
            body = group % _alternation(_closed_surfaces(slot))
        elif slot.quoted:
            body = group % "[^']+"
            body = f"'{body}'"
            if slot.article:
                body = f"(?:an|a) {body}"
        else:
            body = group % ".+?"
        pieces.append(body)
        pieces.append(re.escape(literal))
    return re.compile("".join(pieces))


def extract_binding(tpl: QuestionTemplate, text: str) -> dict | None:
    """Recover the binding from a rendered question, or None if it does not match."""
    m = _extraction_regex(tpl.template_id).fullmatch(text)
    if m is None:
        return None
    binding = {}
    for slot in tpl.slots:
        raw = m.group(slot.name)
        binding[slot.name] = _closed_surfaces(slot)[raw] if slot.kind in SLOT_VALUES else raw
    return binding


# ---------------------------------------------------------------------------
# Record encoding: the dict whose json.dumps dataset.write_records_jsonl writes
# ---------------------------------------------------------------------------

def record_to_json(record: QARecord) -> dict:
    answer = record.answer
    value = list(answer.value) if answer.kind == "index_set" else answer.value
    return {
        "qid": record.qid,
        "task": record.task.value,
        "qtype": record.qtype.value,
        "doc_id": record.doc_id,
        "page": record.page_index,
        "question": record.question,
        "template_id": record.template_id,
        "bindings": dict(record.binding),
        "answer": {"kind": answer.kind, "value": value},
    }


# ---------------------------------------------------------------------------
# Balancing
# ---------------------------------------------------------------------------

def balance(records: list[QARecord], cfg: BalanceConfig) -> list[QARecord]:
    """Answer-based stage followed by the question-based smoothing stage, as
    `forge balance` runs them."""
    return balance_parameters(balance_answers(records, cfg), cfg)
