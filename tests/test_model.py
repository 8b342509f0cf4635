"""The document contract: every Document checks its ids, parent links and
mention index when it is built, and a scope checks its reading order."""

from __future__ import annotations

import json

import pytest

from conftest import build_document, stack_annotation
from synthcorpus import random_annotation
from docqa_forge import model
from docqa_forge.errors import CyclicParentInput, DanglingParent, DuplicateId, MalformedInput
from docqa_forge.generator import GenConfig, generate_corpus
from docqa_forge.geometry import BoundingBox
from docqa_forge.ingest import (
    document_from_processed,
    document_to_processed,
    parse_document,
    preprocess_document,
)
from docqa_forge.model import Document, DocElement, ElementCategory, Page, TaskId
from docqa_forge.programs import scope_for


def _element(el_id, row, parent_id=None, category=ElementCategory.TEXT):
    bbox = BoundingBox(0.1, 0.1 * row, 0.9, 0.1 * row + 0.05)
    return DocElement(id=el_id, page_index=0, bbox=bbox, category=category, text=el_id,
                      parent_id=parent_id, page_reading_index=row, doc_reading_index=row)


def _hand_built(*elements, mention_index=None):
    page = Page(index=0, width=100.0, height=100.0, elements=elements)
    return Document(doc_id="hand", pages=(page,), mention_index=mention_index or {})


def test_a_valid_hand_built_document_indexes_its_elements():
    doc = _hand_built(_element("a", 0, category=ElementCategory.TITLE), _element("b", 1, "a"),
                      mention_index={"Table 1": ("b",)})
    assert doc.by_id == {"a": doc.pages[0].elements[0], "b": doc.pages[0].elements[1]}
    assert doc.element_count == 2


def test_a_hand_built_parent_cycle_raises_when_built():
    with pytest.raises(CyclicParentInput,
                       match=r"^document 'hand': parent chain through 'a' forms a cycle$"):
        _hand_built(_element("a", 0, "b"), _element("b", 1, "a"))


def test_a_hand_built_dangling_parent_raises_when_built():
    with pytest.raises(DanglingParent,
                       match=r"^document 'hand': 'b' references unknown parent 'nope'$"):
        _hand_built(_element("a", 0), _element("b", 1, "nope"))


def test_a_hand_built_repeated_id_raises_when_built():
    with pytest.raises(DuplicateId, match=r"^element id 'a' appears more than once$"):
        _hand_built(_element("a", 0), _element("a", 1))


def test_the_same_element_twice_is_a_repeated_id():
    el = _element("a", 0)
    with pytest.raises(DuplicateId, match=r"^element id 'a' appears more than once$"):
        _hand_built(el, el)


def test_a_hand_built_unknown_mention_id_raises_when_built():
    with pytest.raises(MalformedInput,
                       match=r"^document 'hand': mention_index entry 'Table 1' names "
                             r"unknown element 'nope'$"):
        _hand_built(_element("a", 0), mention_index={"Table 1": ("a", "nope")})


def test_a_processed_mention_id_that_is_no_string_is_named():
    data = document_to_processed(build_document(stack_annotation("d", [[("text", "x")]])))
    data["mention_index"] = {"Table 1": [7]}
    with pytest.raises(MalformedInput,
                       match=r"^document 'd': mention_index entry 'Table 1' names "
                             r"unknown element 7$"):
        document_from_processed(data)


def test_generate_corpus_rejects_a_document_that_was_not_preprocessed():
    parsed = parse_document(json.dumps(random_annotation(0, n_pages=3)))
    with pytest.raises(MalformedInput, match=r"^document 'synt00000': element '[^']+' at "
                                             r"position \d+ is not at its reading index"):
        generate_corpus([parsed], GenConfig(seed=0))


@pytest.mark.parametrize("task", list(TaskId))
def test_each_scope_rejects_a_document_that_was_not_preprocessed(task):
    parsed = parse_document(json.dumps(random_annotation(0, n_pages=3)))
    first = parsed.pages[0].elements[0]
    with pytest.raises(MalformedInput, match=rf"^document 'synt00000': element '{first.id}' "
                                             r"at position 0 is not at its reading index"):
        scope_for(task, parsed, None if task == TaskId.C else parsed.pages[0])


def test_each_document_is_checked_once_per_load(monkeypatch):
    calls = []
    real = model._check_parents

    def counted(doc_id, by_id):
        calls.append(doc_id)
        real(doc_id, by_id)
    monkeypatch.setattr(model, "_check_parents", counted)
    doc = preprocess_document(parse_document(json.dumps(random_annotation(0, n_pages=3))))
    assert calls == ["synt00000"] * 2  # parsed, then preprocessed
    calls.clear()
    assert document_from_processed(document_to_processed(doc)) == doc
    assert calls == ["synt00000"]
