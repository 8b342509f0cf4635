from __future__ import annotations

import json

import pytest

from docqa_forge.ingest import parse_document, preprocess_document
from docqa_forge.programs import execute, trace_steps


def stack_annotation(doc_id, pages, width=100.0, height=100.0, references=None):
    """Build an annotation dict from per-page (category, text) block lists.

    Blocks stack top to bottom in one column; a block may override its bbox
    by passing a (category, text, bbox) triple.
    """
    page_dicts = []
    counter = 0
    for index, blocks in enumerate(pages):
        elements = []
        step = height / max(len(blocks), 1)
        for i, block in enumerate(blocks):
            if len(block) == 3:
                category, text, bbox = block
            else:
                category, text = block
                top = i * step + 0.1 * step
                bbox = [0.05 * width, top, 0.95 * width, top + 0.7 * step]
            elements.append({
                "id": f"e{counter}",
                "category": category,
                "bbox": list(bbox),
                "text": text,
                "parent_id": None,
            })
            counter += 1
        page_dicts.append({"index": index, "width": width, "height": height,
                           "elements": elements})
    return {"doc_id": doc_id, "references": list(references or []), "pages": page_dicts}


def build_document(annotation):
    return preprocess_document(parse_document(json.dumps(annotation)))


def execute_with_trace(prog, scope, graphs):
    """execute's answer and the trace --trace writes for it."""
    sizes: list = []
    answer = execute(prog, scope, graphs, trace=sizes)
    return answer, trace_steps([step.op for step in prog.steps], sizes)


# --- P1: the five-element single-column page used across examples -----------

@pytest.fixture
def p1_annotation():
    return {
        "doc_id": "p1-doc",
        "references": [],
        "pages": [{
            "index": 0,
            "width": 100.0,
            "height": 100.0,
            "elements": [
                {"id": "e1", "category": "title", "bbox": [5, 5, 95, 12],
                 "text": "Results", "parent_id": None},
                {"id": "e2", "category": "text", "bbox": [5, 15, 95, 40],
                 "text": "Overview paragraph discussing Table 1 in detail.",
                 "parent_id": None},
                {"id": "e3", "category": "table", "bbox": [5, 45, 95, 70],
                 "text": "r1c1 r1c2", "parent_id": None},
                {"id": "e4", "category": "text", "bbox": [5, 71, 95, 76],
                 "text": "Table 1 summarises the measured outcomes.",
                 "parent_id": None},
                {"id": "e5", "category": "text", "bbox": [5, 80, 95, 95],
                 "text": "Closing remarks for this page.", "parent_id": None},
            ],
        }],
    }


@pytest.fixture
def p1_doc(p1_annotation):
    return build_document(p1_annotation)


@pytest.fixture
def p1_page(p1_doc):
    return p1_doc.pages[0]


# --- A two-page document with a numbered section hierarchy ------------------

@pytest.fixture
def hierarchy_doc():
    page0 = [
        ("title", "1. Background"),
        ("text", "Opening context that cites Wang C et al,2017 directly."),
        ("text", "More context."),
        ("title", "1.1 Prior work"),
        ("text", "Earlier systems."),
        ("text", "Their limits."),
        ("title", "1.2 Motivation"),
        ("text", "Why this matters, see Table 2 for numbers."),
        ("text", "Continued motivation."),
        ("text", "Wrap-up of background."),
        ("title", "2. Methods"),
    ]
    page1 = [
        ("title", "2.1 Cohort"),
        ("text", "Cohort description."),
        ("text", "Inclusion criteria."),
        ("text", "Exclusion criteria."),
        ("title", "2.2 Analysis"),
        ("text", "Statistical analysis relies on Table 2 throughout."),
    ]
    annotation = stack_annotation("hier-doc", [page0, page1],
                                  references=["Wang C et al,2017", "Guan KL et al,1991"])
    return build_document(annotation)
