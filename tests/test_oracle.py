"""Execute-vs-oracle spot checks; the exhaustive sweep lives in acceptance."""

from __future__ import annotations

from synthcorpus import random_page_document, random_processed_document
from oracle import oracle_execute
from docqa_forge.errors import AnchorNotFound, OverflowAnswer
from docqa_forge.graphs import build_graphs
from docqa_forge.model import TaskId
from docqa_forge.programs import compile_program, execute, scope_for
from docqa_forge.templates import enumerate_bindings, load_templates

REG = load_templates()


def outcomes_match(tpl, binding, doc, page, graphs):
    def run(fn):
        try:
            return ("value", fn().canonical())
        except OverflowAnswer:
            return ("overflow",)
        except AnchorNotFound:
            return ("anchor_not_found",)

    scope = scope_for(tpl.task, doc, page)
    got = run(lambda: execute(compile_program(tpl, binding), scope, graphs))
    want = run(lambda: oracle_execute(tpl, binding, doc, page))
    return got == want, got, want


def sweep(doc):
    graphs = build_graphs(doc)
    failures = []
    total = 0
    for tpl in REG:
        pages = [None] if tpl.task == TaskId.C else list(doc.pages)
        for page in pages:
            for binding in enumerate_bindings(tpl, doc, page, graphs):
                ok, got, want = outcomes_match(tpl, binding, doc, page, graphs)
                total += 1
                if not ok:
                    failures.append((tpl.template_id, binding, got, want))
    return total, failures


def test_oracle_matches_execute_on_p1(p1_doc):
    total, failures = sweep(p1_doc)
    assert total > 400
    assert failures == []


def test_oracle_matches_execute_on_hierarchy_doc(hierarchy_doc):
    total, failures = sweep(hierarchy_doc)
    assert total > 500
    assert failures == []


def test_oracle_matches_execute_on_random_pages():
    for seed in range(12):
        _, failures = sweep(random_page_document(seed))
        assert failures == [], failures[:3]


def test_oracle_matches_execute_on_multipage_docs():
    for seed in range(300, 308):
        _, failures = sweep(random_processed_document(seed))
        assert failures == [], failures[:3]


def test_oracle_matches_on_explicit_parent_documents():
    from conftest import build_document, stack_annotation

    annotation = stack_annotation("expl", [[
        ("title", "Methods"),
        ("text", "see Table 1 for the protocol"),
        ("table", ""),
        ("text", "Table 1 lists every step."),
    ]])
    elements = annotation["pages"][0]["elements"]
    elements[1]["parent_id"] = "e0"
    elements[2]["parent_id"] = "e3"
    elements[3]["parent_id"] = "e0"
    doc = build_document(annotation)
    _, failures = sweep(doc)
    assert failures == []


def test_oracle_matches_task_c_on_scopes_wider_than_64_elements():
    # Document-scope element sets are int masks; these span several machine words.
    widest = 0
    for seed in range(600, 640):
        doc = random_processed_document(seed, n_pages=14, chaotic_share=0.15)
        assert doc.element_count > 64
        graphs = build_graphs(doc)
        for tpl in REG.for_task(TaskId.C):
            for binding in enumerate_bindings(tpl, doc, None, graphs):
                ok, got, want = outcomes_match(tpl, binding, doc, None, graphs)
                assert ok, (doc.doc_id, tpl.template_id, binding, got, want)
                if got[0] == "value" and got[1].startswith("set:"):
                    widest = max(widest, *map(int, got[1][len("set:"):].split(",")))
    assert widest >= 128
