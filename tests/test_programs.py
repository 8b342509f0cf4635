from __future__ import annotations

import pytest

from conftest import build_document, execute_with_trace, stack_annotation
from synthcorpus import random_page_document
from docqa_forge.errors import AnchorNotFound, OverflowAnswer, TypeMismatch
from docqa_forge.graphs import build_graphs
from docqa_forge.model import TaskId
from docqa_forge.programs import (
    AnswerValue,
    FunctionalProgram,
    Step,
    compile_program,
    execute,
    scope_for,
)
from docqa_forge.templates import load_templates

REG = load_templates()


def run(template_id, binding, doc, page=None):
    tpl = REG.by_id(template_id)
    prog = compile_program(tpl, binding)
    graphs = build_graphs(doc)
    return execute(prog, scope_for(tpl.task, doc, page), graphs)


# --- compilation ----------------------------------------------------------------

def test_compile_counting_with_anchor_chain():
    prog = compile_program(REG.by_id("A23"),
                           {"E1": "table", "R": "top", "E2": "Discussion"})
    assert [s.op for s in prog.steps] == [
        "locate_text", "related", "filter_category", "count"]
    assert prog.steps[1].coarse is True


def test_compile_bare_existence_chain():
    prog = compile_program(REG.by_id("A12"), {"E": "table"})
    assert [s.op for s in prog.steps] == ["filter_category", "exists"]


def test_compile_child_chain():
    prog = compile_program(REG.by_id("C01"), {"E": "Methods"})
    assert [s.op for s in prog.steps] == ["locate_text", "child_sections"]


def test_compile_diagonal_relation_is_strict():
    prog = compile_program(REG.by_id("A23"),
                           {"E1": "table", "R": "top-left", "E2": "Discussion"})
    assert prog.steps[1].coarse is False


def test_compile_rejects_bad_label():
    with pytest.raises(TypeMismatch):
        compile_program(REG.by_id("A12"), {"E": "text"})


def test_type_mismatch_on_bad_chain():
    bad = FunctionalProgram(steps=(Step("count"), Step("filter_category", "table")),
                            task=TaskId.A)
    doc = build_document(stack_annotation("d", [[("text", "x")]]))
    graphs = build_graphs(doc)
    with pytest.raises(TypeMismatch):
        # count produces an int; filtering it is ill-typed and must not pass
        prog = compile_program  # noqa: F841  (compile path rejects; executor too)
        execute(bad, scope_for(TaskId.A, doc, doc.pages[0]), graphs)


# --- Task A execution -------------------------------------------------------------

def test_count_tables_below_results(p1_doc):
    answer = run("A23", {"E1": "table", "R": "bottom", "E2": "Results"},
                 p1_doc, p1_doc.pages[0])
    assert answer == AnswerValue.token("1")


def test_existence_no_figures(p1_doc):
    answer = run("A12", {"E": "figure"}, p1_doc, p1_doc.pages[0])
    assert answer == AnswerValue.token("no")


def test_negated_existence_yes_when_absent(p1_doc):
    answer = run("A04", {"E": "figure", "pos": "top"}, p1_doc, p1_doc.pages[0])
    assert answer == AnswerValue.token("yes")


def test_verify_count_exact(p1_doc):
    assert run("A31", {"num": 1, "E": "table"}, p1_doc, p1_doc.pages[0]) == \
        AnswerValue.token("yes")
    assert run("A31", {"num": 2, "E": "table"}, p1_doc, p1_doc.pages[0]) == \
        AnswerValue.token("no")


def test_title_existence_on_and_off_page():
    doc = build_document(stack_annotation("d", [
        [("title", "Introduction"), ("text", "body")],
        [("title", "Conclusion"), ("text", "body 2")],
    ]))
    assert run("A17", {"E": "Introduction"}, doc, doc.pages[0]) == AnswerValue.token("yes")
    assert run("A17", {"E": "Conclusion"}, doc, doc.pages[0]) == AnswerValue.token("no")


def test_count_overflow_raises():
    blocks = [("figure", "")] * 7
    doc = build_document(stack_annotation("d", [blocks]))
    with pytest.raises(OverflowAnswer):
        run("A33", {"E": "figure"}, doc, doc.pages[0])


def test_missing_anchor_raises():
    doc = build_document(stack_annotation("d", [[("title", "Methods"), ("text", "x")]]))
    with pytest.raises(AnchorNotFound):
        run("A23", {"E1": "table", "R": "top", "E2": "Ghost"}, doc, doc.pages[0])


# --- Task B execution ---------------------------------------------------------------

def test_bottom_table_resolves_to_caption(p1_doc):
    answer = run("B12", {"E": "table", "pos": "bottom"}, p1_doc, p1_doc.pages[0])
    assert answer == AnswerValue.index(3)  # e4, the relabeled caption


def test_first_section_is_title_itself(p1_doc):
    answer = run("B01", {"turn": "first"}, p1_doc, p1_doc.pages[0])
    assert answer == AnswerValue.index(0)


def test_turn_question_without_titles_is_na():
    doc = build_document(stack_annotation("d", [[("text", "a"), ("text", "b")]]))
    assert run("B01", {"turn": "last"}, doc, doc.pages[0]) == AnswerValue.na()


def test_region_without_candidates_is_na(p1_doc):
    # no table in the top half of P1
    answer = run("B12", {"E": "table", "pos": "top"}, p1_doc, p1_doc.pages[0])
    assert answer == AnswerValue.na()


def test_float_without_caption_is_na():
    doc = build_document(stack_annotation("d", [[
        ("title", "Results"),
        ("figure", "", [5.0, 60.0, 95.0, 90.0]),
    ]]))
    answer = run("B12", {"E": "figure", "pos": "bottom"}, doc, doc.pages[0])
    assert answer == AnswerValue.na()


def test_off_page_owner_is_na():
    doc = build_document(stack_annotation("d", [
        [("title", "Methods"), ("text", "page one")],
        [("list", "continued on page two", [5.0, 60.0, 95.0, 90.0])],
    ]))
    # the unique list's owning title is on page 0; Task B answers stay page-local
    answer = run("B12", {"E": "list", "pos": "bottom"}, doc, doc.pages[1])
    assert answer == AnswerValue.na()


def test_list_resolves_to_owning_title_on_same_page():
    doc = build_document(stack_annotation("d", [[
        ("title", "Methods"),
        ("text", "intro"),
        ("list", "- step one - step two"),
    ]]))
    answer = run("B12", {"E": "list", "pos": "bottom"}, doc, doc.pages[0])
    assert answer == AnswerValue.index(0)  # the Methods title


# --- Task C execution ----------------------------------------------------------------

def test_child_subsections(hierarchy_doc):
    answer = run("C03", {"E": "2. Methods"}, hierarchy_doc)
    assert answer == AnswerValue.index_set({11, 15})


def test_parent_sections_for_table_mentions(hierarchy_doc):
    answer = run("C06", {"E": "Table 2"}, hierarchy_doc)
    # mentioned in 1.2 Motivation (title idx 6) and 2.2 Analysis (title idx 15)
    assert answer == AnswerValue.index_set({6, 15})


def test_parent_sections_for_citation(hierarchy_doc):
    answer = run("C12", {"E": "Wang C et al,2017"}, hierarchy_doc)
    assert answer == AnswerValue.index_set({0})


def test_child_of_flat_title_is_na():
    doc = build_document(stack_annotation("d", [[
        ("title", "Intro"),
        ("text", "body"),
        ("title", "Conclusion"),
    ]]))
    assert run("C03", {"E": "Intro"}, doc) == AnswerValue.na()


# --- invariants -------------------------------------------------------------------

def test_monotone_filters_and_count_exists_coherence():
    for seed in range(6):
        doc = random_page_document(seed)
        page = doc.pages[0]
        graphs = build_graphs(doc)
        scope = scope_for(TaskId.A, doc, page)
        for label in ("table", "figure", "title", "list"):
            for pos in ("top", "bottom", "left", "right"):
                prog = compile_program(REG.by_id("A01"), {"E": label, "pos": pos})
                exists = execute(prog, scope, graphs)
                count_prog = FunctionalProgram(
                    steps=(Step("filter_category", label),
                           Step("filter_region", pos), Step("count")),
                    task=TaskId.A)
                try:
                    count = execute(count_prog, scope, graphs)
                except OverflowAnswer:
                    assert exists == AnswerValue.token("yes")
                    continue
                assert (exists.value == "yes") == (count.value != "0")


def test_trace_reports_each_step(p1_doc):
    tpl = REG.by_id("A23")
    prog = compile_program(tpl, {"E1": "table", "R": "bottom", "E2": "Results"})
    graphs = build_graphs(p1_doc)
    answer, trace = execute_with_trace(prog, scope_for(TaskId.A, p1_doc, p1_doc.pages[0]),
                                       graphs)
    assert answer == AnswerValue.token("1")
    assert [t["function"] for t in trace] == [
        "locate_text", "related", "filter_category", "count"]
    assert trace[1]["output_size"] == 4  # everything sits below the title
    assert trace[2]["output_size"] == 1


def test_answer_canonical_forms():
    assert AnswerValue.token("yes").canonical() == "token:yes"
    assert AnswerValue.index(3).canonical() == "index:3"
    assert AnswerValue.index_set({5, 2}).canonical() == "set:2,5"
    assert AnswerValue.na().canonical() == "na"
