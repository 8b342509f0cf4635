from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import build_document, stack_annotation
from synthcorpus import random_processed_document
from docqa_forge.errors import IncompleteBinding
from docqa_forge.graphs import build_graphs
from docqa_forge.model import TaskId
from docqa_forge.programs import GROUP_PROGRAMS
from docqa_forge.templates import (
    QuestionType,
    enumerate_bindings,
    instantiate,
    load_templates,
)
from reference import extract_binding


@pytest.fixture(scope="module")
def registry():
    return load_templates()


# --- registry shape -----------------------------------------------------------

def test_registry_size(registry):
    assert len(registry) == 66


def test_task_pattern_counts(registry):
    assert len(registry.for_task(TaskId.A)) == 36
    assert len(registry.for_task(TaskId.B)) == 15
    assert len(registry.for_task(TaskId.C)) == 15


def test_counting_type_has_14_patterns(registry):
    assert sum(1 for t in registry if t.qtype == QuestionType.COUNTING) == 14


def test_child_relation_has_5_patterns(registry):
    assert sum(1 for t in registry if t.qtype == QuestionType.CHILD_RELATION) == 5


def test_template_ids_are_unique_and_stable(registry):
    ids = [t.template_id for t in registry]
    assert len(set(ids)) == 66
    assert registry.by_id("A01").pattern == "Is there any [E] on the [pos] of this page?"
    assert registry.by_id("C06").pattern == "Which section does describe the [E] ?"


def test_dump_is_ordered_by_template_id(registry):
    dump = registry.dump()
    assert [row["template_id"] for row in dump] == sorted(r["template_id"] for r in dump)
    assert set(dump[0]) == {"template_id", "task", "qtype", "pattern"}


def test_every_slot_token_appears_in_pattern(registry):
    for tpl in registry:
        for slot in tpl.slots:
            assert f"[{slot.name}]" in tpl.pattern, tpl.template_id


def test_templates_of_one_group_share_task_and_slots(registry):
    # The generator evaluates each group once per scope and gives every
    # template of the group the same bindings and answers; that is exact only
    # while the templates agree on the task and the slot (name, kind) sequence.
    signatures: dict[str, set] = {}
    for tpl in registry:
        slots = tuple((slot.name, slot.kind) for slot in tpl.slots)
        signatures.setdefault(tpl.group, set()).add((tpl.task, slots))
    assert set(signatures) == set(GROUP_PROGRAMS)
    assert {group: sigs for group, sigs in signatures.items() if len(sigs) > 1} == {}


# --- rendering ------------------------------------------------------------------

def test_render_positional_existence(registry):
    q = instantiate(registry.by_id("A01"), {"E": "table", "pos": "top"}, seed=0)
    assert q.text == "Is there any table on the top of this page?"


def test_render_counting_with_anchor_synonym(registry):
    q = instantiate(registry.by_id("A23"),
                    {"E1": "table", "R": "top", "E2": "Discussion"}, seed=1)
    assert q.text == "How many tables are above the 'Discussion'?"


def test_render_article_selection(registry):
    tpl = registry.by_id("A22")
    assert instantiate(tpl, {"E": "Abstract"}, seed=0).text == \
        "Confirm if there is an 'Abstract' on this page."
    assert instantiate(tpl, {"E": "Results"}, seed=0).text == \
        "Confirm if there is a 'Results' on this page."


def test_render_plural_slot(registry):
    q = instantiate(registry.by_id("A13"), {"E": "figure"}, seed=0)
    assert q.text == "Are there any figures on this page?"


def test_render_keeps_parenthetical_s(registry):
    q = instantiate(registry.by_id("A28"), {"num": 2, "E": "table"}, seed=0)
    assert q.text == "Can you find 2 table(s) on the page?"


def test_render_bare_plural_suffix(registry):
    q = instantiate(registry.by_id("A33"), {"E": "figure"}, seed=0)
    assert q.text == "How many figures on this page?"


def test_render_task_c_unquoted_anchor(registry):
    q = instantiate(registry.by_id("C06"), {"E": "Table 3"}, seed=0)
    assert q.text == "Which section does describe the Table 3 ?"


def test_render_task_c_quoted_citation(registry):
    q = instantiate(registry.by_id("C12"), {"E": "Wang C et al,2017"}, seed=0)
    assert q.text == "Which section does cite the 'Wang C et al,2017'?"


def test_render_uses_the_template_it_is_given(registry):
    edited = replace(registry.by_id("A12"), pattern="Do you see a [E] here?")
    assert instantiate(edited, {"E": "table"}, seed=0).text == "Do you see a table here?"
    unregistered = replace(edited, template_id="A99")
    q = instantiate(unregistered, {"E": "table"}, seed=0)
    assert (q.text, q.template_id) == ("Do you see a table here?", "A99")
    assert instantiate(registry.by_id("A12"), {"E": "table"}, seed=0).text == \
        "Is there any table?"


def test_incomplete_binding_raises(registry):
    with pytest.raises(IncompleteBinding):
        instantiate(registry.by_id("A23"), {"E1": "table", "E2": "Discussion"}, seed=0)


def test_render_determinism(registry):
    tpl = registry.by_id("A24")
    binding = {"E1": "figure", "R": "bottom", "E2": "Methods"}
    first = instantiate(tpl, binding, seed=9).text
    assert all(instantiate(tpl, binding, seed=9).text == first for _ in range(5))


def test_different_seeds_vary_synonyms(registry):
    tpl = registry.by_id("A23")
    binding = {"E1": "table", "R": "top", "E2": "Discussion"}
    texts = {instantiate(tpl, binding, seed=s).text for s in range(40)}
    assert len(texts) == 3  # above / upper / on the top of


# --- round trip -------------------------------------------------------------------

def test_round_trip_recovers_binding_everywhere(registry):
    doc = random_processed_document(11)
    graphs = build_graphs(doc)
    checked = 0
    for tpl in registry:
        scopes = [None] if tpl.task == TaskId.C else list(doc.pages)
        for page in scopes:
            for binding in enumerate_bindings(tpl, doc, page, graphs):
                for seed in (0, 1, 2):
                    text = instantiate(tpl, binding, seed).text
                    assert extract_binding(tpl, text) == binding, (tpl.template_id, text)
                    checked += 1
    assert checked > 500


# --- enumeration -----------------------------------------------------------------

def test_unique_anchor_yields_binding(p1_doc, registry):
    graphs = build_graphs(p1_doc)
    tpl = registry.by_id("A06")
    bindings = enumerate_bindings(tpl, p1_doc, p1_doc.pages[0], graphs)
    assert {"E1": "table", "R": "bottom", "E2": "Results"} in bindings


def test_ambiguous_anchor_skipped(registry):
    doc = build_document(stack_annotation("d", [[
        ("title", "Results"),
        ("text", "x"),
        ("title", "Results"),
    ]]))
    graphs = build_graphs(doc)
    bindings = enumerate_bindings(registry.by_id("A06"), doc, doc.pages[0], graphs)
    assert bindings == []


def test_absent_category_still_enumerated_for_existence(p1_doc, registry):
    graphs = build_graphs(p1_doc)
    bindings = enumerate_bindings(registry.by_id("A01"), p1_doc, p1_doc.pages[0], graphs)
    assert {"E": "figure", "pos": "top"} in bindings  # answer will be "no"
    assert len(bindings) == 32  # 4 labels x 8 regions


def test_title_existence_anchors_come_from_whole_document(registry):
    doc = build_document(stack_annotation("d", [
        [("title", "Introduction"), ("text", "page one")],
        [("title", "Conclusion"), ("text", "page two")],
    ]))
    graphs = build_graphs(doc)
    bindings = enumerate_bindings(registry.by_id("A17"), doc, doc.pages[0], graphs)
    values = {b["E"] for b in bindings}
    assert values == {"Introduction", "Conclusion"}


def test_ambiguous_region_referent_skipped(registry):
    doc = build_document(stack_annotation("d", [[
        ("title", "One"),
        ("title", "Two"),
        ("text", "body"),
    ]]))
    graphs = build_graphs(doc)
    bindings = enumerate_bindings(registry.by_id("B06"), doc, doc.pages[0], graphs)
    regions = {b["pos"] for b in bindings}
    assert "top" not in regions          # two titles in the top half
    assert "bottom" in regions           # zero titles there: N/A question allowed


def test_child_bindings_require_child_titles(hierarchy_doc, registry):
    graphs = build_graphs(hierarchy_doc)
    bindings = enumerate_bindings(registry.by_id("C03"), hierarchy_doc, None, graphs)
    values = {b["E"] for b in bindings}
    assert values == {"1. Background", "2. Methods"}


def test_parent_bindings_require_mentions(hierarchy_doc, registry):
    graphs = build_graphs(hierarchy_doc)
    floats = enumerate_bindings(registry.by_id("C06"), hierarchy_doc, None, graphs)
    assert {b["E"] for b in floats} == {"Table 2"}
    cites = enumerate_bindings(registry.by_id("C12"), hierarchy_doc, None, graphs)
    assert {b["E"] for b in cites} == {"Wang C et al,2017"}


def test_enumeration_is_canonically_ordered(p1_doc, registry):
    from docqa_forge.templates import canonical_binding

    graphs = build_graphs(p1_doc)
    bindings = enumerate_bindings(registry.by_id("A01"), p1_doc, p1_doc.pages[0], graphs)
    keys = [canonical_binding(b) for b in bindings]
    assert keys == sorted(keys)
