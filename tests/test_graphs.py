from __future__ import annotations

import json

import pytest

from conftest import build_document, stack_annotation
from synthcorpus import random_processed_document
from docqa_forge.errors import CyclicParentInput, DanglingParent, UnknownElement
from docqa_forge.geometry import SpatialRelation, spatial_relation
from docqa_forge.graphs import (
    build_logical_graph,
    build_spatial_graph,
    title_level,
)
from docqa_forge.ingest import parse_document


# --- spatial graph -----------------------------------------------------------

def test_two_stacked_elements_give_two_edges():
    doc = build_document(stack_annotation("d", [[("text", "a"), ("text", "b")]]))
    graph = build_spatial_graph(doc.pages[0])
    assert len(graph.edge_set()) == 2
    rels = {rel for _, _, rel in graph.edge_set()}
    assert rels == {SpatialRelation.TOP, SpatialRelation.BOTTOM}


def test_empty_page_gives_empty_graph():
    doc = parse_document(json.dumps({"doc_id": "d", "pages": [
        {"index": 0, "width": 10, "height": 10, "elements": []}]}))
    assert build_spatial_graph(doc.pages[0]).edge_set() == set()


def test_graph_matches_exhaustive_pairwise_relations(p1_page):
    graph = build_spatial_graph(p1_page)
    brute = set()
    for a in p1_page.elements:
        for b in p1_page.elements:
            if a.id == b.id:
                continue
            rel = spatial_relation(a.bbox, b.bbox)
            if rel is not None:
                brute.add((a.id, b.id, rel))
    assert graph.edge_set() == brute


def test_inverse_edge_always_present():
    for seed in range(8):
        doc = random_processed_document(seed, n_pages=1)
        graph = build_spatial_graph(doc.pages[0])
        edges = graph.edge_set()
        for src, dst, rel in edges:
            assert (dst, src, rel.inverse) in edges


def test_graph_determinism():
    doc = random_processed_document(3, n_pages=1)
    a = build_spatial_graph(doc.pages[0]).edge_set()
    b = build_spatial_graph(doc.pages[0]).edge_set()
    assert a == b


def test_query_related_coarse_bottom(p1_page):
    graph = build_spatial_graph(p1_page)
    assert graph.related("e1", SpatialRelation.BOTTOM, coarse=True) == {
        "e2", "e3", "e4", "e5"}


def test_query_related_no_horizontal_neighbors(p1_page):
    graph = build_spatial_graph(p1_page)
    assert graph.related("e1", SpatialRelation.LEFT) == set()


def test_query_related_unknown_anchor(p1_page):
    graph = build_spatial_graph(p1_page)
    with pytest.raises(UnknownElement):
        graph.related("nope", SpatialRelation.TOP)


def test_coarse_query_includes_diagonals():
    # anchor top-left; one element straight below, one diagonally below-right
    doc = build_document({"doc_id": "d", "references": [], "pages": [{
        "index": 0, "width": 100.0, "height": 100.0, "elements": [
            {"id": "a", "category": "title", "bbox": [5, 5, 40, 15],
             "text": "T", "parent_id": None},
            {"id": "below", "category": "text", "bbox": [5, 50, 40, 70],
             "text": "", "parent_id": None},
            {"id": "diag", "category": "text", "bbox": [60, 50, 95, 70],
             "text": "", "parent_id": None},
        ]}]})
    graph = build_spatial_graph(doc.pages[0])
    assert graph.related("a", SpatialRelation.BOTTOM) == {"below"}
    assert graph.related("a", SpatialRelation.BOTTOM, coarse=True) == {
        "below", "diag"}


# --- title levels -------------------------------------------------------------

@pytest.mark.parametrize("text,level", [
    ("Methods", 1),
    ("2. Clinical Presentation", 1),
    ("2.3 Subgroup", 2),
    ("10.2.1 Deep", 3),
    ("2Methods", 1),
    ("  3.1 Indented", 2),
])
def test_title_level_inference(text, level):
    assert title_level(text) == level


# --- logical graph ------------------------------------------------------------

def test_methods_children_are_its_subsection_titles(hierarchy_doc):
    graph = build_logical_graph(hierarchy_doc)
    elements = sorted(hierarchy_doc.elements(), key=lambda e: e.doc_reading_index)
    methods = next(el for el in elements if el.text == "2. Methods")
    child_ids = graph.children(methods.id)
    child_indices = {
        el.doc_reading_index for el in elements if el.id in child_ids
    }
    assert child_indices == {11, 15}


def test_texts_attach_to_enclosing_section():
    doc = build_document(stack_annotation("d", [[
        ("title", "Methods"),
        ("text", "first paragraph"),
        ("text", "second paragraph"),
        ("title", "Results"),
    ]]))
    graph = build_logical_graph(doc)
    ids = {el.text: el.id for el in doc.elements()}
    assert graph.parent(ids["first paragraph"]) == ids["Methods"]
    assert graph.parent(ids["second paragraph"]) == ids["Methods"]
    assert graph.parent(ids["Results"]) is None


def test_caption_is_parent_of_its_float(p1_doc):
    graph = build_logical_graph(p1_doc)
    assert graph.parent("e3") == "e4"


def test_leading_text_attaches_to_root():
    doc = build_document(stack_annotation("d", [[
        ("text", "abstract before any title"),
        ("title", "Introduction"),
    ]]))
    graph = build_logical_graph(doc)
    ids = {el.text: el.id for el in doc.elements()}
    assert graph.parent(ids["abstract before any title"]) is None


def test_explicit_parent_ids_used_verbatim():
    annotation = stack_annotation("d", [[
        ("title", "Intro"),
        ("text", "body"),
    ]])
    annotation["pages"][0]["elements"][0]["parent_id"] = None
    annotation["pages"][0]["elements"][1]["parent_id"] = "e0"
    doc = build_document(annotation)
    graph = build_logical_graph(doc)
    assert graph.parent("e1") == "e0"


def test_explicit_cycle_rejected():
    annotation = stack_annotation("d", [[("text", "a"), ("text", "b")]])
    annotation["pages"][0]["elements"][0]["parent_id"] = "e1"
    annotation["pages"][0]["elements"][1]["parent_id"] = "e0"
    with pytest.raises(CyclicParentInput):
        build_logical_graph(build_document(annotation))


def test_dangling_parent_rejected():
    annotation = stack_annotation("d", [[("text", "a")]])
    annotation["pages"][0]["elements"][0]["parent_id"] = "ghost"
    with pytest.raises(DanglingParent):
        build_logical_graph(build_document(annotation))


def test_unknown_element_queries_raise(hierarchy_doc):
    graph = build_logical_graph(hierarchy_doc)
    with pytest.raises(UnknownElement):
        graph.children("ghost")
    with pytest.raises(UnknownElement):
        graph.parent("ghost")


def test_leaf_has_no_children(p1_doc):
    graph = build_logical_graph(p1_doc)
    assert graph.children("e5") == ()


def test_forest_is_acyclic_and_rooted_on_synthetic_docs():
    for seed in range(12):
        doc = random_processed_document(seed)
        graph = build_logical_graph(doc)
        for el_id in graph.parent_of:
            chain = graph.ancestors(el_id)  # would loop forever on a cycle
            assert len(chain) == len(set(chain))
            assert len(chain) <= len(graph.parent_of)


def test_cross_page_sections_continue():
    doc = build_document(stack_annotation("d", [
        [("title", "Methods"), ("text", "on page one")],
        [("text", "continues on page two"), ("title", "Results")],
    ]))
    graph = build_logical_graph(doc)
    ids = {el.text: el.id for el in doc.elements()}
    assert graph.parent(ids["continues on page two"]) == ids["Methods"]


def test_graph_dump_is_sorted(p1_doc):
    from docqa_forge.graphs import build_graphs

    graphs = build_graphs(p1_doc)
    dump = graphs.spatial[0].dump()
    assert dump["spatial_edges"] == sorted(dump["spatial_edges"])
    assert set(graphs.logical.dump()["parent_of"]) == {"e2", "e3", "e4", "e5"}
