from __future__ import annotations

import json
import unicodedata

import pytest

from conftest import build_document, stack_annotation
from synthcorpus import random_annotation
from docqa_forge.errors import (
    CyclicParentInput,
    DanglingParent,
    DuplicateId,
    InvalidBBox,
    MalformedInput,
)
from docqa_forge.ingest import (
    document_from_processed,
    document_to_processed,
    parse_document,
    preprocess_document,
    validate_for_generation,
)
from docqa_forge.model import ElementCategory, TaskId


def one_page(elements, width=100.0, height=100.0, doc_id="d"):
    return {"doc_id": doc_id, "references": [],
            "pages": [{"index": 0, "width": width, "height": height,
                       "elements": elements}]}


def element(el_id, category, bbox, text=""):
    return {"id": el_id, "category": category, "bbox": bbox,
            "text": text, "parent_id": None}


# --- parsing -----------------------------------------------------------------

def test_parse_normalizes_by_page_dimensions():
    doc = parse_document(json.dumps(one_page(
        [element("t", "title", [10, 5, 90, 10])])))
    bbox = doc.pages[0].elements[0].bbox
    assert bbox.as_tuple() == (0.10, 0.05, 0.90, 0.10)


def test_parse_rejects_degenerate_bbox():
    with pytest.raises(InvalidBBox):
        parse_document(json.dumps(one_page([element("t", "title", [90, 5, 10, 10])])))


def test_parse_names_the_element_whose_box_collapses_when_normalized():
    with pytest.raises(InvalidBBox, match=r"^element 'tiny': degenerate box"):
        parse_document(json.dumps(one_page([element("tiny", "text", [0, 0, 1e-10, 10])])))


def test_parse_rejects_bbox_outside_page():
    with pytest.raises(InvalidBBox):
        parse_document(json.dumps(one_page([element("t", "title", [10, 5, 110, 10])])))


def test_parse_rejects_a_bbox_int_beyond_the_float_range():
    huge = 10 ** 400  # float(huge) overflows; the bounds check must come first
    with pytest.raises(InvalidBBox, match=r"^element 't': bbox .* outside page 100.0x100.0"):
        parse_document(json.dumps(one_page([element("t", "title", [10, 5, huge, 10])])))


def test_parse_rejects_duplicate_ids():
    with pytest.raises(DuplicateId):
        parse_document(json.dumps(one_page([
            element("e1", "title", [10, 5, 90, 10]),
            element("e1", "text", [10, 20, 90, 30]),
        ])))


@pytest.mark.parametrize("parents, error, message", [
    ({"e1": "ghost"}, DanglingParent, "document 'links': 'e1' references unknown parent 'ghost'"),
    ({"e0": "e1", "e1": "e0"}, CyclicParentInput, "document 'links': parent chain through "),
])
def test_parse_rejects_bad_parent_links(parents, error, message):
    data = one_page([element("e0", "title", [10, 5, 90, 10]),
                     element("e1", "text", [10, 20, 90, 30])], doc_id="links")
    for el in data["pages"][0]["elements"]:
        el["parent_id"] = parents.get(el["id"])
    with pytest.raises(error) as caught:
        parse_document(json.dumps(data))
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("mutation", [
    lambda d: d.pop("doc_id"),
    lambda d: d.update(doc_id=""),
    lambda d: d["pages"][0].update(index=5),
    lambda d: d["pages"][0].update(width=-3),
    lambda d: d["pages"][0]["elements"][0].update(category="banner"),
    lambda d: d["pages"][0]["elements"][0].update(bbox=[1, 2, 3]),
    lambda d: d["pages"][0]["elements"][0].update(text=42),
    lambda d: d["pages"][0]["elements"][0].update(category=["title"]),
    lambda d: d["pages"][0]["elements"][0].update(category={"title": 1}),
])
def test_parse_rejects_schema_violations(mutation):
    data = one_page([element("e1", "title", [10, 5, 90, 10])])
    mutation(data)
    with pytest.raises(MalformedInput):
        parse_document(json.dumps(data))


@pytest.mark.parametrize("reference", ["", "  \t"])
def test_parse_rejects_empty_reference(reference):
    data = one_page([element("e1", "title", [10, 5, 90, 10])], doc_id="refs-doc")
    data["references"] = ["Wang C et al,2017", reference]
    with pytest.raises(MalformedInput, match=r"'refs-doc'.*reference 1 is empty"):
        parse_document(json.dumps(data))


def test_parse_rejects_non_json():
    with pytest.raises(MalformedInput):
        parse_document(b"{nope")


def test_parse_serialize_round_trip(p1_annotation):
    doc = parse_document(json.dumps(p1_annotation))
    again = parse_document(json.dumps(document_to_processed(doc)))
    assert again == doc


def test_parse_serialize_round_trip_on_synthetic_docs():
    for seed in range(12):
        doc = parse_document(json.dumps(random_annotation(seed)))
        again = parse_document(json.dumps(document_to_processed(doc)))
        assert again == doc


# --- reading order -------------------------------------------------------------

def test_reading_order_two_columns():
    # left column fully before right column
    doc = parse_document(json.dumps(one_page([
        element("A", "text", [5, 10, 45, 30]),
        element("B", "text", [5, 40, 45, 80]),
        element("C", "text", [55, 10, 95, 50]),
    ])))
    page = preprocess_document(doc).pages[0]
    order = [el.id for el in sorted(page.elements, key=lambda e: e.page_reading_index)]
    assert order == ["A", "B", "C"]


def test_reading_order_single_column_by_y():
    doc = parse_document(json.dumps(one_page([
        element("c", "text", [5, 70, 95, 90]),
        element("a", "text", [5, 10, 95, 30]),
        element("b", "text", [5, 40, 95, 60]),
    ])))
    page = preprocess_document(doc).pages[0]
    order = [el.id for el in sorted(page.elements, key=lambda e: e.page_reading_index)]
    assert order == ["a", "b", "c"]


def test_reading_order_identical_boxes_tie_break_by_id():
    doc = parse_document(json.dumps(one_page([
        element("z", "text", [5, 10, 95, 30]),
        element("a", "text", [5, 10, 95, 30]),
    ])))
    page = preprocess_document(doc).pages[0]
    order = [el.id for el in sorted(page.elements, key=lambda e: e.page_reading_index)]
    assert order == ["a", "z"]


def test_reading_order_empty_page_is_valid():
    doc = parse_document(json.dumps({"doc_id": "d", "pages": [
        {"index": 0, "width": 10, "height": 10, "elements": []}]}))
    assert preprocess_document(doc).pages[0].elements == ()


def test_reading_index_bijectivity_on_synthetic_pages():
    for seed in range(10):
        doc = preprocess_document(parse_document(json.dumps(random_annotation(seed))))
        for page in doc.pages:
            indices = sorted(el.page_reading_index for el in page.elements)
            assert indices == list(range(len(page.elements)))


def test_doc_reading_index_follows_page_concatenation():
    for seed in range(10):
        doc = preprocess_document(parse_document(json.dumps(random_annotation(seed))))
        flat = []
        for page in doc.pages:
            flat.extend(sorted(page.elements, key=lambda e: e.page_reading_index))
        assert [el.doc_reading_index for el in flat] == list(range(len(flat)))


def test_pages_store_their_elements_in_reading_order():
    two_column = one_page([
        element("R", "text", [55, 10, 95, 50]),
        element("L2", "text", [5, 40, 45, 80]),
        element("L1", "text", [5, 10, 45, 30]),
    ])
    second = dict(two_column["pages"][0], index=1,
                  elements=[element("T", "title", [5, 5, 95, 15]),
                            element("F", "figure", [5, 20, 95, 60]),
                            element("C", "text", [5, 62, 95, 70], "Figure 1 caption.")])
    two_column["pages"].append(second)
    raws = [random_annotation(seed) for seed in range(10)] + [two_column]
    for raw in raws:
        doc = preprocess_document(parse_document(json.dumps(raw)))
        earlier = 0
        for page in doc.pages:
            n = len(page.elements)
            assert [el.page_reading_index for el in page.elements] == list(range(n))
            for el in page.elements:
                assert el.doc_reading_index == earlier + el.page_reading_index
            earlier += n
    assert [el.id for el in doc.pages[0].elements] == ["L1", "L2", "R"]  # two_column


# --- caption association --------------------------------------------------------

def test_caption_below_table_relabeled(p1_doc):
    categories = {el.id: el.category for el in p1_doc.elements()}
    assert categories["e4"] == ElementCategory.TABLE_CAPTION
    assert categories["e2"] == ElementCategory.TEXT


def test_caption_beyond_distance_cap_not_relabeled():
    doc = parse_document(json.dumps(one_page([
        element("fig", "figure", [5, 10, 95, 30]),
        element("txt", "text", [5, 50, 95, 60], "Figure 1 far away."),
    ])))
    page = preprocess_document(doc).pages[0]
    categories = {el.id: el.category for el in page.elements}
    assert categories["txt"] == ElementCategory.TEXT


def test_equidistant_text_goes_to_smaller_reading_index_anchor():
    # 128-unit page: every coordinate is an exact binary fraction, so the
    # two caption gaps are exactly equal and the tie-break is exercised
    doc = parse_document(json.dumps(one_page([
        element("t1", "table", [40, 32, 60, 44]),
        element("cap", "text", [40, 48, 60, 56], "Table 1 caption."),
        element("t2", "table", [40, 60, 60, 72]),
    ], width=128.0, height=128.0)))
    page = preprocess_document(doc).pages[0]
    categories = {el.id: el.category for el in page.elements}
    assert categories["cap"] == ElementCategory.TABLE_CAPTION
    # t1 reads first, so the logical pairing must hand the caption to t1
    from docqa_forge.graphs import build_logical_graph

    doc2 = preprocess_document(doc)
    graph = build_logical_graph(doc2)
    assert graph.parent("t1") == "cap"
    assert graph.parent("t2") != "cap"


def test_caption_conservation_on_synthetic_pages():
    for seed in range(10):
        raw = parse_document(json.dumps(random_annotation(seed)))
        for page, after in zip(raw.pages, preprocess_document(raw).pages):
            before = {el.id: el for el in page.elements}
            floats = sum(1 for el in before.values() if el.category.is_float)
            relabeled = 0
            for el in after.elements:
                prior = before[el.id]
                if el.category != prior.category:
                    assert prior.category == ElementCategory.TEXT
                    assert el.category.is_caption
                    relabeled += 1
                assert el.bbox == prior.bbox and el.text == prior.text
            assert relabeled <= floats


# --- mention index ---------------------------------------------------------------

def test_mention_index_finds_table_labels():
    doc = build_document(one_page([
        element("t", "text", [5, 10, 95, 30], "as shown in Table 2, the effect holds"),
    ]))
    assert doc.mention_index["Table 2"] == ("t",)


def test_mention_index_empty_without_mentions():
    doc = build_document(one_page([
        element("t", "text", [5, 10, 95, 30], "no floats referenced here"),
    ]))
    assert not any(k.startswith("Table") for k in doc.mention_index)


def test_mention_index_respects_token_boundaries():
    doc = build_document(one_page([
        element("t", "text", [5, 10, 95, 30], "compare with Table 12 here"),
    ]))
    assert "Table 12" in doc.mention_index
    assert "Table 1" not in doc.mention_index


def test_mention_index_canonicalizes_fig_abbreviation():
    doc = build_document(one_page([
        element("t", "text", [5, 10, 95, 30], "see fig. 3 and FIGURE 4"),
    ]))
    assert doc.mention_index["Figure 3"] == ("t",)
    assert doc.mention_index["Figure 4"] == ("t",)


@pytest.mark.parametrize("text, label", [
    ("see fig. 03", "Figure 3"),
    ("see Table \u0663", "Table 3"),  # ARABIC-INDIC DIGIT THREE
    ("see Table " + "1" * 5000, "Table " + "1" * 5000),  # longer than int() reads
], ids=["leading-zero", "arabic-indic", "5000-digits"])
def test_mention_index_canonicalizes_numbers(text, label):
    doc = build_document(one_page([element("t", "text", [5, 10, 95, 30], text)]))
    assert doc.mention_index == {label: ("t",)}


def test_mention_index_reads_every_decimal_digit_as_int_does():
    # each Unicode decimal digit after the zero of its own script, e.g. "03"
    numbers = [chr(c - unicodedata.decimal(chr(c))) + chr(c) for c in range(0x110000)
               if unicodedata.category(chr(c)) == "Nd"]
    doc = build_document(one_page([
        element(f"t{v}", "text", [5, 2 + 9 * v, 95, 9 + 9 * v],
                " ".join(f"Table {n}" for n in numbers if int(n) == v))
        for v in range(10)
    ]))
    assert doc.mention_index == {f"Table {v}": (f"t{v}",) for v in range(10)}


def test_mention_index_citation_keys():
    data = one_page([
        element("t", "text", [5, 10, 95, 30], "following Wang C et al,2017 we proceed"),
    ])
    data["references"] = ["Wang C et al,2017", "Guan KL et al,1991"]
    doc = build_document(data)
    assert doc.mention_index["Wang C et al,2017"] == ("t",)
    assert "Guan KL et al,1991" not in doc.mention_index


def test_mention_index_only_text_and_list_elements(p1_doc):
    # e4 became a caption during preprocessing, so only e2 mentions Table 1
    assert p1_doc.mention_index["Table 1"] == ("e2",)


def test_duplicate_reference_keys_counted_once():
    data = one_page([
        element("t", "text", [5, 10, 95, 30], "per Wang C et al,2017 exactly"),
    ])
    data["references"] = ["Wang C et al,2017", "Wang C et al,2017"]
    doc = build_document(data)
    assert doc.mention_index["Wang C et al,2017"] == ("t",)


# --- validation --------------------------------------------------------------------

def test_page_over_25_elements_excluded_for_task_a():
    blocks = [("text", f"block {i}") for i in range(26)]
    doc = build_document(stack_annotation("big", [blocks]))
    report = validate_for_generation(doc, TaskId.A)
    assert report.eligible_pages == ()
    assert report.excluded[0].scope == "page"


def test_doc_with_exactly_400_elements_included_for_task_c():
    pages = [[("text", f"b{p}-{i}") for i in range(25)] for p in range(16)]
    doc = build_document(stack_annotation("exact400", pages))
    assert doc.element_count == 400
    report = validate_for_generation(doc, TaskId.C)
    assert report.document_eligible
    assert report.excluded == ()


def test_doc_over_400_elements_excluded_for_task_c():
    pages = [[("text", f"b{p}-{i}") for i in range(25)] for p in range(16)]
    pages.append([("text", "one more")])
    doc = build_document(stack_annotation("over400", pages))
    report = validate_for_generation(doc, TaskId.C)
    assert not report.document_eligible


def test_empty_document_excluded_with_reason():
    doc = parse_document(json.dumps({"doc_id": "empty", "pages": [
        {"index": 0, "width": 10, "height": 10, "elements": []}]}))
    for task in TaskId:
        report = validate_for_generation(preprocess_document(doc), task)
        assert not report.document_eligible
        assert report.excluded[0].reason == "no elements"


def test_processed_page_without_elements_key_loads():
    doc = document_from_processed({"doc_id": "bare", "pages": [
        {"index": 0, "width": 10, "height": 10}]})
    assert doc.element_count == 0 and doc.mention_index == {}
