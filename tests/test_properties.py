"""Property tests of the input layer (annotation and processed documents, JSONL
lines), of generation under a change of units, and of the order-free balance
and split."""

from __future__ import annotations

import json
import random
import re
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import balance, record_to_json, rows_of
from synthcorpus import random_annotation, random_processed_document
from docqa_forge.balance import BalanceConfig, balance_report
from docqa_forge.dataset import jsonl_lines, split_corpus
from docqa_forge.errors import ForgeError, SchemaViolation
from docqa_forge.generator import GenConfig, generate_corpus, generate_document
from docqa_forge.hashing import stable_unit, stable_unit_prefix
from docqa_forge.ingest import (
    document_from_processed,
    document_to_processed,
    parse_document,
    preprocess_document,
)
from docqa_forge.model import Document, ElementCategory

_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
# Two levels of nesting: the documents below nest these further. (st.recursive
# draws are slow enough to dominate the tests' time.)
JSON_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3) | st.dictionaries(
    st.text(max_size=4), _SCALARS | st.lists(_SCALARS, max_size=2), max_size=3)


_CATEGORIES = [c.value for c in ElementCategory]
_TEXTS = ["", "Results", "1. Results", "Table 1", "Table 1 lists it", "see Wang 2017"]


def _slots(container):
    """(container, key) of every value nested in container."""
    stack = [container]
    while stack:
        container = stack.pop()
        for key in (container if isinstance(container, dict) else range(len(container))):
            yield container, key
            if isinstance(container[key], (dict, list)):
                stack.append(container[key])


@st.composite
def _documents(draw):
    """A processed document, which is also an annotation document, with up to
    three of its values replaced by arbitrary JSON or removed."""
    pages, count = [], 0
    for index in range(draw(st.integers(0, 3))):
        elements = []
        for position in range(draw(st.integers(0, 4))):
            x, y = draw(st.integers(0, 80)), draw(st.floats(0, 80))
            elements.append({
                "id": f"e{count}", "category": draw(st.sampled_from(_CATEGORIES)),
                "bbox": [x, y, x + draw(st.integers(1, 20)), y + 5],
                "text": draw(st.sampled_from(_TEXTS)),
                "parent_id": draw(st.none() | st.sampled_from([f"e{count - 1}", "e0"])),
                "page_reading_index": position, "doc_reading_index": count})
            count += 1
        pages.append({"index": index, "width": 100, "height": 100, "elements": elements})
    references = draw(st.lists(st.sampled_from(["Wang 2017", "Li 2019"]), max_size=2))
    data = {"doc_id": "d", "references": references, "pages": pages,
            "mention_index": {label: [f"e{i}" for i in range(min(count, 2))]
                              for label in ["Table 1", *references]}}
    document = {"root": data}
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(list(_slots(document))))
        if container is not document and isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON_VALUES)
    return document["root"]


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_any_json_document_loads_or_raises_a_forge_error(data):
    for load in (lambda d: preprocess_document(parse_document(d)), document_from_processed):
        try:
            assert isinstance(load(data), Document)
        except ForgeError:
            pass


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_processed_documents_round_trip_through_json(seed):
    doc = random_processed_document(seed)
    assert document_from_processed(json.loads(json.dumps(document_to_processed(doc)))) == doc


def _scaled(annotation, fx: float, fy: float) -> dict:
    """The annotation with x sizes and coordinates times fx, y ones times fy."""
    pages = [{**page, "width": page["width"] * fx, "height": page["height"] * fy,
              "elements": [{**el, "bbox": [v * f for v, f in zip(el["bbox"], (fx, fy, fx, fy))]}
                           for el in page["elements"]]}
             for page in annotation["pages"]]
    return {**annotation, "pages": pages}


def _generated_lines(annotation):
    records, excluded = generate_document(
        preprocess_document(parse_document(annotation)), GenConfig(seed=7))
    return [json.dumps(record_to_json(r)) for r in records], excluded


# Any one unit to another, from micrometres to kilometres (points, pixels, mm, ...)
_FACTORS = st.floats(1e-6, 1e6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.randoms(use_true_random=False),
       _FACTORS, _FACTORS)
def test_generated_records_do_not_depend_on_units(seed, off_grid, rng, fx, fy):
    annotation = random_annotation(seed)
    if off_grid:  # synthcorpus boxes lie on a 1/128 grid; move each edge inward off it
        for page in annotation["pages"]:
            for el in page["elements"]:
                x0, y0, x1, y1 = el["bbox"]
                w, h = (x1 - x0) * rng.random() / 8, (y1 - y0) * rng.random() / 8
                el["bbox"] = [x0 + w, y0 + h, x1 - w * rng.random(), y1 - h * rng.random()]
    expected = _generated_lines(annotation)
    assert _generated_lines(_scaled(annotation, fx, fx)) == expected
    assert _generated_lines(_scaled(annotation, fx, fy)) == expected


# Characters at which str.splitlines() ends a line, and padding that is JSON
# whitespace (space, tab) or only str.strip() whitespace.
_LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")
_PADDING = st.text(alphabet=" \t\u3000\xa0\ufeff", max_size=3)
_PIECE = st.one_of(
    st.tuples(_PADDING, JSON_VALUES.map(json.dumps), _PADDING).map("".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
_TEXT = st.lists(st.tuples(_PIECE, st.sampled_from(_LINE_BREAKS)).map("".join),
                 max_size=4).map("".join)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_TEXT)
def test_jsonl_line_is_accepted_exactly_when_json_loads_accepts_it(tmp_path, text):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = [json.loads(line) for line in text.splitlines() if line.strip()]
    except (ValueError, RecursionError):
        expected = None
    try:
        got = []
        jsonl_lines(path, got.append)
    except SchemaViolation:
        got = None
    assert json.dumps(got) == json.dumps(expected)  # NaN equals itself here


def _bad_byte_lineno(raw: bytes) -> int:
    """The line of the first byte that is not UTF-8, numbered as str.splitlines()
    numbers the whole file (raw decodes elsewhere to text without U+FFFD)."""
    lines = raw.decode("utf-8", "replace").splitlines()
    return next(i for i, line in enumerate(lines, start=1) if "\ufffd" in line)


@pytest.mark.parametrize("brk", _LINE_BREAKS, ids=repr)
def test_bad_byte_is_named_with_its_splitlines_lineno(tmp_path, brk):
    path = tmp_path / "lines.jsonl"
    lines = [b"[1]", b" ", b'{"a": 2}', b'"caf\xe9"', b"[3]"]
    raw = brk.encode().join(lines) + b"\n"
    path.write_bytes(raw)
    assert _bad_byte_lineno(raw) == 4
    with pytest.raises(SchemaViolation, match=f"^{re.escape(str(path))}:4: not valid UTF-8$"):
        jsonl_lines(path, lambda value: value)
    # an earlier bad line wins, also inside the same \n-ended chunk
    path.write_bytes(raw.replace(b" ", b"{", 1))
    with pytest.raises(SchemaViolation, match=f"^{re.escape(str(path))}:2: not valid JSON$"):
        jsonl_lines(path, lambda value: value)


_VALID_LINES = st.lists(st.tuples(st.sampled_from(["", " ", "\t"]),
                                  JSON_VALUES.map(json.dumps),
                                  st.sampled_from(_LINE_BREAKS)).map("".join),
                        min_size=1, max_size=5).map("".join)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_VALID_LINES, st.data())
def test_one_bad_byte_is_named_with_its_splitlines_lineno(tmp_path, text, data):
    raw = text.encode("utf-8")
    offset = data.draw(st.integers(0, len(raw)))
    raw = raw[:offset] + b"\xff" + raw[offset:]
    path = tmp_path / "lines.jsonl"
    path.write_bytes(raw)
    lineno = _bad_byte_lineno(raw)
    with pytest.raises(SchemaViolation,
                       match=f"^{re.escape(str(path))}:{lineno}: not valid UTF-8$"):
        jsonl_lines(path, lambda value: value)


_BALANCE = BalanceConfig(seed=7)
_RATIOS = (0.7, 0.1, 0.2)


def _split_qids(records):
    return [{r.qid for r in split.records} for split in split_corpus(records, _RATIOS, 7)]


@lru_cache(maxsize=1)
def _generated():
    """A generated record list in generation order, and what balance and split make of it."""
    docs = [random_processed_document(seed, n_pages=3) for seed in range(4)]
    records = generate_corpus(docs, GenConfig(seed=7), max_workers=1).records
    kept = balance(records, _BALANCE)
    assert 0 < len(kept) < len(records)  # some buckets are capped
    return records, kept, balance_report(rows_of(records), rows_of(kept)), _split_qids(kept)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_balance_and_split_do_not_depend_on_input_order(seed):
    records, kept, report, split_qids = _generated()
    shuffled = list(records)
    random.Random(seed).shuffle(shuffled)
    kept_shuffled = balance(shuffled, _BALANCE)
    kept_qids = {r.qid for r in kept}
    assert [r.qid for r in kept_shuffled] == [r.qid for r in shuffled if r.qid in kept_qids]
    assert balance_report(rows_of(shuffled), rows_of(kept_shuffled)) == report
    assert _split_qids(kept_shuffled) == split_qids


@settings(max_examples=300, deadline=None)
@given(st.lists(_SCALARS, max_size=4), st.lists(_SCALARS, min_size=1, max_size=4))
def test_a_hashed_prefix_gives_stable_unit_of_prefix_and_part(prefix, parts):
    # balance ranks a bucket's qids by the prefix's hash state, copied per qid
    unit = stable_unit_prefix(*prefix)
    assert [unit(part) for part in parts] == [stable_unit(*prefix, part) for part in parts]
