"""Annotation parsing and document preprocessing.

parse_document checks the JSON shape of one annotation and normalizes it.
preprocess_document then walks each page once, storing its elements in
reading order with both reading indices and relabelling captions, and builds
the mention index last. A Document checks its ids, parent links and mention
index itself; the loaders check shapes, geometry and processed reading indices.
"""

from __future__ import annotations

import json
import re
import sys
import unicodedata
from dataclasses import dataclass, replace

from .errors import InvalidBBox, MalformedInput
from .geometry import BoundingBox
from .model import UNASSIGNED, Document, DocElement, ElementCategory, Page, TaskId

# Column clustering: a new column starts when an element's x-center sits more
# than this fraction of the page width away from the running column center.
COLUMN_GAP = 0.25

# Caption association: nearest Text within this fraction of the page height.
CAPTION_MAX_GAP = 0.08

# Element-count ceilings implied by the fixed answer index spaces.
PAGE_ELEMENT_LIMIT = 25
DOC_ELEMENT_LIMIT = 400

_CATEGORIES = {c.value: c for c in ElementCategory}

# Coordinates are quantized after normalization so that a document written in
# source units parses back exactly despite the float multiply/divide.
_QUANT = 9


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def decode_json(raw: bytes | str):
    """The JSON value of an annotation or processed-corpus file.

    Raises MalformedInput when raw is not one JSON value in UTF-8 (or a
    UTF-16/32 encoding json accepts), or is nested too deeply to decode.
    """
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise MalformedInput(f"not valid JSON: {exc}") from exc


def parse_document(raw: bytes | str | dict) -> Document:
    """Parse one annotation-JSON document and normalize its geometry.

    Reading indices are left unassigned; categories (including explicit
    caption labels) are taken as given.
    """
    return _load_document(decode_json(raw) if isinstance(raw, (bytes, str)) else raw,
                          processed=False)


def _load_document(data, processed: bool) -> Document:
    """The one page/element loop; with processed set, it also checks that each
    reading index equals its position, and reads the mention index."""
    if not isinstance(data, dict):
        raise MalformedInput("document must be a JSON object")

    doc_id = data.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise MalformedInput("doc_id must be a nonempty string")

    references = data.get("references", [])
    if not isinstance(references, list) or any(not isinstance(r, str) for r in references):
        raise MalformedInput("references must be a list of strings")
    for position, reference in enumerate(references):
        if not reference.strip():
            raise MalformedInput(f"document {doc_id!r}: reference {position} is empty")

    pages_raw = data.get("pages")
    if not isinstance(pages_raw, list):
        raise MalformedInput("pages must be a list")

    pri = dri = UNASSIGNED  # as parse_document leaves them
    start = 0  # elements on earlier pages
    pages: list[Page] = []
    for position, page_raw in enumerate(pages_raw):
        if not isinstance(page_raw, dict):
            raise MalformedInput(f"page {position} must be an object")
        index = page_raw.get("index")
        if index != position:
            raise MalformedInput(f"page index {index!r} does not match position {position}")
        width = page_raw.get("width")
        height = page_raw.get("height")
        if not _is_positive_number(width) or not _is_positive_number(height):
            raise MalformedInput(f"page {position}: width/height must be positive finite numbers")
        width, height = float(width), float(height)
        elements_raw = page_raw.get("elements", [])
        if not isinstance(elements_raw, list):
            raise MalformedInput(f"page {position}: elements must be a list")

        elements = []
        for el_raw in elements_raw:
            el_id, bbox, category, text, parent_id = _parse_element(el_raw, position,
                                                                    width, height)
            if processed:
                pri, dri = len(elements), start + len(elements)
                for key, want in (("page_reading_index", pri), ("doc_reading_index", dri)):
                    got = el_raw.get(key)
                    if type(got) is not int or got != want:  # bool is no index
                        raise MalformedInput(
                            f"document {doc_id!r}: element {el_id!r}: {key} must be {want} "
                            f"(pages store their elements in reading order), got {got!r}")
            elements.append(DocElement(id=el_id, page_index=position, bbox=bbox,
                                       category=category, text=text, parent_id=parent_id,
                                       page_reading_index=pri, doc_reading_index=dri))
        start += len(elements)
        pages.append(Page(index=position, width=width, height=height,
                          elements=tuple(elements)))

    mention_index = {}
    if processed:
        mentions = data.get("mention_index", {})
        if not isinstance(mentions, dict):
            raise MalformedInput(f"document {doc_id!r}: mention_index must be an object")
        for label, el_ids in mentions.items():
            if not isinstance(el_ids, list):
                raise MalformedInput(f"document {doc_id!r}: mention_index entry {label!r} "
                                     f"must be a list of element ids")
        mention_index = {k: tuple(v) for k, v in sorted(mentions.items())}
    return Document(doc_id=doc_id, pages=tuple(pages), references=tuple(references),
                    mention_index=mention_index)


def _is_positive_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v <= sys.float_info.max


def _parse_element(raw, page_index: int, width: float, height: float):
    """The id, normalized box, category, text and parent id of one raw element."""
    if not isinstance(raw, dict):
        raise MalformedInput(f"page {page_index}: element must be an object")
    el_id = raw.get("id")
    if not isinstance(el_id, str) or not el_id:
        raise MalformedInput(f"page {page_index}: element id must be a nonempty string")
    name = raw.get("category")
    category = _CATEGORIES.get(name) if isinstance(name, str) else None
    if category is None:
        raise MalformedInput(f"element {el_id!r}: unknown category {name!r}")
    bbox_raw = raw.get("bbox")
    if not isinstance(bbox_raw, list) or len(bbox_raw) != 4:
        raise MalformedInput(f"element {el_id!r}: bbox must be four numbers")
    for v in bbox_raw:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise MalformedInput(f"element {el_id!r}: bbox must be four numbers")
    x0, y0, x1, y1 = bbox_raw  # compared unconverted, so no int overflows float()
    if not (x0 < x1 and y0 < y1):
        raise InvalidBBox(f"element {el_id!r}: degenerate bbox {bbox_raw}")
    if x0 < 0 or y0 < 0 or x1 > width or y1 > height:
        raise InvalidBBox(f"element {el_id!r}: bbox {bbox_raw} outside page {width}x{height}")
    text = raw.get("text", "")
    if not isinstance(text, str):
        raise MalformedInput(f"element {el_id!r}: text must be a string")
    parent_id = raw.get("parent_id")
    if parent_id is not None and not isinstance(parent_id, str):
        raise MalformedInput(f"element {el_id!r}: parent_id must be a string or null")
    try:  # a box too thin for _QUANT digits collapses when rounded
        bbox = BoundingBox(
            round(x0 / width, _QUANT),
            round(y0 / height, _QUANT),
            round(x1 / width, _QUANT),
            round(y1 / height, _QUANT),
        )
    except InvalidBBox as exc:
        raise InvalidBBox(f"element {el_id!r}: {exc}") from exc
    return el_id, bbox, category, text, parent_id


# ---------------------------------------------------------------------------
# Preprocessing: reading order and captions
# ---------------------------------------------------------------------------

def preprocess_document(doc: Document) -> Document:
    """Preprocess a freshly parsed document in one pass over its pages.

    Each page stores its elements in reading order, the canon that Scope and
    document_to_processed rely on, each built once with both reading indices;
    the Texts that pair_captions gives a float become its captions.
    """
    pages = []
    start = 0
    for page in doc.pages:
        elements = [DocElement(id=el.id, page_index=el.page_index, bbox=el.bbox,
                               category=el.category, text=el.text, parent_id=el.parent_id,
                               page_reading_index=i, doc_reading_index=start + i)
                    for i, el in enumerate(_reading_order(page.elements))]
        start += len(elements)
        owners = pair_captions([el for el in elements if el.category.is_float],
                               [el for el in elements if el.category == ElementCategory.TEXT])
        elements = tuple(
            replace(el, category=owners[el.id].category.caption_kind) if el.id in owners else el
            for el in elements)
        pages.append(replace(page, elements=elements))
    return Document(doc_id=doc.doc_id, pages=tuple(pages), references=doc.references,
                    mention_index=build_mention_index(
                        doc.references, (el for page in pages for el in page.elements)))


def _reading_order(elements) -> list[DocElement]:
    """The elements column-first, top-to-bottom.

    Elements cluster into columns by x-center (greedy 1-D clustering with a
    COLUMN_GAP threshold against the running column mean); columns read
    left to right, and within a column order is (y0, x0, id).
    """
    by_center = sorted(elements, key=lambda e: (e.bbox.center[0], e.id))
    columns: list[list[DocElement]] = []
    means: list[float] = []
    for el in by_center:
        cx = el.bbox.center[0]
        if columns and cx - means[-1] <= COLUMN_GAP:
            columns[-1].append(el)
            n = len(columns[-1])
            means[-1] += (cx - means[-1]) / n
        else:
            columns.append([el])
            means.append(cx)

    ordered: list[DocElement] = []
    for column in columns:
        column.sort(key=lambda e: (e.bbox.y0, e.bbox.x0, e.id))
        ordered.extend(column)
    return ordered


def pair_captions(anchors, candidates) -> dict[str, DocElement]:
    """Pair floats with their captions on one page; returns caption id -> float.

    Each anchor proposes its nearest candidate within CAPTION_MAX_GAP of
    edge-to-edge gap; candidates below the anchor win over candidates above,
    and ties go to the smaller reading index. A candidate proposed by several
    anchors goes to the nearest one (ties to the smaller anchor reading
    index); anchors that lose their only candidate get no caption.
    """
    owners: dict[str, tuple[float, int, DocElement]] = {}  # caption id -> (gap, anchor ri, anchor)
    for anchor in anchors:
        _, acy = anchor.bbox.center
        below, above = [], []
        for cand in candidates:
            gap = anchor.bbox.edge_gap(cand.bbox)
            if gap > CAPTION_MAX_GAP:
                continue
            entry = (gap, cand.page_reading_index, cand)
            (below if cand.bbox.center[1] >= acy else above).append(entry)
        group = below or above
        if not group:
            continue
        gap, _, cand = min(group, key=lambda t: (t[0], t[1]))
        held = owners.get(cand.id)
        if held is None or (gap, anchor.page_reading_index) < (held[0], held[1]):
            owners[cand.id] = (gap, anchor.page_reading_index, anchor)
    return {cand_id: anchor for cand_id, (_, _, anchor) in owners.items()}


# ---------------------------------------------------------------------------
# Mention index
# ---------------------------------------------------------------------------

# "Table 12" must not satisfy a query for "Table 1": both ends of a match are
# guarded against adjacent alphanumerics.
_FLOAT_MENTION = re.compile(r"(?<![A-Za-z0-9])(table|figure|fig\.)\s+(\d+)(?![A-Za-z0-9])",
                            re.IGNORECASE)


def build_mention_index(references, elements) -> dict[str, tuple[str, ...]]:
    """Map canonical float labels ("fig. 03" -> "Figure 3") and citation keys
    to the ids of the Text/List elements naming them."""
    keys = [(key, re.compile(r"(?<![A-Za-z0-9])" + re.escape(key) + r"(?![A-Za-z0-9])"))
            for key in dict.fromkeys(references)]
    index: dict[str, list[str]] = {}
    for el in elements:
        if el.category not in (ElementCategory.TEXT, ElementCategory.LIST):
            continue
        labels = set()
        for word, number in _FLOAT_MENTION.findall(el.text):
            # ASCII digits, no leading zeros ("03", "٣" -> "3"); int() stops at 4,300 digits
            number = "".join(str(unicodedata.decimal(d)) for d in number).lstrip("0") or "0"
            labels.add(f"{'Table' if word.lower().startswith('t') else 'Figure'} {number}")
        for label in sorted(labels):
            index.setdefault(label, []).append(el.id)
        for key, pattern in keys:
            if pattern.search(el.text):
                index.setdefault(key, []).append(el.id)
    return {k: tuple(v) for k, v in sorted(index.items())}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exclusion:
    """A page or document left out of one task's generation, as the manifest lists it."""

    doc_id: str
    task: str
    scope: str  # "page" or "document"
    page_index: int | None
    reason: str


@dataclass(frozen=True)
class ValidationReport:
    excluded: tuple[Exclusion, ...]
    eligible_pages: tuple[int, ...]
    document_eligible: bool


def validate_for_generation(doc: Document, task: TaskId) -> ValidationReport:
    """Flag over-limit pages/documents; never raises, only reports."""
    excluded: list[Exclusion] = []
    if doc.element_count == 0:
        excluded.append(Exclusion(doc.doc_id, task.value, "document", None, "no elements"))
        return ValidationReport(tuple(excluded), (), False)

    if task == TaskId.C:
        if doc.element_count > DOC_ELEMENT_LIMIT:
            excluded.append(Exclusion(
                doc.doc_id, task.value, "document", None,
                f"{doc.element_count} elements exceed limit {DOC_ELEMENT_LIMIT}"))
            return ValidationReport(tuple(excluded), (), False)
        return ValidationReport((), tuple(p.index for p in doc.pages), True)

    eligible = []
    for page in doc.pages:
        if len(page.elements) > PAGE_ELEMENT_LIMIT:
            excluded.append(Exclusion(
                doc.doc_id, task.value, "page", page.index,
                f"{len(page.elements)} elements exceed limit {PAGE_ELEMENT_LIMIT}"))
        else:
            eligible.append(page.index)
    return ValidationReport(tuple(excluded), tuple(eligible), True)


# ---------------------------------------------------------------------------
# Processed-corpus serialization (ingest output)
# ---------------------------------------------------------------------------

def document_to_processed(doc: Document) -> dict:
    """The annotation-schema dict of doc in source units, which parse_document
    reads back, with both reading indices of each element and the mention index."""
    return {
        "doc_id": doc.doc_id,
        "references": list(doc.references),
        "pages": [
            {
                "index": page.index,
                "width": page.width,
                "height": page.height,
                "elements": [
                    {
                        "id": el.id,
                        "category": el.category.value,
                        "bbox": [
                            round(el.bbox.x0 * page.width, _QUANT),
                            round(el.bbox.y0 * page.height, _QUANT),
                            round(el.bbox.x1 * page.width, _QUANT),
                            round(el.bbox.y1 * page.height, _QUANT),
                        ],
                        "text": el.text,
                        "parent_id": el.parent_id,
                        "page_reading_index": el.page_reading_index,
                        "doc_reading_index": el.doc_reading_index,
                    }
                    for el in page.elements
                ],
            }
            for page in doc.pages
        ],
        "mention_index": {k: list(v) for k, v in doc.mention_index.items()},
    }


def document_from_processed(data: dict) -> Document:
    """Inverse of document_to_processed. Pages store their elements in reading order, so
    each reading index must equal the element's position on its page and in the document;
    the mention index must map each label to a list of the document's element ids."""
    return _load_document(data, processed=True)
