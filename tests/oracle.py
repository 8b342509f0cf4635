"""Independent answer oracle used by the test suite.

Recomputes every answer straight from template semantics: no compiled
programs, no prebuilt relational graphs. Geometry, caption pairing, section
ownership, and mention scanning are all re-derived inline with their own
code so a defect in the production path cannot hide here.
"""

from __future__ import annotations

import math
import string

from docqa_forge.errors import AnchorNotFound, OverflowAnswer
from docqa_forge.model import Document, DocElement, ElementCategory, Page
from docqa_forge.programs import AnswerValue
from docqa_forge.templates import QuestionTemplate

_ALNUM = set(string.ascii_letters + string.digits)

# Template ids per answer family; the oracle keeps its own map on purpose.
_FAMILIES = {
    "exist_pos": {"A01", "A02", "A03", "A05"},
    "exist_pos_neg": {"A04"},
    "exist_rel": {"A06", "A07", "A08", "A10", "A11"},
    "exist_rel_neg": {"A09"},
    "exist_bare": {"A12", "A13", "A14", "A15", "A16"},
    "exist_title": {"A17", "A18", "A19", "A20", "A21", "A22"},
    "count_rel": {"A23", "A24", "A25", "A26", "A27"},
    "count_verify": {"A28", "A29", "A30", "A31", "A32"},
    "count_bare": {"A33", "A34", "A35", "A36"},
    "b_turn": {"B01", "B02", "B03", "B04", "B05"},
    "b_pos": {"B06", "B07", "B08", "B09", "B10"},
    "b_objrec": {"B11", "B12", "B13", "B14", "B15"},
    "c_child": {"C01", "C02", "C03", "C04", "C05"},
    "c_parent_float": {"C06", "C07", "C08", "C09", "C10"},
    "c_parent_cite": {"C11", "C12", "C13", "C14", "C15"},
}
_FAMILY_OF = {tid: fam for fam, ids in _FAMILIES.items() for tid in ids}


# --- inline geometry --------------------------------------------------------

def _mid(box):
    return (box.x0 + box.x1) / 2, (box.y0 + box.y1) / 2


def _overlap_share(lo1, hi1, lo2, hi2):
    covered = min(hi1, hi2) - max(lo1, lo2)
    if covered < 0:
        covered = 0.0
    return covered / min(hi1 - lo1, hi2 - lo2)


def _direction(a, b):
    """Relation of b relative to a, re-derived from scratch."""
    eps = 1e-6
    share_x = _overlap_share(a.x0, a.x1, b.x0, b.x1)
    share_y = _overlap_share(a.y0, a.y1, b.y0, b.y1)
    (ax, ay), (bx, by) = _mid(a), _mid(b)
    dx, dy = bx - ax, by - ay
    if share_x >= 0.5 and share_y >= 0.5:
        return None
    if share_x >= 0.5:
        if dy < -eps:
            return "top"
        return "bottom" if dy > eps else None
    if share_y >= 0.5:
        if dx < -eps:
            return "left"
        return "right" if dx > eps else None
    if abs(dx) <= eps or abs(dy) <= eps:
        return None
    return ("top" if dy < 0 else "bottom") + "-" + ("left" if dx < 0 else "right")


def _admitted(rel):
    if rel == "top":
        return {"top", "top-left", "top-right"}
    if rel == "bottom":
        return {"bottom", "bottom-left", "bottom-right"}
    if rel == "left":
        return {"left", "top-left", "bottom-left"}
    if rel == "right":
        return {"right", "top-right", "bottom-right"}
    return {rel}


def _in_area(box, region):
    cx, cy = _mid(box)
    for part in region.split("-"):
        if part == "top" and not cy < 0.5:
            return False
        if part == "bottom" and not cy > 0.5:
            return False
        if part == "left" and not cx < 0.5:
            return False
        if part == "right" and not cx > 0.5:
            return False
    return True


def _gap(a, b):
    dx = max(0.0, b.x0 - a.x1, a.x0 - b.x1)
    dy = max(0.0, b.y0 - a.y1, a.y0 - b.y1)
    return math.hypot(dx, dy)


# --- inline document structure ----------------------------------------------

def _cat(el: DocElement, label: str) -> bool:
    return el.category.value == label


def _page_order(page: Page):
    return sorted(page.elements, key=lambda e: e.page_reading_index)


def _doc_order(doc: Document):
    return sorted(doc.elements(), key=lambda e: e.doc_reading_index)


def _uses_explicit_parents(doc: Document) -> bool:
    return any(el.parent_id is not None for el in doc.elements())


def _numbering_depth(text: str) -> int:
    head = text.lstrip()
    digits = []
    i = 0
    depth = 0
    while i < len(head):
        ch = head[i]
        if ch.isdigit():
            digits.append(ch)
        elif ch == "." and digits:
            depth += 1
            digits = []
        elif ch.isspace() and (digits or depth):
            if digits:
                depth += 1
            return depth
        else:
            return 1
        i += 1
    return 1


def _owner_title(doc: Document, el: DocElement) -> DocElement | None:
    if _uses_explicit_parents(doc):
        by_id = {e.id: e for e in doc.elements()}
        seen = set()
        cursor = el.parent_id
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            node = by_id.get(cursor)
            if node is None:
                return None
            if node.category == ElementCategory.TITLE:
                return node
            cursor = node.parent_id
        return None
    ordered = _doc_order(doc)
    for prior in reversed(ordered[: ordered.index(el)]):
        if prior.category == ElementCategory.TITLE:
            return prior
    return None


def _child_titles(doc: Document, anchor: DocElement) -> list[DocElement]:
    if _uses_explicit_parents(doc):
        return [el for el in _doc_order(doc)
                if el.category == ElementCategory.TITLE and el.parent_id == anchor.id]
    titles = [el for el in _doc_order(doc) if el.category == ElementCategory.TITLE]
    anchor_depth = _numbering_depth(anchor.text)
    out = []
    shallowest = None
    for title in titles[titles.index(anchor) + 1:]:
        depth = _numbering_depth(title.text)
        if depth <= anchor_depth:
            break
        if shallowest is None or depth <= shallowest:
            out.append(title)
            shallowest = depth if shallowest is None else min(shallowest, depth)
    return out


def _caption_of(page: Page, anchor: DocElement) -> DocElement | None:
    """Re-derived caption pairing for one float."""
    wanted = ("table_caption" if anchor.category == ElementCategory.TABLE
              else "figure_caption")
    claims = []  # (caption_id, gap, anchor_reading_index, float_id) for all floats
    for box in page.elements:
        if not box.category.is_float:
            continue
        kind = ("table_caption" if box.category == ElementCategory.TABLE
                else "figure_caption")
        lower, upper = [], []
        for cap in page.elements:
            if cap.category.value != kind:
                continue
            g = _gap(box.bbox, cap.bbox)
            if g > 0.08:
                continue
            bucket = lower if _mid(cap.bbox)[1] >= _mid(box.bbox)[1] else upper
            bucket.append((g, cap.page_reading_index, cap))
        pool = lower if lower else upper
        if not pool:
            continue
        g, _, cap = min(pool, key=lambda t: (t[0], t[1]))
        claims.append((cap.id, g, box.page_reading_index, box.id))
    best: dict[str, tuple] = {}
    for cap_id, g, ri, float_id in claims:
        if cap_id not in best or (g, ri) < (best[cap_id][0], best[cap_id][1]):
            best[cap_id] = (g, ri, float_id)
    for cap_id, (_, _, float_id) in best.items():
        if float_id == anchor.id:
            cap = next(e for e in page.elements if e.id == cap_id)
            return cap if cap.category.value == wanted else None
    return None


def _whole_token_positions(text: str, needle: str, fold_case: bool) -> bool:
    hay = text.lower() if fold_case else text
    probe = needle.lower() if fold_case else needle
    start = 0
    while True:
        at = hay.find(probe, start)
        if at < 0:
            return False
        before = hay[at - 1] if at > 0 else ""
        after_idx = at + len(probe)
        after = hay[after_idx] if after_idx < len(hay) else ""
        if before not in _ALNUM and after not in _ALNUM:
            return True
        start = at + 1


def _mentions_float(text: str, label: str) -> bool:
    kind, number = label.split(" ")
    probes = [kind.lower()] + (["fig."] if kind == "Figure" else [])
    hay = text.lower()
    for probe in probes:
        start = 0
        while True:
            at = hay.find(probe, start)
            if at < 0:
                break
            start = at + 1
            if at > 0 and hay[at - 1] in _ALNUM:
                continue
            j = at + len(probe)
            k = j
            while k < len(hay) and hay[k].isspace():
                k += 1
            if k == j:
                continue
            m = k
            while m < len(hay) and hay[m].isdigit():
                m += 1
            if m == k:
                continue
            after = hay[m] if m < len(hay) else ""
            if after not in _ALNUM and int(hay[k:m]) == int(number):
                return True
    return False


def _mentioning_sections(doc: Document, match) -> list[int]:
    owners: dict[str, int] = {}
    for el in _doc_order(doc):
        if el.category not in (ElementCategory.TEXT, ElementCategory.LIST):
            continue
        if not match(el.text):
            continue
        owner = _owner_title(doc, el)
        if owner is not None:
            owners[owner.id] = owner.doc_reading_index
    return sorted(owners.values())


# --- family evaluators --------------------------------------------------------

def _anchor_title(elements, text: str) -> DocElement:
    hits = [el for el in elements if el.category == ElementCategory.TITLE and el.text == text]
    if len(hits) != 1:
        raise AnchorNotFound(f"anchor {text!r} matched {len(hits)} titles")
    return hits[0]


def _related_count(page: Page, binding: dict) -> int:
    anchor = _anchor_title(page.elements, binding["E2"])
    wanted = _admitted(binding["R"]) if binding["R"] in (
        "top", "bottom", "left", "right") else {binding["R"]}
    n = 0
    for el in page.elements:
        if el.id == anchor.id or not _cat(el, binding["E"] if "E" in binding else binding["E1"]):
            continue
        if _direction(anchor.bbox, el.bbox) in wanted:
            n += 1
    return n


def _count_token(n: int) -> AnswerValue:
    if n > 5:
        raise OverflowAnswer(f"count {n} exceeds the fixed answer space")
    return AnswerValue.token(str(n))


def _yes_no(flag: bool) -> AnswerValue:
    return AnswerValue.token("yes" if flag else "no")


def _describe(doc: Document, page: Page, el: DocElement) -> AnswerValue:
    if el.category == ElementCategory.TITLE or el.category.is_caption:
        return AnswerValue.index(el.page_reading_index)
    if el.category.is_float:
        cap = _caption_of(page, el)
        return AnswerValue.na() if cap is None else AnswerValue.index(cap.page_reading_index)
    owner = _owner_title(doc, el)
    if owner is None or owner.page_index != page.index:
        return AnswerValue.na()
    return AnswerValue.index(owner.page_reading_index)


def oracle_execute(tpl: QuestionTemplate, binding: dict, doc: Document,
                   page: Page | None = None) -> AnswerValue:
    """Naive exhaustive recomputation of the ground-truth answer."""
    family = _FAMILY_OF[tpl.template_id]

    if family == "exist_pos":
        n = sum(1 for el in page.elements
                if _cat(el, binding["E"]) and _in_area(el.bbox, binding["pos"]))
        return _yes_no(n > 0)
    if family == "exist_pos_neg":
        n = sum(1 for el in page.elements
                if _cat(el, binding["E"]) and _in_area(el.bbox, binding["pos"]))
        return _yes_no(n == 0)
    if family == "exist_rel":
        return _yes_no(_related_count(page, binding) > 0)
    if family == "exist_rel_neg":
        return _yes_no(_related_count(page, binding) == 0)
    if family == "exist_bare":
        return _yes_no(any(_cat(el, binding["E"]) for el in page.elements))
    if family == "exist_title":
        return _yes_no(any(
            el.category == ElementCategory.TITLE and el.text == binding["E"]
            for el in page.elements))
    if family == "count_rel":
        return _count_token(_related_count(page, binding))
    if family == "count_verify":
        n = sum(1 for el in page.elements if _cat(el, binding["E"]))
        return _yes_no(n == binding["num"])
    if family == "count_bare":
        return _count_token(sum(1 for el in page.elements if _cat(el, binding["E"])))

    if family == "b_turn":
        titles = [el for el in _page_order(page) if el.category == ElementCategory.TITLE]
        if not titles:
            return AnswerValue.na()
        el = titles[0] if binding["turn"] == "first" else titles[-1]
        return _describe(doc, page, el)
    if family == "b_pos":
        titles = [el for el in page.elements
                  if el.category == ElementCategory.TITLE and _in_area(el.bbox, binding["pos"])]
        if len(titles) != 1:
            return AnswerValue.na()
        return _describe(doc, page, titles[0])
    if family == "b_objrec":
        hits = [el for el in page.elements
                if _cat(el, binding["E"]) and _in_area(el.bbox, binding["pos"])]
        if len(hits) != 1:
            return AnswerValue.na()
        return _describe(doc, page, hits[0])

    if family == "c_child":
        anchor = _anchor_title(list(doc.elements()), binding["E"])
        kids = _child_titles(doc, anchor)
        if not kids:
            return AnswerValue.na()
        return AnswerValue.index_set(el.doc_reading_index for el in kids)
    if family == "c_parent_float":
        label = binding["E"]
        sections = _mentioning_sections(doc, lambda t: _mentions_float(t, label))
        return AnswerValue.index_set(sections) if sections else AnswerValue.na()
    if family == "c_parent_cite":
        key = binding["E"]
        sections = _mentioning_sections(
            doc, lambda t: _whole_token_positions(t, key, fold_case=False))
        return AnswerValue.index_set(sections) if sections else AnswerValue.na()
    raise AssertionError(f"no oracle family for {tpl.template_id}")
