"""Seeded synthetic annotation corpora for the pipeline benchmark.

This is the benchmark's own copy of the test suite's corpus generator, so
that edits to the tests cannot change the benchmark's inputs. It emits only
annotation JSON (the pipeline's raw input) and imports nothing from
docqa_forge. The same seed always gives the same bytes.

Structured pages imitate article layouts (columns, stacked blocks, captions
under floats, mention sentences); chaotic pages throw boxes anywhere.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

TITLE_WORDS = (
    "Introduction", "Background", "Methods", "Results", "Discussion",
    "Analysis", "Evaluation", "Conclusion", "Related Work", "Cohort",
    "Limitations", "Future Work", "Data Collection", "Experiments",
)

CITATION_KEYS = (
    "Wang C et al,2017", "Smith J et al,2019", "Guan KL et al,1991",
    "Horner KC et al,2005", "Zhang Z et al,2013", "Corwin HL et al,2009",
)

BODY_SNIPPETS = (
    "The measurements were repeated three times.",
    "Agreement between raters stayed high.",
    "Every run used the same configuration.",
    "Results were averaged over all trials.",
    "The protocol followed standard practice.",
)

# The pipeline's Task C ceiling; long documents are kept strictly below it.
DOC_ELEMENT_LIMIT = 400
LONG_DOC_PAGES = 36

# Every page is at least one page unit, so a 3-page document is at least
# three: a page corpus left 1 or 2 units short of its target could not reach it.
MIN_DOC_UNITS = 3


def _grid(rng: random.Random, lo: float, hi: float) -> float:
    """Value on a 1/128 grid inside [lo, hi]; exact in binary floats."""
    lo_t, hi_t = int(lo * 128) + 1, int(hi * 128) - 1
    return rng.randint(min(lo_t, hi_t), max(lo_t, hi_t)) / 128.0


def random_box(rng: random.Random, max_w: float = 0.5, max_h: float = 0.3):
    x0 = _grid(rng, 0.0, 0.9)
    y0 = _grid(rng, 0.0, 0.9)
    x1 = min(1.0 - 1 / 128, x0 + max(_grid(rng, 0.0, max_w), 1 / 64))
    y1 = min(1.0 - 1 / 128, y0 + max(_grid(rng, 0.0, max_h), 1 / 64))
    if x1 <= x0:
        x1 = x0 + 1 / 128
    if y1 <= y0:
        y1 = y0 + 1 / 128
    return [x0, y0, x1, y1]


def _title_text(rng: random.Random, numbered: bool, section: list[int]) -> str:
    word = rng.choice(TITLE_WORDS)
    if not numbered:
        return word
    return ".".join(str(n) for n in section) + (". " if len(section) == 1 else " ") + word


def _body_text(rng: random.Random, n_tables: int, n_figures: int, refs) -> str:
    parts = [rng.choice(BODY_SNIPPETS)]
    if n_tables and rng.random() < 0.35:
        parts.append(f"See Table {rng.randint(1, n_tables)} for details.")
    if n_figures and rng.random() < 0.3:
        spelled = "Figure" if rng.random() < 0.7 else "Fig."
        parts.append(f"{spelled} {rng.randint(1, n_figures)} illustrates this.")
    if refs and rng.random() < 0.3:
        parts.append(f"This extends {rng.choice(refs)} considerably.")
    return " ".join(parts)


def _el(counter: int, page: int, category: str, bbox, text: str) -> dict:
    return {"id": f"s{page}x{counter}", "category": category,
            "bbox": list(bbox), "text": text, "parent_id": None}


def structured_page(rng: random.Random, start_id: int, index: int,
                    state: dict) -> tuple[dict, int]:
    """One article-like page; the doc-level state tracks float numbering."""
    columns = rng.choice((1, 1, 2))
    elements = []
    counter = start_id
    for col in range(columns):
        x0 = 0.06 if columns == 1 or col == 0 else 0.56
        x1 = 0.94 if columns == 1 else (0.44 if col == 0 else 0.94)
        y = _grid(rng, 0.02, 0.08)
        while y < 0.82 and len(elements) < 22:
            kind = rng.choices(
                ("text", "title", "table", "figure", "list"),
                weights=(46, 22, 12, 12, 8))[0]
            height = _grid(rng, 0.05, 0.16)
            bbox = [x0, y, x1, min(y + height, 0.98)]
            if kind == "title":
                numbered = state["numbered"]
                if numbered:
                    state["section"][-1] += 1
                    if rng.random() < 0.35 and state["section"][-1] > 1:
                        state["section"].append(1)
                    elif len(state["section"]) > 1 and rng.random() < 0.4:
                        state["section"].pop()
                        state["section"][-1] += 1
                text = _title_text(rng, numbered, state["section"])
                elements.append(_el(counter, index, "title", bbox, text))
                counter += 1
            elif kind in ("table", "figure"):
                state["tables" if kind == "table" else "figures"] += 1
                n = state["tables"] if kind == "table" else state["figures"]
                elements.append(_el(counter, index, kind, bbox, ""))
                counter += 1
                if rng.random() < 0.75 and bbox[3] < 0.9:
                    cap_y0 = bbox[3] + _grid(rng, 0.005, 0.04)
                    cap = [x0, cap_y0, x1, min(cap_y0 + 0.04, 0.99)]
                    word = "Table" if kind == "table" else "Figure"
                    elements.append(_el(counter, index, "text", cap,
                                        f"{word} {n} shows one synthetic result."))
                    counter += 1
                    bbox = cap
            else:
                text = _body_text(rng, state["tables"], state["figures"], state["refs"])
                elements.append(_el(counter, index, kind, bbox, text))
                counter += 1
            y = bbox[3] + _grid(rng, 0.01, 0.06)
    return {"index": index, "width": 1.0, "height": 1.0, "elements": elements}, counter


def chaotic_page(rng: random.Random, start_id: int, index: int,
                 n_elements: int) -> tuple[dict, int]:
    """Boxes anywhere (overlaps allowed) with assorted categories and texts."""
    elements = []
    counter = start_id
    titles_used = set()
    for _ in range(n_elements):
        kind = rng.choices(("text", "title", "table", "figure", "list"),
                           weights=(40, 20, 15, 15, 10))[0]
        text = ""
        if kind == "title":
            text = rng.choice(TITLE_WORDS)
            if text in titles_used and rng.random() < 0.5:
                text += f" {rng.randint(2, 9)}"
            titles_used.add(text)
        elif kind in ("text", "list"):
            text = rng.choice(BODY_SNIPPETS)
        elements.append(_el(counter, index, kind, random_box(rng), text))
        counter += 1
    return {"index": index, "width": 1.0, "height": 1.0, "elements": elements}, counter


def random_annotation(seed: int, doc_id: str, n_pages: int, numbered: bool,
                      chaotic_pages=frozenset()) -> dict:
    """One annotation document. Whether section titles are numbered and
    which pages are chaotic are given, not drawn: they set most of a
    document's generation work, so fixing their shares keeps corpora of
    different seeds equally heavy."""
    rng = random.Random(seed)
    refs = rng.sample(CITATION_KEYS, rng.randint(0, 3))
    state = {
        "tables": 0, "figures": 0, "refs": refs,
        "numbered": numbered,
        "section": [0],
    }
    pages = []
    counter = 0
    for index in range(n_pages):
        if index in chaotic_pages:
            page, counter = chaotic_page(rng, counter, index, rng.randint(3, 25))
        else:
            page, counter = structured_page(rng, counter, index, state)
            if not page["elements"]:  # never emit an empty structured page
                page, counter = chaotic_page(rng, counter, index, rng.randint(3, 8))
        pages.append(page)
    return {"doc_id": doc_id, "references": refs, "pages": pages}


def doc_seed(corpus_seed: int, position: int) -> int:
    """Per-document seed; independent of how many documents are built."""
    digest = hashlib.sha256(f"perfbench|{corpus_seed}|{position}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _numbered(position: int) -> bool:
    """Exactly three documents in five number their section titles."""
    return position % 5 < 3


def page_units(doc: dict) -> int:
    """Page-level work units: one per page of at most 25 elements (the A/B
    limit) plus one per distinct title text on it. Binding enumeration
    grows with the title anchors on a page, and a least-squares fit gives
    each page and each title about the same number of records."""
    return sum(
        1 + len({el["text"] for el in page["elements"] if el["category"] == "title"})
        for page in doc["pages"] if len(page["elements"]) <= 25
    )


def pages_corpus(corpus_seed: int, unit_target: int) -> list[dict]:
    """3-page article-like documents, 30% chaotic pages, taken in seed order
    until the corpus holds exactly `unit_target` page units (see page_units).
    A document that would overshoot the target, or leave it fewer than
    MIN_DOC_UNITS short, is skipped, so corpora of every seed carry the
    same work."""
    docs, units = [], 0
    for i in range(100_000):
        if units == unit_target:
            return docs
        chaotic = frozenset(j for j in range(3) if (3 * i + j) % 10 < 3)
        doc = random_annotation(doc_seed(corpus_seed, i), f"pg{i:04d}", 3,
                                _numbered(i), chaotic)
        left = unit_target - units - page_units(doc)
        if left == 0 or left >= MIN_DOC_UNITS:
            docs.append(doc)
            units = unit_target - left
    raise ValueError(f"no corpus of {unit_target} page units for seed {corpus_seed}")


def longdocs_corpus(corpus_seed: int, n_docs: int) -> list[dict]:
    """Structured documents of up to 36 pages, stopping before a
    document reaches the Task C element limit, so every one stays eligible."""
    docs = []
    for i in range(n_docs):
        doc = random_annotation(doc_seed(corpus_seed, i), f"ld{i:04d}", LONG_DOC_PAGES,
                                _numbered(i))
        kept, total = [], 0
        for page in doc["pages"]:
            if total + len(page["elements"]) >= DOC_ELEMENT_LIMIT:
                break
            kept.append(page)
            total += len(page["elements"])
        doc["pages"] = kept
        docs.append(doc)
    return docs


def encode(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_corpus(docs: list[dict], out_dir) -> str:
    """Write one `<doc_id>.json` per document; return the corpus sha256."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for doc in sorted(docs, key=lambda d: d["doc_id"]):
        name = f"{doc['doc_id']}.json"
        payload = encode(doc)
        (out_dir / name).write_bytes(payload)
        digest.update(name.encode("utf-8") + b"\0" + payload + b"\0")
    return digest.hexdigest()
