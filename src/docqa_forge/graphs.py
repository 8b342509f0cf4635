"""Spatial (per page) and logical (per document) relational graphs."""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from .errors import UnknownElement
from .geometry import COARSE_ADMITS, SpatialRelation, spatial_relation
from .ingest import pair_captions
from .model import Document, ElementCategory, Page

ROOT = None  # parent value for elements attached directly to the document root


# ---------------------------------------------------------------------------
# Spatial graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpatialGraph:
    """Typed directional edges between every related pair on one page.

    An edge (src, dst, rel) reads "dst is <rel> of src"; the inverse edge is
    always present too.
    """

    page_index: int
    element_ids: frozenset[str]
    edges: dict[str, tuple[tuple[str, SpatialRelation], ...]] = field(default_factory=dict)

    def edge_set(self) -> set[tuple[str, str, SpatialRelation]]:
        return {(src, dst, rel) for src, outs in self.edges.items() for dst, rel in outs}

    def related(self, anchor_id: str, rel: SpatialRelation, coarse: bool = False) -> set[str]:
        if anchor_id not in self.element_ids:
            raise UnknownElement(f"{anchor_id!r} is not on page {self.page_index}")
        admitted = COARSE_ADMITS[rel] if coarse else {rel}
        return {dst for dst, r in self.edges.get(anchor_id, ()) if r in admitted}

    def dump(self) -> dict:
        rows = sorted([src, dst, rel.value] for src, dst, rel in self.edge_set())
        return {"page_index": self.page_index, "spatial_edges": rows}


def build_spatial_graph(page: Page) -> SpatialGraph:
    """Edge for every ordered pair with a defined relation; nothing else."""
    edges: dict[str, list[tuple[str, SpatialRelation]]] = {}
    for a in page.elements:
        for b in page.elements:
            if a.id == b.id:
                continue
            rel = spatial_relation(a.bbox, b.bbox)
            if rel is not None:
                edges.setdefault(a.id, []).append((b.id, rel))
    return SpatialGraph(
        page_index=page.index,
        element_ids=frozenset(el.id for el in page.elements),
        edges={src: tuple(sorted(outs)) for src, outs in edges.items()},
    )


# ---------------------------------------------------------------------------
# Logical graph
# ---------------------------------------------------------------------------

_NUMBER_PREFIX = re.compile(r"^\s*(\d+(?:\.\d+)*)\.?\s+")


def title_level(text: str) -> int:
    """Depth implied by a numbering prefix ("2.3 Foo" -> 2); flat titles are 1."""
    m = _NUMBER_PREFIX.match(text)
    if not m:
        return 1
    return m.group(1).count(".") + 1


@dataclass(frozen=True)
class LogicalGraph:
    """Parent-child forest over a document (virtual root = None), keyed in reading order."""

    doc_id: str
    parent_of: dict[str, str | None]

    def _check(self, element_id: str) -> None:
        if element_id not in self.parent_of:
            raise UnknownElement(f"{element_id!r} is not in document {self.doc_id}")

    def parent(self, element_id: str) -> str | None:
        self._check(element_id)
        return self.parent_of[element_id]

    @cached_property
    def _children_of(self) -> dict[str | None, tuple[str, ...]]:
        kids: dict[str | None, list[str]] = {}
        for child, parent in self.parent_of.items():
            kids.setdefault(parent, []).append(child)
        return {parent: tuple(ids) for parent, ids in kids.items()}

    def children(self, element_id: str) -> tuple[str, ...]:
        """Direct children in document reading order."""
        self._check(element_id)
        return self._children_of.get(element_id, ())

    def ancestors(self, element_id: str) -> tuple[str, ...]:
        self._check(element_id)
        chain = []
        cursor = self.parent_of[element_id]
        while cursor is not None:
            chain.append(cursor)
            cursor = self.parent_of[cursor]
        return tuple(chain)

    def dump(self) -> dict:
        present = {c: p for c, p in sorted(self.parent_of.items()) if p is not None}
        return {"doc_id": self.doc_id, "parent_of": present}


def _pair_captions(doc: Document) -> dict[str, str]:
    """Float id -> caption id, from the caption-labelled elements of each page.

    Running over caption labels also covers captions given in the input.
    Tables and figures never compete for a caption, so each kind is paired
    on its own.
    """
    caption_of: dict[str, str] = {}
    for page in doc.pages:
        for kind in (ElementCategory.TABLE, ElementCategory.FIGURE):
            anchors = [el for el in page.elements if el.category == kind]
            captions = [el for el in page.elements if el.category == kind.caption_kind]
            for cap_id, anchor in pair_captions(anchors, captions).items():
                caption_of[anchor.id] = cap_id
    return caption_of


def build_logical_graph(doc: Document) -> LogicalGraph:
    """Build the parent-child forest.

    Explicit parent_id fields, when any element carries one, are authoritative
    and used as given, as the loaders checked them. Otherwise section structure
    is inferred: titles nest by numbering level, body elements attach to the
    most recent title, captions parent their floats.
    """
    elements = tuple(doc.elements())
    if any(el.parent_id is not None for el in elements):
        return LogicalGraph(doc.doc_id, {el.id: el.parent_id for el in elements})

    caption_of = _pair_captions(doc)
    parent_of = {}
    title_stack: list[tuple[int, str]] = []  # (level, title id), innermost last
    last_title: str | None = None
    for el in elements:
        if el.category == ElementCategory.TITLE:
            level = title_level(el.text)
            while title_stack and title_stack[-1][0] >= level:
                title_stack.pop()
            parent_of[el.id] = title_stack[-1][1] if title_stack else ROOT
            title_stack.append((level, el.id))
            last_title = el.id
        elif el.id in caption_of:
            parent_of[el.id] = caption_of[el.id]
        else:
            # body, captions, and caption-less floats live inside the section
            parent_of[el.id] = last_title
    return LogicalGraph(doc.doc_id, parent_of)


# ---------------------------------------------------------------------------
# Graph bundle used by program execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphBundle:
    spatial: dict[int, SpatialGraph]
    logical: LogicalGraph


def build_graphs(doc: Document, pages: Iterable[int] | None = None) -> GraphBundle:
    """The logical graph, and spatial graphs for the given page indices (all by default).

    Spatial graphs cost O(n^2) per page and only Tasks A/B read them, so the
    generator asks for the pages it will generate on.
    """
    chosen = doc.pages if pages is None else [doc.pages[i] for i in pages]
    return GraphBundle(
        spatial={page.index: build_spatial_graph(page) for page in chosen},
        logical=build_logical_graph(doc),
    )
