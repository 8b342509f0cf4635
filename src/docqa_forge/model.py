"""Document data model: elements, pages, documents, task ids."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .geometry import BoundingBox

# Sentinel for reading indices that preprocessing has not assigned yet.
UNASSIGNED = -1


class TaskId(str, Enum):
    A = "A"
    B = "B"
    C = "C"


class ElementCategory(str, Enum):
    TITLE = "title"
    TEXT = "text"
    LIST = "list"
    TABLE = "table"
    FIGURE = "figure"
    TABLE_CAPTION = "table_caption"
    FIGURE_CAPTION = "figure_caption"

    @property
    def is_float(self) -> bool:
        return self in (ElementCategory.TABLE, ElementCategory.FIGURE)

    @property
    def is_caption(self) -> bool:
        return self in (ElementCategory.TABLE_CAPTION, ElementCategory.FIGURE_CAPTION)

    @property
    def caption_kind(self) -> "ElementCategory":
        """The caption category that pairs with this float category."""
        if self == ElementCategory.TABLE:
            return ElementCategory.TABLE_CAPTION
        return ElementCategory.FIGURE_CAPTION


# Labels a question may name; asking about plain text blocks is not useful.
QUESTION_LABELS = ("figure", "list", "table", "title")


@dataclass(frozen=True)
class DocElement:
    """One detected layout region with its normalized geometry and text."""

    id: str
    page_index: int
    bbox: BoundingBox
    category: ElementCategory
    text: str = ""
    parent_id: str | None = None
    page_reading_index: int = UNASSIGNED
    doc_reading_index: int = UNASSIGNED


@dataclass(frozen=True)
class Page:
    index: int
    width: float
    height: float
    elements: tuple[DocElement, ...] = ()


@dataclass(frozen=True)
class Document:
    doc_id: str
    pages: tuple[Page, ...] = ()
    references: tuple[str, ...] = ()
    # Reference label ("Table 2", citation key) -> ids of mentioning elements.
    mention_index: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def elements(self):
        """Page by page, each page in reading order once preprocessed or loaded."""
        for page in self.pages:
            yield from page.elements

    @property
    def element_count(self) -> int:
        return sum(len(p.elements) for p in self.pages)

    # Built on first use and kept on the instance; documents are immutable.
    @cached_property
    def by_id(self) -> dict[str, DocElement]:
        return {el.id: el for el in self.elements()}
