"""Document data model: elements, pages, documents, task ids."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import CyclicParentInput, DanglingParent, DuplicateId, MalformedInput
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
    """Checked when built: its element ids are unique, its parent links resolve
    without a cycle and its mention index names only its elements."""

    doc_id: str
    pages: tuple[Page, ...] = ()
    references: tuple[str, ...] = ()
    # Reference label ("Table 2", citation key) -> ids of mentioning elements.
    mention_index: dict[str, tuple[str, ...]] = field(default_factory=dict)
    by_id: dict[str, DocElement] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: dict[str, DocElement] = {}
        for el in self.elements():
            if el.id in by_id:
                raise DuplicateId(f"element id {el.id!r} appears more than once")
            by_id[el.id] = el
        _check_parents(self.doc_id, by_id)
        for label, el_ids in self.mention_index.items():
            for el_id in el_ids:
                if not isinstance(el_id, str) or el_id not in by_id:
                    raise MalformedInput(f"document {self.doc_id!r}: mention_index entry "
                                         f"{label!r} names unknown element {el_id!r}")
        object.__setattr__(self, "by_id", by_id)

    def elements(self):
        """Page by page, each page in reading order once preprocessed or loaded."""
        for page in self.pages:
            yield from page.elements

    @property
    def element_count(self) -> int:
        return len(self.by_id)


def _check_parents(doc_id: str, by_id: dict[str, DocElement]) -> None:
    """Raise DanglingParent or CyclicParentInput, naming the document, unless
    every parent_id names an element of it and no parent chain loops."""
    links = {el_id: el.parent_id for el_id, el in by_id.items() if el.parent_id is not None}
    for el_id, parent in links.items():
        if parent not in by_id:
            raise DanglingParent(f"document {doc_id!r}: {el_id!r} references "
                                 f"unknown parent {parent!r}")
    cleared: set[str] = set()
    for start in links:  # only linked elements can lie on a cycle
        seen: set[str] = set()
        cursor: str | None = start
        while cursor is not None and cursor not in cleared:
            if cursor in seen:
                raise CyclicParentInput(f"document {doc_id!r}: parent chain through "
                                        f"{cursor!r} forms a cycle")
            seen.add(cursor)
            cursor = links.get(cursor)
        cleared |= seen
