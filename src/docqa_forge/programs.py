"""Compile (template, binding) pairs into typed function chains and run them.

A program is a straight-line chain; every step has exactly one input and one
output kind, so a chain type-checks by adjacency. Execution threads a value
through the steps against a scope's lookup tables: element sets are int
bitmasks, so filters are `&` and counts are popcounts. An unresolvable
referent collapses the value to NA, which propagates to the final answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import AnchorNotFound, OverflowAnswer, TypeMismatch
from .geometry import SpatialRelation, in_region
from .graphs import GraphBundle, SpatialGraph
from .ingest import DOC_ELEMENT_LIMIT, PAGE_ELEMENT_LIMIT
from .model import Document, DocElement, ElementCategory, Page, TaskId
from .templates import QuestionTemplate, validate_binding

# Value kinds flowing through a chain.
SCOPE, ELEMS, ELEM, INT, BOOL = "scope", "elem_set", "elem", "int", "bool"

# op -> (input kind, output kind)
SIGNATURES = {
    "filter_category": (ELEMS, ELEMS),
    "filter_region": (ELEMS, ELEMS),
    "locate_text": (SCOPE, ELEM),
    "related": (ELEM, ELEMS),
    "count": (ELEMS, INT),
    "exists": (ELEMS, BOOL),
    "compare_count": (INT, BOOL),
    "nth_reading": (ELEMS, ELEM),
    "described_by": (ELEM, ELEM),
    "child_sections": (ELEM, ELEMS),
    "parent_sections": (SCOPE, ELEMS),
    "text_anchor_exists": (SCOPE, BOOL),
}

_FINAL_KINDS = {TaskId.A: (BOOL, INT), TaskId.B: (ELEM,), TaskId.C: (ELEMS,)}

# Cardinal relations name one side; only they widen to a coarse query.
_CARDINALS = {r.value for r in SpatialRelation if len(r.sides) == 1}

TOKEN_ANSWERS = ("yes", "no", "0", "1", "2", "3", "4", "5")

# Each task's answer space: answer kind -> the values it may hold (None: no
# value). Task B/C answers may legitimately be N/A; Task A never is.
ANSWER_SPACE = {
    TaskId.A: {"token": frozenset(TOKEN_ANSWERS)},
    TaskId.B: {"index": range(PAGE_ELEMENT_LIMIT), "na": None},
    TaskId.C: {"index_set": range(DOC_ELEMENT_LIMIT), "na": None},
}


@dataclass(frozen=True)
class Step:
    op: str
    arg: str | int | None = None
    coarse: bool = False


@dataclass(frozen=True)
class FunctionalProgram:
    steps: tuple[Step, ...]
    task: TaskId


@dataclass(frozen=True)
class AnswerValue:
    """Final answer: fixed token, page index, document index set, or NA."""

    kind: str  # "token" | "index" | "index_set" | "na"
    value: str | int | tuple[int, ...] | None = None

    @staticmethod
    def token(value: str) -> "AnswerValue":
        return AnswerValue("token", value)

    @staticmethod
    def index(value: int) -> "AnswerValue":
        return AnswerValue("index", value)

    @staticmethod
    def index_set(values) -> "AnswerValue":
        return AnswerValue("index_set", tuple(sorted(set(values))))

    @staticmethod
    def na() -> "AnswerValue":
        return AnswerValue("na", None)

    def in_space_of(self, task: TaskId) -> bool:
        """Whether the answer lies in the task's fixed answer space."""
        space = ANSWER_SPACE[task]
        if self.kind not in space:
            return False
        legal = space[self.kind]
        if self.kind == "index_set":  # sorted and nonempty
            return self.value[0] in legal and self.value[-1] in legal
        return legal is None or self.value in legal

    def canonical(self) -> str:
        if self.kind == "token":
            return f"token:{self.value}"
        if self.kind == "index":
            return f"index:{self.value}"
        if self.kind == "index_set":
            return "set:" + ",".join(str(v) for v in self.value)
        return "na"


# Program schemas per template group; each entry is (op, source) where source
# is ("slot", name), ("const", value), or None for argument-free steps.
GROUP_PROGRAMS: dict[str, tuple[tuple[str, tuple | None], ...]] = {
    "exist_pos": (("filter_category", ("slot", "E")), ("filter_region", ("slot", "pos")),
                  ("exists", None)),
    "exist_pos_neg": (("filter_category", ("slot", "E")), ("filter_region", ("slot", "pos")),
                      ("count", None), ("compare_count", ("const", 0))),
    "exist_rel": (("locate_text", ("slot", "E2")), ("related", ("slot", "R")),
                  ("filter_category", ("slot", "E1")), ("exists", None)),
    "exist_rel_neg": (("locate_text", ("slot", "E2")), ("related", ("slot", "R")),
                      ("filter_category", ("slot", "E1")), ("count", None),
                      ("compare_count", ("const", 0))),
    "exist_bare": (("filter_category", ("slot", "E")), ("exists", None)),
    "exist_title": (("text_anchor_exists", ("slot", "E")),),
    "count_rel": (("locate_text", ("slot", "E2")), ("related", ("slot", "R")),
                  ("filter_category", ("slot", "E1")), ("count", None)),
    "count_verify": (("filter_category", ("slot", "E")), ("count", None),
                     ("compare_count", ("slot", "num"))),
    "count_bare": (("filter_category", ("slot", "E")), ("count", None)),
    "b_turn": (("filter_category", ("const", "title")), ("nth_reading", ("slot", "turn")),
               ("described_by", None)),
    "b_pos": (("filter_category", ("const", "title")), ("filter_region", ("slot", "pos")),
              ("nth_reading", ("const", "unique")), ("described_by", None)),
    "b_objrec": (("filter_category", ("slot", "E")), ("filter_region", ("slot", "pos")),
                 ("nth_reading", ("const", "unique")), ("described_by", None)),
    "c_child": (("locate_text", ("slot", "E")), ("child_sections", None)),
    "c_parent_float": (("parent_sections", ("slot", "E")),),
    "c_parent_cite": (("parent_sections", ("slot", "E")),),
}


@lru_cache(maxsize=None)
def check_chain(ops: tuple[str, ...], task: TaskId) -> None:
    """Raise TypeMismatch unless adjacent signatures compose into a legal answer.

    Legality depends only on the op sequence, so each template group's chain
    is checked once; a failure raises and is never cached.
    """
    if not ops:
        raise TypeMismatch("empty program")
    for op in ops:
        if op not in SIGNATURES:
            raise TypeMismatch(f"unknown operation {op!r}")
    cursor = SCOPE if SIGNATURES[ops[0]][0] == SCOPE else ELEMS
    for i, op in enumerate(ops):
        want, out = SIGNATURES[op]
        if want == SCOPE and i > 0:
            raise TypeMismatch(f"{op} must open the chain")
        if want != cursor and not (i == 0 and want == ELEMS):
            raise TypeMismatch(f"step {op} wants {want}, chain carries {cursor}")
        cursor = out
    if cursor not in _FINAL_KINDS[task]:
        raise TypeMismatch(f"chain ends in {cursor}, illegal for Task {task.value}")


def compile_program(tpl: QuestionTemplate, binding: dict) -> FunctionalProgram:
    """Validate the binding and substitute its constants into the template's
    chain; execute type-checks the chain."""
    validate_binding(tpl, binding)
    schema = GROUP_PROGRAMS[tpl.group]
    steps = []
    for op, source in schema:
        arg = None
        if source is not None:
            mode, key = source
            arg = binding[key] if mode == "slot" else key
        coarse = op == "related" and arg in _CARDINALS
        steps.append(Step(op=op, arg=arg, coarse=coarse))
    return FunctionalProgram(steps=tuple(steps), task=tpl.task)


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------

class Scope:
    """What a program runs over: one page of doc, or all of doc when page is None.

    Its elements are stored in reading order, as the loaders check, and its
    lookup tables are built once. An element set is an int bitmask: bit i
    stands for elements[i], so set order is reading order and set operations
    are integer operations.
    """

    def __init__(self, doc: Document, page: Page | None = None):
        self.doc, self.page = doc, page
        self.elements = tuple(doc.elements()) if page is None else page.elements
        self.position = {el.id: i for i, el in enumerate(self.elements)}
        self.everything = (1 << len(self.elements)) - 1
        self.category: dict[ElementCategory, int] = {}
        self.titles: dict[str, list[DocElement]] = {}
        for i, el in enumerate(self.elements):
            self.category[el.category] = self.category.get(el.category, 0) | 1 << i
            if el.category == ElementCategory.TITLE:
                self.titles.setdefault(el.text, []).append(el)
        self._regions: dict[str, int] = {}
        self._graph: SpatialGraph | None = None
        self._related: dict[tuple[str, str, bool], int] = {}

    def mask(self, element_ids) -> int:
        mask = 0
        for element_id in element_ids:
            mask |= 1 << self.position[element_id]
        return mask

    def members(self, mask: int):
        """Elements of a mask, in reading order."""
        while mask:
            low = mask & -mask
            yield self.elements[low.bit_length() - 1]
            mask ^= low

    def region(self, name: str) -> int:
        mask = self._regions.get(name)
        if mask is None:
            mask = self.mask(el.id for el in self.elements if in_region(el.bbox, name))
            self._regions[name] = mask
        return mask

    def related(self, graph: SpatialGraph, anchor_id: str, relation: str,
                coarse: bool) -> int:
        """Mask of graph.related(...), shared by every binding with this anchor and relation."""
        if graph is not self._graph:
            self._graph, self._related = graph, {}
        key = (anchor_id, relation, coarse)
        mask = self._related.get(key)
        if mask is None:
            ids = graph.related(anchor_id, SpatialRelation(relation), coarse=coarse)
            mask = self._related[key] = self.mask(ids)
        return mask


def scope_for(task: TaskId, doc: Document, page: Page | None = None) -> Scope:
    """The scope a task's programs run in; build it once and reuse it."""
    if task == TaskId.C:
        return Scope(doc)
    if page is None:
        raise TypeMismatch("page scope required for Tasks A/B")
    return Scope(doc, page)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

_NA = object()


def _owning_title(el: DocElement, graphs: GraphBundle,
                  by_id: dict[str, DocElement]) -> DocElement | None:
    ancestors = (by_id[ancestor_id] for ancestor_id in graphs.logical.ancestors(el.id))
    return next((a for a in ancestors if a.category == ElementCategory.TITLE), None)


def _described_by(el: DocElement, graphs: GraphBundle,
                  by_id: dict[str, DocElement]) -> DocElement | None:
    if el.category == ElementCategory.TITLE or el.category.is_caption:
        return el
    if el.category.is_float:
        parent = by_id.get(graphs.logical.parent(el.id))  # None at the root
        wanted = el.category.caption_kind
        return parent if parent is not None and parent.category == wanted else None
    return _owning_title(el, graphs, by_id)


def execute(prog: FunctionalProgram, scope: Scope, graphs: GraphBundle,
            trace: list | None = None) -> AnswerValue:
    """Evaluate the chain left to right and render the task's answer kind.

    A trace list receives each executed step's output size: the element
    count of a set, 1 for any other value, None where the value became NA,
    which ends the chain (see trace_steps).
    """
    check_chain(tuple(step.op for step in prog.steps), prog.task)
    value = scope if SIGNATURES[prog.steps[0].op][0] == SCOPE else scope.everything

    for step in prog.steps:
        if value is _NA:
            break
        value = _apply(step, value, scope, graphs)
        if trace is not None:
            trace.append(None if value is _NA
                         else value.bit_count() if SIGNATURES[step.op][1] == ELEMS else 1)
    return _render(prog, value, scope)


def trace_steps(ops, sizes) -> list[dict]:
    """The steps of one execution, from its ops and the sizes execute traced."""
    return [{"step": i, "function": op,
             "output_kind": "na" if size is None else SIGNATURES[op][1],
             "output_size": size or 0}
            for i, (op, size) in enumerate(zip(ops, sizes))]


def _apply(step: Step, value, scope: Scope, graphs: GraphBundle):
    """One step of a chain check_chain accepted, so op is one of SIGNATURES;
    element sets are masks over the scope's elements (see Scope)."""
    op = step.op
    if op == "filter_category":
        return value & scope.category.get(ElementCategory(step.arg), 0)
    if op == "filter_region":
        return value & scope.region(step.arg)
    if op == "locate_text":
        matches = scope.titles.get(step.arg, ())
        if len(matches) != 1:
            raise AnchorNotFound(
                f"text anchor {step.arg!r} matched {len(matches)} title elements")
        return matches[0]
    if op == "related":
        if scope.page is None:
            raise TypeMismatch("spatial queries need a page scope")
        graph = graphs.spatial[scope.page.index]
        return scope.related(graph, value.id, step.arg, step.coarse)
    if op == "count":
        return value.bit_count()
    if op == "exists":
        return value != 0
    if op == "compare_count":
        return value == step.arg
    if op == "nth_reading":
        if not value:
            return _NA
        if step.arg == "first":
            return scope.elements[(value & -value).bit_length() - 1]
        if step.arg == "last":
            return scope.elements[value.bit_length() - 1]
        # "unique": the referent must be unambiguous
        return scope.elements[value.bit_length() - 1] if value.bit_count() == 1 else _NA
    if op == "described_by":
        described = _described_by(value, graphs, scope.doc.by_id)
        return _NA if described is None else described
    if op in ("child_sections", "parent_sections") and scope.page is not None:
        raise TypeMismatch("section queries need a document scope")
    if op == "child_sections":
        by_id = scope.doc.by_id
        kids = graphs.logical.children(value.id)
        return scope.mask(k for k in kids if by_id[k].category == ElementCategory.TITLE)
    if op == "parent_sections":
        by_id = scope.doc.by_id
        owners = (_owning_title(by_id[el_id], graphs, by_id)
                  for el_id in scope.doc.mention_index.get(step.arg, ()))
        return scope.mask(owner.id for owner in owners if owner is not None)
    if op == "text_anchor_exists":
        return step.arg in scope.titles


def _render(prog: FunctionalProgram, value, scope: Scope) -> AnswerValue:
    """The answer for the chain's final value, whose kind check_chain has fixed."""
    if value is _NA:
        return AnswerValue.na()
    task = prog.task
    if task == TaskId.A:
        token = ("yes" if value else "no") if isinstance(value, bool) else str(value)
        if token not in ANSWER_SPACE[TaskId.A]["token"]:
            raise OverflowAnswer(f"count {value} exceeds the fixed answer space")
        return AnswerValue.token(token)
    if task == TaskId.B:
        # answers are page-local reading indices; off-page referents are N/A
        if value.page_index != scope.page.index:
            return AnswerValue.na()
        return AnswerValue.index(value.page_reading_index)
    if not value:
        return AnswerValue.na()
    return AnswerValue.index_set(el.doc_reading_index for el in scope.members(value))
