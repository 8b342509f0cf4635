"""Compile (template, binding) pairs into typed function chains and run them.

A program is a straight-line chain; every step has exactly one input and one
output kind, so a chain type-checks by adjacency. Execution threads a tagged
value through the steps; an unresolvable referent collapses the value to NA,
which propagates to the final answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AnchorNotFound, OverflowAnswer, TypeMismatch
from .geometry import SpatialRelation, in_region
from .graphs import GraphBundle
from .model import Document, DocElement, ElementCategory, Page, TaskId, category_for_label
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

_CARDINALS = {"top", "bottom", "left", "right"}

TOKEN_ANSWERS = ("yes", "no", "0", "1", "2", "3", "4", "5")


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


def check_chain(steps: tuple[Step, ...], task: TaskId) -> None:
    """Raise TypeMismatch unless adjacent signatures compose into a legal answer."""
    if not steps:
        raise TypeMismatch("empty program")
    cursor = SCOPE if SIGNATURES[steps[0].op][0] == SCOPE else ELEMS
    for i, step in enumerate(steps):
        if step.op not in SIGNATURES:
            raise TypeMismatch(f"unknown operation {step.op!r}")
        want, out = SIGNATURES[step.op]
        if want == SCOPE and i > 0:
            raise TypeMismatch(f"{step.op} must open the chain")
        if want != cursor and not (i == 0 and want == ELEMS):
            raise TypeMismatch(f"step {step.op} wants {want}, chain carries {cursor}")
        cursor = out
    if cursor not in _FINAL_KINDS[task]:
        raise TypeMismatch(f"chain ends in {cursor}, illegal for Task {task.value}")


def compile_program(tpl: QuestionTemplate, binding: dict) -> FunctionalProgram:
    """Substitute binding constants into the template's chain and type-check it."""
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
    check_chain(tuple(steps), tpl.task)
    return FunctionalProgram(steps=tuple(steps), task=tpl.task)


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PageScope:
    doc: Document
    page: Page

    @property
    def elements(self) -> list[DocElement]:
        return sorted(self.page.elements, key=lambda e: e.page_reading_index)

    def reading_index(self, el: DocElement) -> int:
        return el.page_reading_index


@dataclass(frozen=True)
class DocumentScope:
    doc: Document

    @property
    def elements(self) -> list[DocElement]:
        return self.doc.elements_in_doc_order()

    def reading_index(self, el: DocElement) -> int:
        return el.doc_reading_index


def scope_for(task: TaskId, doc: Document, page: Page | None = None):
    if task in (TaskId.A, TaskId.B):
        if page is None:
            raise TypeMismatch("page scope required for Tasks A/B")
        return PageScope(doc, page)
    return DocumentScope(doc)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

_NA = object()


def _owning_title(el: DocElement, graphs: GraphBundle,
                  by_id: dict[str, DocElement]) -> DocElement | None:
    for ancestor_id in graphs.logical.ancestors(el.id):
        ancestor = by_id.get(ancestor_id)
        if ancestor is not None and ancestor.category == ElementCategory.TITLE:
            return ancestor
    return None


def _described_by(el: DocElement, graphs: GraphBundle,
                  by_id: dict[str, DocElement]) -> DocElement | None:
    if el.category == ElementCategory.TITLE or el.category.is_caption:
        return el
    if el.category.is_float:
        parent_id = graphs.logical.parent(el.id)
        parent = by_id.get(parent_id) if parent_id else None
        wanted = el.category.caption_kind
        return parent if parent is not None and parent.category == wanted else None
    return _owning_title(el, graphs, by_id)


def execute(prog: FunctionalProgram, scope, graphs: GraphBundle,
            trace: list | None = None) -> AnswerValue:
    """Evaluate the chain left to right and render the task's answer kind."""
    check_chain(prog.steps, prog.task)
    doc: Document = scope.doc
    by_id = {el.id: el for el in doc.elements()}
    kind = SCOPE if SIGNATURES[prog.steps[0].op][0] == SCOPE else ELEMS
    value = scope if kind == SCOPE else list(scope.elements)

    for i, step in enumerate(prog.steps):
        if value is _NA:
            break
        value = _apply(step, value, scope, graphs, by_id)
        if trace is not None:
            out_kind = SIGNATURES[step.op][1]
            trace.append({
                "step": i,
                "function": step.op,
                "output_kind": "na" if value is _NA else out_kind,
                "output_size": len(value) if isinstance(value, list) else (0 if value is _NA else 1),
            })
    return _render(prog, value, scope)


def execute_with_trace(prog: FunctionalProgram, scope, graphs: GraphBundle):
    trace: list = []
    answer = execute(prog, scope, graphs, trace=trace)
    return answer, trace


def _apply(step: Step, value, scope, graphs: GraphBundle, by_id):
    op = step.op
    if op == "filter_category":
        wanted = category_for_label(step.arg)
        return [el for el in value if el.category == wanted]
    if op == "filter_region":
        return [el for el in value if in_region(el.bbox, step.arg)]
    if op == "locate_text":
        matches = [el for el in scope.elements
                   if el.category == ElementCategory.TITLE and el.text == step.arg]
        if len(matches) != 1:
            raise AnchorNotFound(
                f"text anchor {step.arg!r} matched {len(matches)} title elements")
        return matches[0]
    if op == "related":
        if not isinstance(scope, PageScope):
            raise TypeMismatch("spatial queries need a page scope")
        graph = graphs.spatial[scope.page.index]
        ids = graph.related(value.id, SpatialRelation(step.arg), coarse=step.coarse)
        return sorted((by_id[i] for i in ids), key=scope.reading_index)
    if op == "count":
        return len(value)
    if op == "exists":
        return bool(value)
    if op == "compare_count":
        return value == step.arg
    if op == "nth_reading":
        if not value:
            return _NA
        if step.arg == "first":
            return value[0]
        if step.arg == "last":
            return value[-1]
        # "unique": the referent must be unambiguous
        return value[0] if len(value) == 1 else _NA
    if op == "described_by":
        described = _described_by(value, graphs, by_id)
        return _NA if described is None else described
    if op == "child_sections":
        kids = graphs.logical.children(value.id)
        return [by_id[k] for k in kids if by_id[k].category == ElementCategory.TITLE]
    if op == "parent_sections":
        titles = {}
        for el_id in scope.doc.mention_index.get(step.arg, ()):
            owner = _owning_title(by_id[el_id], graphs, by_id)
            if owner is not None:
                titles[owner.id] = owner
        return sorted(titles.values(), key=lambda e: e.doc_reading_index)
    if op == "text_anchor_exists":
        return any(
            el.category == ElementCategory.TITLE and el.text == step.arg
            for el in scope.elements
        )
    raise TypeMismatch(f"unknown operation {op!r}")


def _render(prog: FunctionalProgram, value, scope) -> AnswerValue:
    if value is _NA:
        return AnswerValue.na()
    task = prog.task
    if task == TaskId.A:
        if isinstance(value, bool):
            return AnswerValue.token("yes" if value else "no")
        if isinstance(value, int):
            if value > 5:
                raise OverflowAnswer(f"count {value} exceeds the fixed answer space")
            return AnswerValue.token(str(value))
        raise TypeMismatch(f"Task A cannot answer with {type(value).__name__}")
    if task == TaskId.B:
        if not isinstance(value, DocElement):
            raise TypeMismatch("Task B answers must be single elements")
        # answers are page-local reading indices; off-page referents are N/A
        if value.page_index != scope.page.index:
            return AnswerValue.na()
        return AnswerValue.index(value.page_reading_index)
    if not isinstance(value, list):
        raise TypeMismatch("Task C answers must be element sets")
    if not value:
        return AnswerValue.na()
    return AnswerValue.index_set(el.doc_reading_index for el in value)
