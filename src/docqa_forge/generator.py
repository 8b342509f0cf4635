"""End-to-end QA generation over a corpus.

Documents are independent work units; generation within one document is fully
deterministic given the seed, so per-document outputs can be computed by any
number of workers and merged back in doc_id order without changing a byte.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter
from dataclasses import dataclass, field, fields
from operator import attrgetter

from .errors import BadParameter, OverflowAnswer, check_range
from .graphs import build_graphs
from .hashing import stable_hex, stable_unit
from .ingest import Exclusion, validate_for_generation
from .model import Document, TaskId
from .programs import AnswerValue, compile_program, execute, scope_for
from .templates import (
    QuestionType,
    canonical_binding,
    enumerate_bindings,
    instantiate,
    load_templates,
)


@dataclass(frozen=True)
class GenConfig:
    seed: int
    tasks: tuple[str, ...] = ("A", "B", "C")
    na_retention: float = 0.1
    per_template_cap: int | None = None

    def __post_init__(self):
        if not (self.tasks and set(self.tasks) <= {t.value for t in TaskId}):
            raise BadParameter(f"tasks must be a nonempty subset of A, B, C, got {self.tasks!r}")
        check_range("na_retention", self.na_retention, 0, 1)
        if self.per_template_cap is not None:
            check_range("per_template_cap", self.per_template_cap, 0, kind=int)

    def hash(self) -> str:
        blob = json.dumps({
            "seed": self.seed,
            "tasks": sorted(self.tasks),
            "na_retention": self.na_retention,
            "per_template_cap": self.per_template_cap,
        }, sort_keys=True)
        return stable_hex("config", blob)


@dataclass(slots=True)
class QARecord:
    qid: str
    task: TaskId
    qtype: QuestionType
    doc_id: str
    page_index: int | None
    question: str
    template_id: str
    binding: dict
    answer: AnswerValue
    # execute's per-step output sizes for this answer (see programs.trace_steps);
    # kept for --trace, not part of the record's JSON or equality.
    step_sizes: tuple = field(default=(), compare=False, repr=False)

    def __reduce__(self):
        # The fields as constructor arguments: smaller and faster to pickle
        # (workers ship records) than the default per-slot state dict.
        return type(self), _record_fields(self)


_record_fields = attrgetter(*(f.name for f in fields(QARecord)))


@dataclass
class GenerationResult:
    records: list[QARecord]
    excluded: list[Exclusion]
    counts: dict = field(default_factory=dict)
    seed: int = 0
    config_hash: str = ""


def make_qid(doc_id: str, page_index: int | None, template_id: str, binding: dict, *,
             key: str | None = None) -> str:
    """The record id; key is the binding's canonical_binding, if the caller has it."""
    if key is None:
        key = canonical_binding(binding)
    return stable_hex("qid", doc_id, "" if page_index is None else page_index, template_id, key)


def _evaluate_group(tpl, scope, graphs) -> list[tuple]:
    """(binding, canonical key, answer, step sizes) for every binding of tpl's
    group in one scope; answer is None where every template of the group drops it.

    The templates of a group share their slots and their program (see
    GROUP_PROGRAMS), so any of them gives the same bindings and answers.
    """
    rows = []
    for binding in enumerate_bindings(tpl, scope.doc, scope.page, graphs):
        program = compile_program(tpl, binding)  # validates the binding, once
        sizes: list = []
        try:
            answer = execute(program, scope, graphs, sizes)
        except OverflowAnswer:
            answer = None
        if answer is not None and answer.kind == "na" and tpl.task != TaskId.B:
            answer = None  # only Task B keeps unanswerable questions
        rows.append((binding, canonical_binding(binding), answer, tuple(sizes)))
    return rows


def _cap_rows(rows, cfg: GenConfig, doc_id: str, page_index, template_id: str):
    """At most per_template_cap rows, ranked by a hash that includes the
    template, so each template of a group keeps its own sample."""
    cap = cfg.per_template_cap
    if cap is None or len(rows) <= cap:
        return rows
    ranked = sorted(rows, key=lambda row: stable_unit(cfg.seed, "cap", doc_id, page_index,
                                                      template_id, row[1]))
    keep = {row[1] for row in ranked[:cap]}
    return [row for row in rows if row[1] in keep]


def _generate_scope(templates, scope, graphs, cfg: GenConfig) -> list[QARecord]:
    """Records of templates in one scope, in registry order; each template
    group's bindings and answers are computed once, by its first template."""
    doc_id = scope.doc.doc_id
    page_index = None if scope.page is None else scope.page.index
    evaluated: dict[str, list[tuple]] = {}
    records = []
    for tpl in templates:
        rows = evaluated.get(tpl.group)
        if rows is None:
            rows = evaluated[tpl.group] = _evaluate_group(tpl, scope, graphs)
        task, qtype, template_id = tpl.task, tpl.qtype, tpl.template_id
        for binding, key, answer, sizes in _cap_rows(rows, cfg, doc_id, page_index, template_id):
            if answer is None:
                continue
            qid = make_qid(doc_id, page_index, template_id, binding, key=key)
            if answer.kind == "na" and stable_unit(cfg.seed, "na", qid) >= cfg.na_retention:
                continue
            question = instantiate(tpl, binding, cfg.seed, validated=True, key=key)
            records.append(QARecord(qid, task, qtype, doc_id, page_index, question.text,
                                    template_id, dict(binding), answer, sizes))
    return records


def generate_document(doc: Document, cfg: GenConfig) -> tuple[list[QARecord], list[Exclusion]]:
    """One document's records, in canonical order, and its exclusions.

    Each requested task is validated first. Tasks A and B then run on every
    eligible page, A before B on each page, and Task C runs on the document.
    """
    registry = load_templates()
    excluded: list[Exclusion] = []
    eligible: dict[TaskId, tuple[int, ...]] = {}
    for task in TaskId:
        if task.value in cfg.tasks:
            report = validate_for_generation(doc, task)
            excluded.extend(report.excluded)
            if report.document_eligible:
                eligible[task] = report.eligible_pages
    # A and B accept the same pages; only their pages get a spatial graph.
    ab_pages = eligible.get(TaskId.A, eligible.get(TaskId.B, ()))
    graphs = build_graphs(doc, ab_pages)
    scopes = [(task, doc.pages[index]) for index in ab_pages
              for task in (TaskId.A, TaskId.B) if task in eligible]
    if TaskId.C in eligible:
        scopes.append((TaskId.C, None))
    records: list[QARecord] = []
    for task, page in scopes:
        scope = scope_for(task, doc, page)
        records.extend(_generate_scope(registry.for_task(task), scope, graphs, cfg))
    return records, excluded


def resolve_workers(explicit: int | None = None) -> int:
    """Worker count: explicit argument, else FORGE_THREADS (0 = auto), else 1."""
    source, value = "max_workers", explicit
    if explicit is None:
        source, value = "FORGE_THREADS", os.environ.get("FORGE_THREADS") or "1"
        try:
            value = int(value)
        except ValueError:
            pass
    check_range(source, value, 0, kind=int)
    return value or os.cpu_count() or 1


def generate_corpus(corpus, cfg: GenConfig, max_workers: int | None = None) -> GenerationResult:
    """Run generation over every document, merged in doc_id order."""
    docs = sorted(corpus, key=lambda d: d.doc_id)
    workers = resolve_workers(max_workers)
    # map keeps the order of docs, so outputs stay in doc_id order
    if workers > 1 and len(docs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(generate_document, docs, itertools.repeat(cfg)))
    else:
        outputs = [generate_document(doc, cfg) for doc in docs]

    records: list[QARecord] = []
    excluded: list[Exclusion] = []
    for doc_records, doc_excluded in outputs:
        records.extend(doc_records)
        excluded.extend(doc_excluded)
    return GenerationResult(records=records, excluded=excluded,
                            counts=count_by_type(records),
                            seed=cfg.seed, config_hash=cfg.hash())


def count_by_type(records) -> dict:
    """Question counts in the per-task, per-type report shape."""
    counts = {task.value: {qtype.value: 0 for qtype in QuestionType if qtype.task == task}
              for task in TaskId}
    for qtype, n in Counter(r.qtype for r in records).items():
        counts[qtype.task.value][qtype.value] = n
    return counts
