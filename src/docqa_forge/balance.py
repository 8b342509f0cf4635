"""Two-stage distribution balancing: answers first, then parameter combos.

Both stages cap buckets inside (task, pattern text) groups, never across them,
and never touch Task C, whose parameter values are nearly unique document texts
(balancing them would only destroy data). The stages and the report read rows,
qid -> row in input order: an A/B record's Row holds its keys, computed once
when the record is read; a Task C record is its own row. One pass files each
A/B qid under its group and bucket, for a stage or for the report. Survivors
are ranked by a seeded qid hash, so results are identical for any machine,
worker count or input order.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

from .errors import check_range
from .generator import QARecord, binding_layout
from .hashing import stable_unit_prefix
from .model import TaskId
from .templates import canonical_binding, load_templates


@dataclass(frozen=True)
class BalanceConfig:
    seed: int
    answer_ratio: float = 1.5
    param_ratio: float = 2.0

    def __post_init__(self):
        check_range("answer_ratio", self.answer_ratio, 1)
        check_range("param_ratio", self.param_ratio, 1)


@lru_cache(maxsize=1)
def _group_of() -> dict[str, tuple[str, str]]:
    """template_id -> its balance group (task, pattern text)."""
    return {t.template_id: (t.task.value, t.pattern) for t in load_templates()}


_TASK_C = TaskId.C  # looked up once: reading a member off an Enum class is slow


class Row(NamedTuple):
    """What the stages and the report read of an A/B record. A Task C record,
    which is never balanced, stands for itself in their rows."""
    group: tuple[str, str]
    answer_class: str
    combo: str


def balance_row(record: QARecord, shared: dict) -> Row | QARecord:
    """The record's row, built once for records that agree on it: shared maps
    each binding layout to its combination, and each answer class and each
    row to itself."""
    if record.task is _TASK_C:
        return record
    layout = binding_layout(record.binding)
    combo = shared.get(layout)
    if combo is None:
        combo = shared[layout] = canonical_binding(record.binding)
    answer_class = record.answer.canonical()
    answer_class = shared.setdefault(answer_class, answer_class)
    key = (_group_of()[record.template_id], answer_class, combo)
    row = shared.get(key)  # a Row equals, and hashes as, the plain tuple
    if row is None:
        row = Row(*key)
        shared[row] = row
    return row


def _task(row) -> str:
    """The row's task, "A", "B" or "C"."""
    return row.group[0] if type(row) is Row else _TASK_C.value


_ANSWER_CLASS, _COMBO = attrgetter("answer_class"), attrgetter("combo")


def _buckets(rows, bucket_of) -> dict[tuple[str, str], dict[str, list[str]]]:
    """group -> bucket_of(row) -> qids, in input order, of every A/B row."""
    groups: dict = defaultdict(lambda: defaultdict(list))
    for qid, row in rows.items():
        if type(row) is Row:
            groups[row.group][bucket_of(row)].append(qid)
    return groups


def _balance_stage(rows, cfg: BalanceConfig, stage: str, bucket_of, cap_of):
    """Cap every bucket of every A/B group at cap_of(bucket sizes); Task C passes.
    Rows that lose nothing are returned as they are."""
    keep: set[str] = set()
    capped = False
    for (task, pattern), buckets in _buckets(rows, bucket_of).items():
        cap = cap_of([len(qids) for qids in buckets.values()])
        for bucket, qids in buckets.items():
            if len(qids) > cap:  # keep the cap lowest by (rank, qid)
                rank = stable_unit_prefix(cfg.seed, f"{stage}|{task}|{pattern}|{bucket}")
                qids = [q for _, q in sorted(zip(map(rank, qids), qids))[:cap]]
                capped = True
            keep.update(qids)
    if not capped:
        return rows
    return {qid: row for qid, row in rows.items() if type(row) is not Row or qid in keep}


def balance_answers(rows: dict, cfg: BalanceConfig) -> dict:
    """Cap every answer class at ceil(r_a x smallest nonempty class) per group."""
    return _balance_stage(rows, cfg, "ans", _ANSWER_CLASS,
                          lambda sizes: math.ceil(cfg.answer_ratio * min(sizes)))


def balance_parameters(rows: dict, cfg: BalanceConfig) -> dict:
    """Cap every parameter-value combination at ceil(r_p x median combo count)."""
    return _balance_stage(
        rows, cfg, "par", _COMBO,
        lambda sizes: max(1, math.ceil(cfg.param_ratio * statistics.median(sorted(sizes)))))


def reduction_factor(before: int, after: int) -> float | None:
    return None if after == 0 else round(before / after, 2)


def balance_report(before: dict, after: dict) -> dict:
    """Per-task shrinkage plus the worst skew ratio left in any A/B group."""
    n_before = Counter(map(_task, before.values()))
    n_after = Counter(map(_task, after.values()))
    report: dict = {"tasks": {
        t.value: {"before": n_before[t.value], "after": n_after[t.value],
                  "reduction_factor": reduction_factor(n_before[t.value], n_after[t.value])}
        for t in TaskId}}
    for name, bucket_of, typical in (("answer_class_ratio", _ANSWER_CLASS, min),
                                     ("param_combo_ratio", _COMBO, statistics.median)):
        ratios: dict[str, list[float]] = {t.value: [] for t in TaskId}
        for (task, _), buckets in _buckets(after, bucket_of).items():
            sizes = sorted(len(qids) for qids in buckets.values())
            ratios[task].append(sizes[-1] / typical(sizes))
        report[name] = {task: round(max(rs), 4) if rs else None for task, rs in ratios.items()}
    return report
