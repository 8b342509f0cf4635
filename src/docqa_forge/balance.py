"""Two-stage distribution balancing: answers first, then parameter combos.

Both stages cap buckets inside (task, pattern text) groups, never across them,
and never touch Task C, whose parameter values are nearly unique document texts
(balancing them would only destroy data). One pass files each A/B qid under its
group and bucket, for a stage or for the report. Survivors are ranked by a seeded
qid hash, so results are identical for any machine, worker count or input order.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import check_range
from .generator import QARecord
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


def _answer_class(record: QARecord) -> str:
    return record.answer.canonical()


def _combo(record: QARecord) -> str:
    return canonical_binding(record.binding)


def _buckets(records, bucket_of) -> dict[tuple[str, str], dict[str, list[str]]]:
    """group -> bucket_of(record) -> qids, in input order, of every A/B record."""
    groups: dict[tuple[str, str], dict[str, list[str]]] = {}
    for r in records:
        if r.task is not TaskId.C:
            group = groups.setdefault(_group_of()[r.template_id], {})
            group.setdefault(bucket_of(r), []).append(r.qid)
    return groups


def _balance_stage(records, cfg: BalanceConfig, stage: str, bucket_of, cap_of):
    """Cap every bucket of every A/B group at cap_of(bucket sizes); Task C passes."""
    keep: set[str] = set()
    for (task, pattern), buckets in _buckets(records, bucket_of).items():
        cap = cap_of([len(qids) for qids in buckets.values()])
        for bucket, qids in buckets.items():
            if len(qids) > cap:
                rank = stable_unit_prefix(cfg.seed, f"{stage}|{task}|{pattern}|{bucket}")
                qids = sorted(qids, key=lambda q: (rank(q), q))[:cap]
            keep.update(qids)
    return [r for r in records if r.task is TaskId.C or r.qid in keep]


def balance_answers(records: list[QARecord], cfg: BalanceConfig) -> list[QARecord]:
    """Cap every answer class at ceil(r_a x smallest nonempty class) per group."""
    return _balance_stage(records, cfg, "ans", _answer_class,
                          lambda sizes: math.ceil(cfg.answer_ratio * min(sizes)))


def balance_parameters(records: list[QARecord], cfg: BalanceConfig) -> list[QARecord]:
    """Cap every parameter-value combination at ceil(r_p x median combo count)."""
    return _balance_stage(
        records, cfg, "par", _combo,
        lambda sizes: max(1, math.ceil(cfg.param_ratio * statistics.median(sorted(sizes)))))


def reduction_factor(before: int, after: int) -> float | None:
    return None if after == 0 else round(before / after, 2)


def balance_report(before: list[QARecord], after: list[QARecord]) -> dict:
    """Per-task shrinkage plus the worst skew ratio left in any A/B group."""
    n_before = Counter(r.task.value for r in before)
    n_after = Counter(r.task.value for r in after)
    report: dict = {"tasks": {
        t.value: {"before": n_before[t.value], "after": n_after[t.value],
                  "reduction_factor": reduction_factor(n_before[t.value], n_after[t.value])}
        for t in TaskId}}
    for name, bucket_of, typical in (("answer_class_ratio", _answer_class, min),
                                     ("param_combo_ratio", _combo, statistics.median)):
        ratios: dict[str, list[float]] = {t.value: [] for t in TaskId}
        for (task, _), buckets in _buckets(after, bucket_of).items():
            sizes = sorted(len(qids) for qids in buckets.values())
            ratios[task].append(sizes[-1] / typical(sizes))
        report[name] = {task: round(max(rs), 4) if rs else None for task, rs in ratios.items()}
    return report
