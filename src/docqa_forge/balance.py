"""Two-stage distribution balancing: answers first, then parameter combos.

Both stages down-sample inside (task, pattern) groups, never across them,
and never touch Task C (its parameter values are nearly unique document
texts, so balancing would only destroy data). Survivor selection ranks
records by a seeded hash, which keeps results identical regardless of
machine, worker count, or input chunking.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass

from .errors import check_range
from .generator import QARecord
from .hashing import stable_unit
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


def _grouped(records):
    registry = load_templates()
    groups: dict[tuple[str, str], list[QARecord]] = {}
    for record in records:
        pattern = registry.by_id(record.template_id).pattern
        groups.setdefault((record.task.value, pattern), []).append(record)
    return groups


def _survivors(members: list[QARecord], cap: int, seed: int, salt: str) -> set[str]:
    if len(members) <= cap:
        return {r.qid for r in members}
    ranked = sorted(members, key=lambda r: (stable_unit(seed, salt, r.qid), r.qid))
    return {r.qid for r in ranked[:cap]}


def _answer_class(record: QARecord) -> str:
    return record.answer.canonical()


def _combo(record: QARecord) -> str:
    return canonical_binding(record.binding)


def _balance_stage(records, cfg: BalanceConfig, stage: str, bucket_of, cap_of):
    """Cap every bucket of every A/B group at cap_of(bucket sizes); Task C passes."""
    keep: set[str] = set()
    for (task, pattern), members in _grouped(records).items():
        if task == TaskId.C.value:
            keep.update(r.qid for r in members)
            continue
        buckets: dict[str, list[QARecord]] = {}
        for r in members:
            buckets.setdefault(bucket_of(r), []).append(r)
        cap = cap_of([len(rs) for rs in buckets.values()])
        for bucket, rs in buckets.items():
            keep.update(_survivors(rs, cap, cfg.seed, f"{stage}|{task}|{pattern}|{bucket}"))
    return [r for r in records if r.qid in keep]


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
    if after == 0:
        return None
    return round(before / after, 2)


def _skew(members, bucket_of, typical) -> float:
    """Largest bucket size over typical(sorted bucket sizes) in one nonempty group."""
    sizes = Counter(bucket_of(r) for r in members)
    return max(sizes.values()) / typical(sorted(sizes.values()))


def balance_report(before: list[QARecord], after: list[QARecord]) -> dict:
    """Per-task shrinkage plus worst remaining skew ratios across groups."""
    report: dict = {"tasks": {}}
    for task in TaskId:
        n_before = sum(1 for r in before if r.task == task)
        n_after = sum(1 for r in after if r.task == task)
        report["tasks"][task.value] = {
            "before": n_before,
            "after": n_after,
            "reduction_factor": reduction_factor(n_before, n_after),
        }
    groups = _grouped(after)
    for name, bucket_of, typical in (("answer_class_ratio", _answer_class, min),
                                     ("param_combo_ratio", _combo, statistics.median)):
        per_task: dict[str, float | None] = {}
        for task in TaskId:
            if task == TaskId.C:
                per_task[task.value] = None
                continue
            ratios = [
                _skew(members, bucket_of, typical)
                for (t, _), members in groups.items()
                if t == task.value
            ]
            per_task[task.value] = round(max(ratios), 4) if ratios else None
        report[name] = per_task
    return report
