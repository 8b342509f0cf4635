"""Scoring: per-class F1 for Tasks A/B, exact-set accuracy for Task C."""

from __future__ import annotations

from .dataset import answer_from_json, jsonl_lines
from .errors import BadParameter, KindMismatch, MissingPrediction, SchemaViolation, UnknownQid
from .generator import QARecord
from .model import TaskId
from .programs import ANSWER_SPACE, AnswerValue
from .templates import QuestionType

_QTYPE_HEADERS = {
    QuestionType.EXISTENCE: "Existence",
    QuestionType.COUNTING: "Counting",
    QuestionType.STRUCTURAL_UNDERSTANDING: "Struct-UD",
    QuestionType.OBJECT_RECOGNITION: "Obj-Reg",
    QuestionType.PARENT_RELATION: "Parent",
    QuestionType.CHILD_RELATION: "Child",
}


def _add_prediction(preds: dict[str, AnswerValue], data) -> None:
    if not isinstance(data, dict) or not isinstance(data.get("qid"), str):
        raise SchemaViolation("prediction needs a qid")
    if data["qid"] in preds:
        raise SchemaViolation(f"duplicate prediction for qid {data['qid']!r}")
    preds[data["qid"]] = answer_from_json(data.get("answer"))


def read_predictions_jsonl(path) -> dict[str, AnswerValue]:
    preds: dict[str, AnswerValue] = {}
    jsonl_lines(path, lambda data: _add_prediction(preds, data))
    return preds


def _check_kinds(gold, preds, strict: bool):
    by_qid = {}
    gold_qids = {r.qid for r in gold}
    for qid, answer in preds.items():
        if qid not in gold_qids:
            if strict:
                raise UnknownQid(f"prediction for unknown qid {qid!r}")
            continue
        by_qid[qid] = answer
    for record in gold:
        pred = by_qid.get(record.qid)
        if pred is None:
            if strict:
                raise MissingPrediction(f"no prediction for qid {record.qid!r}")
            continue
        if pred.kind not in ANSWER_SPACE[record.task]:
            raise KindMismatch(
                f"qid {record.qid!r}: {pred.kind!r} is not a Task {record.task.value} kind")
    return by_qid


def _f1_cells(gold: list[QARecord], preds: dict[str, AnswerValue]) -> dict:
    """Per-class precision/recall/F1 over the answer classes present in gold."""
    classes = sorted({r.answer.canonical() for r in gold})
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    correct = 0
    for record in gold:
        gold_label = record.answer.canonical()
        pred = preds.get(record.qid)
        pred_label = pred.canonical() if pred is not None else None
        if pred_label == gold_label:
            tp[gold_label] += 1
            correct += 1
        else:
            fn[gold_label] += 1
            if pred_label in fp:
                fp[pred_label] += 1

    per_class = {}
    for c in classes:
        precision = tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] else 0.0
        recall = tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[c] = {
            "precision": round(100 * precision, 2),
            "recall": round(100 * recall, 2),
            "f1": round(100 * f1, 2),
            "support": tp[c] + fn[c],
        }
    macro = sum(v["f1"] for v in per_class.values()) / len(per_class) if per_class else 0.0
    micro = 100.0 * correct / len(gold) if gold else 0.0
    return {"per_class": per_class, "macro_f1": round(macro, 2), "micro_f1": round(micro, 2)}


def _task_fragment(gold: list[QARecord], preds: dict[str, AnswerValue], score) -> dict:
    """The report entries every task shares; score(records) is its metric."""
    return {
        "per_qtype": {qtype.value: score([r for r in gold if r.qtype == qtype])
                      for qtype in sorted({r.qtype for r in gold}, key=lambda q: q.value)},
        "gold_na": sum(1 for r in gold if r.answer.kind == "na"),
        "missing_predictions": sum(1 for r in gold if r.qid not in preds),
        "questions": len(gold),
    }


def score_task_ab(gold: list[QARecord], preds: dict[str, AnswerValue],
                  averaging: str = "macro") -> dict:
    """F1 fragment for one of Tasks A/B; gold records must share the task.
    averaging is "macro" or "micro", else BadParameter."""
    if averaging not in ("macro", "micro"):
        raise BadParameter(f"averaging must be 'macro' or 'micro', got {averaging!r}")
    cells = _f1_cells(gold, preds)
    key = "macro_f1" if averaging == "macro" else "micro_f1"
    return {
        "metric": f"{averaging}_f1",
        "overall": cells[key],
        "macro_f1": cells["macro_f1"],
        "micro_f1": cells["micro_f1"],
        "per_class": cells["per_class"],
        **_task_fragment(gold, preds, lambda records: _f1_cells(records, preds)[key]),
    }


def score_task_c(gold: list[QARecord], preds: dict[str, AnswerValue]) -> dict:
    """Accuracy fragment for Task C: exact set equality, no partial credit."""
    def accuracy(records) -> float:
        if not records:
            return 0.0
        correct = sum(
            1 for r in records
            if r.qid in preds and preds[r.qid].canonical() == r.answer.canonical()
        )
        return round(100.0 * correct / len(records), 2)

    return {"metric": "accuracy", "overall": accuracy(gold),
            **_task_fragment(gold, preds, accuracy)}


def evaluate(gold: list[QARecord], preds: dict[str, AnswerValue],
             strict: bool = True, averaging: str = "macro") -> dict:
    """Score every task present in gold; returns the full report."""
    usable = _check_kinds(gold, preds, strict)
    report: dict = {"strict": strict, "tasks": {}}
    for task in TaskId:
        records = [r for r in gold if r.task == task]
        if not records:
            continue
        if task == TaskId.C:
            report["tasks"][task.value] = score_task_c(records, usable)
        else:
            report["tasks"][task.value] = score_task_ab(records, usable, averaging)
    return report


def breakdown(report: dict) -> str:
    """Aligned text table in the six-qtype column ordering, plus overalls."""
    headers = [_QTYPE_HEADERS[q] for q in QuestionType] + ["A", "B", "C"]
    cells = []
    for qtype in QuestionType:
        task_report = report["tasks"].get(qtype.task.value)
        value = None if task_report is None else task_report["per_qtype"].get(qtype.value)
        cells.append("-" if value is None else f"{value:.1f}")
    for task in TaskId:
        task_report = report["tasks"].get(task.value)
        cells.append("-" if task_report is None else f"{task_report['overall']:.1f}")
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    row = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return f"{head}\n{row}"
