"""Dataset splitting, JSONL serialization, and descriptive statistics."""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import BadRatios, IoFailure, SchemaViolation
from .generator import QARecord
from .model import TaskId
from .programs import AnswerValue
from .templates import SLOT_VALUES, QuestionType, load_templates

SPLIT_NAMES = ("train", "valid", "test")


# ---------------------------------------------------------------------------
# Record (de)serialization
# ---------------------------------------------------------------------------

def answer_to_json(answer: AnswerValue) -> dict:
    value = list(answer.value) if answer.kind == "index_set" else answer.value
    return {"kind": answer.kind, "value": value}


def answer_from_json(data) -> AnswerValue:
    if not isinstance(data, dict) or "kind" not in data:
        raise SchemaViolation(f"bad answer payload: {data!r}")
    kind = data["kind"]
    value = data.get("value")
    if kind == "token":
        if not isinstance(value, str):
            raise SchemaViolation(f"token answer needs a string, got {value!r}")
        return AnswerValue.token(value)
    if kind == "index":
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaViolation(f"index answer needs an int, got {value!r}")
        return AnswerValue.index(value)
    if kind == "index_set":
        if (not isinstance(value, list) or not value
                or any(isinstance(v, bool) or not isinstance(v, int) for v in value)):
            raise SchemaViolation(f"index_set answer needs a nonempty int list, got {value!r}")
        return AnswerValue.index_set(value)
    if kind == "na":
        return AnswerValue.na()
    raise SchemaViolation(f"unknown answer kind {kind!r}")


def record_to_json(record: QARecord) -> dict:
    return {
        "qid": record.qid,
        "task": record.task.value,
        "qtype": record.qtype.value,
        "doc_id": record.doc_id,
        "page": record.page_index,
        "question": record.question,
        "template_id": record.template_id,
        "bindings": dict(record.binding),
        "answer": answer_to_json(record.answer),
    }


def record_from_json(data) -> QARecord:
    if not isinstance(data, dict):
        raise SchemaViolation("record line must be a JSON object")
    try:
        task = TaskId(data["task"])
        qtype = QuestionType(data["qtype"])
        record = QARecord(
            qid=data["qid"],
            task=task,
            qtype=qtype,
            doc_id=data["doc_id"],
            page_index=data["page"],
            question=data["question"],
            template_id=data["template_id"],
            binding=dict(data["bindings"]),
            answer=answer_from_json(data["answer"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaViolation(f"bad record: {exc}") from exc
    if not isinstance(record.qid, str) or not isinstance(record.question, str):
        raise SchemaViolation("qid and question must be strings")
    if record.page_index is not None and (
            isinstance(record.page_index, bool) or not isinstance(record.page_index, int)):
        raise SchemaViolation(f"page must be an integer or null (qid {record.qid})")
    if (record.page_index is None) != (task == TaskId.C):
        raise SchemaViolation(f"page must be set exactly for Tasks A/B (qid {record.qid})")
    try:
        tpl = load_templates().by_id(record.template_id)
    except KeyError as exc:
        raise SchemaViolation(f"unknown template_id {record.template_id!r}") from exc
    if tpl.task != task or tpl.qtype != qtype:
        raise SchemaViolation(f"template {record.template_id!r} does not belong to "
                              f"task {task.value}/{qtype.value}")
    return record


def write_records_jsonl(records, path) -> None:
    lines = [json.dumps(record_to_json(r), ensure_ascii=True) for r in records]
    payload = ("\n".join(lines) + "\n") if lines else ""
    atomic_write_text(Path(path), payload)


def jsonl_lines(path):
    """Yield (lineno, value) for each nonblank line of a JSONL file.

    Raises IoFailure when the file cannot be read and SchemaViolation naming
    path:lineno when a line is not valid JSON.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"{path}:{lineno}: not valid JSON") from exc
        yield lineno, data


def read_records_jsonl(path) -> list[QARecord]:
    return [record_from_json(data) for _, data in jsonl_lines(path)]


def atomic_write_text(path: Path, payload: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(payload, encoding="utf-8")
        tmp.replace(path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def atomic_write_json(path, data) -> None:
    atomic_write_text(Path(path), json.dumps(data, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSplit:
    name: str
    records: tuple[QARecord, ...]
    doc_ids: tuple[str, ...]


def split_corpus(records, ratios, seed: int) -> tuple[DatasetSplit, DatasetSplit, DatasetSplit]:
    """Shuffle documents with the seed and partition them by ratio.

    Quotas use largest-remainder rounding; every record follows its document,
    so no document (and no page) straddles two splits.
    """
    ratios = tuple(ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise BadRatios(f"need three positive ratios, got {ratios!r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios sum to {sum(ratios)!r}, expected 1")

    docs = sorted({r.doc_id for r in records})
    rng = random.Random(seed)
    rng.shuffle(docs)

    quotas = [len(docs) * r for r in ratios]
    base = [int(q) for q in quotas]
    shortfall = len(docs) - sum(base)
    by_fraction = sorted(range(3), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in by_fraction[:shortfall]:
        base[i] += 1

    membership: dict[str, str] = {}
    cursor = 0
    for name, size in zip(SPLIT_NAMES, base):
        for doc_id in docs[cursor:cursor + size]:
            membership[doc_id] = name
        cursor += size

    splits = []
    for name in SPLIT_NAMES:
        split_records = tuple(r for r in records if membership[r.doc_id] == name)
        split_docs = tuple(sorted(d for d, n in membership.items() if n == name))
        splits.append(DatasetSplit(name=name, records=split_records, doc_ids=split_docs))
    return tuple(splits)


def write_dataset(splits, out_dir) -> None:
    out_dir = Path(out_dir)
    for split in splits:
        write_records_jsonl(split.records, out_dir / f"{split.name}.jsonl")


def read_dataset(in_dir) -> tuple[DatasetSplit, ...]:
    in_dir = Path(in_dir)
    splits = []
    for name in SPLIT_NAMES:
        records = read_records_jsonl(in_dir / f"{name}.jsonl")
        doc_ids = tuple(sorted({r.doc_id for r in records}))
        splits.append(DatasetSplit(name=name, records=tuple(records), doc_ids=doc_ids))
    return tuple(splits)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def questions_per_image(questions: int, images: int) -> float:
    """Average question density, reported at two decimals."""
    return round(questions / images, 2) if images else 0.0


def percentage(part: int, whole: int) -> float:
    return round(100.0 * part / whole, 2) if whole else 0.0


def anonymized_pattern(record: QARecord) -> str:
    """Question text with document-specific anchors replaced by the placeholder X."""
    tpl = load_templates().by_id(record.template_id)
    text = record.question
    for slot in tpl.slots:
        if slot.kind in SLOT_VALUES:
            continue
        value = str(record.binding[slot.name])
        surface = f"'{value}'" if slot.quoted else value
        stand_in = "'X'" if slot.quoted else "X"
        text = text.replace(surface, stand_in, 1)
    return text


def compute_stats(splits, top_words: int = 4, top_patterns: int = 15) -> dict:
    """Descriptive statistics over the union of all splits."""
    all_records = [r for split in splits for r in split.records]
    report: dict = {"splits": {}, "tasks": {}}
    for split in splits:
        report["splits"][split.name] = {
            "questions": len(split.records),
            "documents": len(split.doc_ids),
        }

    for task in TaskId:
        records = [r for r in all_records if r.task == task]
        if task == TaskId.C:
            images = len({r.doc_id for r in records})
        else:
            images = len({(r.doc_id, r.page_index) for r in records})
        questions = len(records)
        lengths = [len(r.question.split()) for r in records]
        question_counts = Counter(r.question for r in records)
        unique_once = sum(1 for n in question_counts.values() if n == 1)
        qtype_counts = Counter(r.qtype.value for r in records)
        first_words = Counter(r.question.split()[0] for r in records if r.question.split())
        patterns = Counter(anonymized_pattern(r) for r in records)

        report["tasks"][task.value] = {
            "images": images,
            "questions": questions,
            "avg_questions_per_image": questions_per_image(questions, images),
            "avg_question_length": round(sum(lengths) / len(lengths), 2) if lengths else 0.0,
            "unique_question_pct": percentage(unique_once, questions),
            "qtype_counts": {
                qtype.value: qtype_counts.get(qtype.value, 0)
                for qtype in QuestionType if qtype.task == task
            },
            "qtype_percentages": {
                qtype.value: percentage(qtype_counts.get(qtype.value, 0), questions)
                for qtype in QuestionType if qtype.task == task
            },
            "top_first_words": [
                [w, n] for w, n in sorted(first_words.items(), key=lambda kv: (-kv[1], kv[0]))[:top_words]
            ],
            "top_patterns": [
                [p, n] for p, n in sorted(patterns.items(), key=lambda kv: (-kv[1], kv[0]))[:top_patterns]
            ],
        }
    return report
