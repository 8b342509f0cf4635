"""Dataset splitting, JSONL serialization, and descriptive statistics."""

from __future__ import annotations

import gc
import json
import os
import random
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from stat import S_ISREG

from .errors import BadParameter, BadRatios, IoFailure, SchemaViolation
from .generator import Binding, QARecord, count_by_type
from .model import TaskId
from .programs import AnswerValue
from .templates import SLOT_VALUES, QuestionType, load_templates

SPLIT_NAMES = ("train", "valid", "test")


# ---------------------------------------------------------------------------
# Record (de)serialization
# ---------------------------------------------------------------------------

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
        # the element types as one set: exactly int, so no bool, str or float
        if not isinstance(value, list) or set(map(type, value)) != {int}:
            raise SchemaViolation(f"index_set answer needs a nonempty int list, got {value!r}")
        return AnswerValue.index_set(value)
    if kind == "na":
        return AnswerValue.na()
    raise SchemaViolation(f"unknown answer kind {kind!r}")


@lru_cache(maxsize=1)
def _template_classes() -> dict[str, tuple[str, str, str, TaskId, QuestionType, tuple]]:
    """template_id -> (the registry's id, task, qtype, both as enums, its slot names)."""
    return {t.template_id: (t.template_id, t.task.value, t.qtype.value, t.task, t.qtype,
                            t.slot_names)
            for t in load_templates()}


_WORDS = {word: word for words in SLOT_VALUES.values() for word in words if type(word) is str}


def record_from_json(data) -> QARecord:
    if not isinstance(data, dict):
        raise SchemaViolation("record line must be a JSON object")
    try:
        qid, task, qtype, doc_id = data["qid"], data["task"], data["qtype"], data["doc_id"]
        page, question, template_id = data["page"], data["question"], data["template_id"]
        binding, answer = data["bindings"], data["answer"]
    except KeyError as exc:
        raise SchemaViolation(f"bad record: missing field {exc}") from exc
    if not (isinstance(qid, str) and isinstance(question, str)
            and isinstance(doc_id, str) and isinstance(template_id, str)):
        raise SchemaViolation("qid, question, doc_id and template_id must be strings")
    classes = _template_classes().get(template_id)
    if classes is None:
        raise SchemaViolation(f"unknown template_id {template_id!r} (qid {qid})")
    template_id, task_value, qtype_value, task_id, qtype_id, slot_names = classes
    if task != task_value or qtype != qtype_value:
        raise SchemaViolation(f"template {template_id!r} does not belong to "
                              f"task {task!r}/{qtype!r} (qid {qid})")
    if page is not None and (isinstance(page, bool) or not isinstance(page, int)):
        raise SchemaViolation(f"page must be an integer or null (qid {qid})")
    if (page is None) != (task_value == "C"):  # a str compare: TaskId.C is a slow lookup
        raise SchemaViolation(f"page must be set exactly for Tasks A/B (qid {qid})")
    names = tuple(binding) if isinstance(binding, dict) else None
    if names == slot_names:
        names = slot_names  # the registry's tuple; names in another order stay the file's
    elif names is None or binding.keys() != set(slot_names):
        raise SchemaViolation(f"bindings must be an object naming exactly the slots "
                              f"{sorted(slot_names)} of template {template_id!r} (qid {qid})")
    answer = answer_from_json(answer)
    if not answer.in_space_of(task_id):
        raise SchemaViolation(f"answer {answer.canonical()} is outside the Task {task} "
                              f"answer space (qid {qid})")
    # one shared str per closed-vocabulary word
    values = tuple([_WORDS.get(v, v) if type(v) is str else v for v in binding.values()])
    return QARecord(qid, task_id, qtype_id, doc_id, page, question, template_id,
                    Binding(names, values), answer)


def _json_value(value) -> str:
    """json.dumps(value); the str and int values records hold most, and the
    sorted int tuple of an index_set answer, directly."""
    if type(value) is str:
        return _quote(value)
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is tuple:
        return "[" + ", ".join(map(int.__repr__, value)) + "]"
    return json.dumps(value)


_CLASS_MEMBERS = {(task, qtype): f'"task": {_quote(task.value)}, "qtype": {_quote(qtype.value)}'
                  for task in TaskId for qtype in QuestionType}


def _record_line(r: QARecord) -> str:
    """The record as one JSON line, equal to json.dumps(ensure_ascii=True) of
    its dict (tests/test_dataset.py checks this) but built directly. Binding
    keys are strings."""
    binding = ", ".join([f"{_quote(k)}: {_quote(v) if type(v) is str else _json_value(v)}"
                         for k, v in r.binding.items()])
    page = "null" if r.page_index is None else _json_value(r.page_index)
    answer = r.answer
    value = "null" if answer.value is None else _json_value(answer.value)
    return (f'{{"qid": {_quote(r.qid)}, {_CLASS_MEMBERS[r.task, r.qtype]}, '
            f'"doc_id": {_quote(r.doc_id)}, "page": {page}, '
            f'"question": {_quote(r.question)}, "template_id": {_quote(r.template_id)}, '
            f'"bindings": {{{binding}}}, '
            f'"answer": {{"kind": {_quote(answer.kind)}, "value": {value}}}}}')


def write_records_jsonl(records, path) -> None:
    atomic_write_lines(path, (_record_line(r) for r in records))


def read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


_BLOCK = 1 << 13  # bytes read at once, before the rest of the line they end in


def _nonblank_lines(chunks, path: Path):
    """(lineno, line) for each nonblank line of the binary file chunks, in order,
    with the spaces and tabs around it stripped. Lines are numbered as
    str.splitlines() numbers the whole decoded file. Raises SchemaViolation naming
    path:lineno for the first line that is not UTF-8."""
    lineno = 0
    # Each block ends at a b"\n", which ends a line for splitlines() too
    # (alone or as the end of "\r\n") and is never inside a UTF-8 sequence.
    for block in iter(lambda: chunks.read(_BLOCK) + chunks.readline(), b""):
        try:
            text, is_utf8 = block.decode("utf-8"), True
        except UnicodeDecodeError:
            # Each bad byte becomes a lone surrogate, which a line then
            # fails to encode, so the lines before it are read first.
            text, is_utf8 = block.decode("utf-8", "surrogateescape"), False
        for line in text.splitlines():
            lineno += 1
            if not line.strip():
                continue
            if not is_utf8:
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise SchemaViolation(f"{path}:{lineno}: not valid UTF-8") from exc
            # Spaces and tabs are the only JSON whitespace a split line can hold.
            yield lineno, line.strip(" \t")


_scan = json.JSONDecoder().scan_once


def _decode_line(line: str, path: Path, lineno: int):
    """The one JSON value on a stripped line, else SchemaViolation naming path:lineno."""
    try:
        data, end = _scan(line, 0)
        if end != len(line):
            raise ValueError("extra data after the value")
    except (StopIteration, ValueError, RecursionError) as exc:
        raise SchemaViolation(f"{path}:{lineno}: not valid JSON") from exc
    return data


def jsonl_lines(path, take) -> tuple:
    """take(value) for the value on each nonblank line of a JSONL file, in order;
    returns the file's stamp, which changes when the file is replaced or written.

    The file is read a block of lines at a time, so only what take keeps is
    held; lines are numbered as str.splitlines() numbers the whole decoded file.
    Raises IoFailure when the file cannot be opened or read, and
    SchemaViolation naming path:lineno for the first line, in file order,
    that is not UTF-8, is not one valid JSON value, or that take rejects
    with a SchemaViolation.
    """
    path = Path(path)
    # The values are trees, freed by reference counting; collector passes over
    # what take keeps would only cost time. Restored on every path.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with _reading(path) as chunks:
            stamp = _stamp(chunks)
            for lineno, line in _nonblank_lines(chunks, path):
                data = _decode_line(line, path, lineno)
                try:
                    take(data)
                except SchemaViolation as exc:
                    raise SchemaViolation(f"{path}:{lineno}: {exc}") from exc
    finally:
        if gc_was_enabled:
            gc.enable()
    return stamp


@contextmanager
def _reading(path: Path):
    """The file opened for binary reads; an OSError while it is open becomes IoFailure."""
    try:
        with path.open("rb") as chunks:
            yield chunks
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _stamp(file) -> tuple:
    """What changes when the open file is replaced or written."""
    st = os.fstat(file.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def read_records_jsonl(path) -> list[QARecord]:
    """The file's records in order; a second record with the same qid is a SchemaViolation."""
    return list(_records_by_qid(Path(path), None)[0].values())


def read_rows_jsonl(path, row_of) -> tuple[dict, tuple]:
    """qid -> row_of(record) for each record of a JSONL file in file order, read
    and checked as read_records_jsonl reads them, and the file's stamp, for
    reread_records_jsonl. A file that is not a regular one, such as a pipe, is
    refused unopened: it could not be read again."""
    path = Path(path)
    with suppress(OSError):  # left to open() to report
        if not S_ISREG(path.stat().st_mode):
            raise IoFailure(f"cannot read {path} twice: it is not a regular file")
    return _records_by_qid(path, row_of)


def _records_by_qid(path: Path, row_of) -> tuple[dict, tuple]:
    """qid -> row_of(record), or the record itself, in file order, and the file's stamp."""
    rows: dict = {}  # a dict holds the qids in about half a set's memory
    last_doc_id = ""

    def take(data) -> None:
        nonlocal last_doc_id
        record = record_from_json(data)
        if record.qid in rows:
            raise SchemaViolation(f"duplicate record for qid {record.qid!r}")
        if record.doc_id != last_doc_id:
            last_doc_id = record.doc_id
        record.doc_id = last_doc_id  # records come grouped by document: one str per run
        rows[record.qid] = record if row_of is None else row_of(record)
    return rows, jsonl_lines(path, take)


def reread_records_jsonl(path, stamp, rows, kept):
    """The records whose qids are in kept, in file order, from a second read of
    the file read_rows_jsonl made rows and stamp of. A row that is a record is
    that record; any other kept record is decoded again from its line. Raises
    IoFailure when the file changed after the first read: its stamp, its count of
    records, or the qid on a decoded line differs."""
    path = Path(path)
    with _reading(path) as chunks:
        if _stamp(chunks) != stamp:
            raise IoFailure(f"{path} changed after its first read")
        try:
            lines = _nonblank_lines(chunks, path)
            for (lineno, line), (qid, row) in zip(lines, rows.items(), strict=True):
                if qid in kept:
                    if not isinstance(row, QARecord):
                        row = record_from_json(_decode_line(line, path, lineno))
                        if row.qid != qid:
                            raise SchemaViolation(f"qid {row.qid!r} where {qid!r} was")
                    yield row
        except (SchemaViolation, ValueError) as exc:  # ValueError: zip's count check
            raise IoFailure(f"{path} changed after its first read") from exc


def atomic_write_lines(path, lines) -> None:
    """Write each string in lines, and a newline after it, to a temporary file
    that then replaces path, so readers see the old file or the whole new one."""
    _atomic_write(path, (line + "\n" for line in lines))


def _atomic_write(path, chunks) -> None:
    """Write the strings in chunks, as they come, to a temporary file that then replaces
    path. Any exception removes the temporary file and then each parent directory the
    write created that is still empty; an OSError becomes IoFailure."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    created = []
    try:  # exists() can raise too, e.g. PermissionError on an ancestor
        created = [parent for parent in path.parents if not parent.exists()]
        path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w", encoding="utf-8") as out:
            out.writelines(chunks)
        tmp.replace(path)
        created = []
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:
        with suppress(OSError):  # e.g. NotADirectoryError when the parent is a file
            tmp.unlink(missing_ok=True)
        for parent in created:  # deepest first; rmdir keeps one that is not empty
            with suppress(OSError):
                parent.rmdir()


def json_text(data) -> str:
    """The one JSON layout of reports and metadata, on stdout as in files."""
    return json.dumps(data, indent=2, sort_keys=True)


def atomic_write_json(path, data) -> None:
    atomic_write_lines(path, [json_text(data)])


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSplit:
    name: str
    records: tuple[QARecord, ...]
    doc_ids: tuple[str, ...]

    @classmethod
    def of(cls, name: str, records) -> "DatasetSplit":
        """The split holding records, with the sorted ids of their documents."""
        records = tuple(records)
        return cls(name, records, tuple(sorted({r.doc_id for r in records})))


def check_ratios(ratios) -> tuple[float, float, float]:
    """The ratios as a tuple if they are three finite numbers > 0 summing to 1, else BadRatios."""
    ratios = tuple(ratios)
    if not (len(ratios) == 3 and all(isinstance(r, (int, float)) and r > 0 for r in ratios)
            and abs(sum(ratios) - 1.0) <= 1e-9):  # an inf ratio makes the sum inf
        raise BadRatios(f"ratios must be three finite numbers > 0 summing to 1, got {ratios!r}")
    return ratios


def split_corpus(records, ratios, seed: int) -> tuple[DatasetSplit, DatasetSplit, DatasetSplit]:
    """Shuffle documents with the seed and partition them by ratio.

    Quotas use largest-remainder rounding; every record follows its document,
    so no document (and no page) straddles two splits.
    """
    ratios = check_ratios(ratios)

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

    return tuple(DatasetSplit.of(name, (r for r in records if membership[r.doc_id] == name))
                 for name in SPLIT_NAMES)


def write_dataset(splits, out_dir) -> None:
    out_dir = Path(out_dir)
    for split in splits:
        write_records_jsonl(split.records, out_dir / f"{split.name}.jsonl")


def read_dataset(in_dir) -> tuple[DatasetSplit, ...]:
    in_dir = Path(in_dir)
    return tuple(DatasetSplit.of(name, read_records_jsonl(in_dir / f"{name}.jsonl"))
                 for name in SPLIT_NAMES)


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


# How many of the most frequent first words and question patterns stats lists.
TOP_FIRST_WORDS = 4
TOP_PATTERNS = 15


def _most_common(counts: Counter, n: int) -> list[list]:
    """The n most frequent [item, count] pairs, ties in item order."""
    return [[item, c] for item, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]]


def check_split_names(names) -> None:
    """BadParameter naming the first split name that appears more than once."""
    seen = set()
    for name in names:
        if name in seen:
            raise BadParameter(f"split name {name!r} appears more than once")
        seen.add(name)


def compute_stats(splits) -> dict:
    """Statistics over the union of all splits; no two share a name, qid or document."""
    check_split_names(split.name for split in splits)
    split_of: dict[str, str] = {}
    doc_split: dict[str, str] = {}
    for split in splits:
        for r in split.records:
            if split_of.setdefault(r.qid, split.name) != split.name:
                raise SchemaViolation(f"qid {r.qid!r} appears in splits "
                                      f"{split_of[r.qid]!r} and {split.name!r}")
            if doc_split.setdefault(r.doc_id, split.name) != split.name:
                raise SchemaViolation(f"document {r.doc_id!r} appears in splits "
                                      f"{doc_split[r.doc_id]!r} and {split.name!r}")
    all_records = [r for split in splits for r in split.records]
    qtype_counts = count_by_type(all_records)
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
        first_words = Counter(r.question.split()[0] for r in records if r.question.split())
        patterns = Counter(anonymized_pattern(r) for r in records)

        report["tasks"][task.value] = {
            "images": images,
            "questions": questions,
            "avg_questions_per_image": questions_per_image(questions, images),
            "avg_question_length": round(sum(lengths) / len(lengths), 2) if lengths else 0.0,
            "unique_question_pct": percentage(unique_once, questions),
            "qtype_counts": qtype_counts[task.value],
            "qtype_percentages": {qtype: percentage(n, questions)
                                  for qtype, n in qtype_counts[task.value].items()},
            "top_first_words": _most_common(first_words, TOP_FIRST_WORDS),
            "top_patterns": _most_common(patterns, TOP_PATTERNS),
        }
    return report
