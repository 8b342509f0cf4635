from __future__ import annotations

import gc
import json
import re
import tracemalloc
import warnings

import pytest

from synthcorpus import random_processed_document
from reference import record_to_json
from docqa_forge.dataset import (
    DatasetSplit,
    anonymized_pattern,
    atomic_write_lines,
    compute_stats,
    percentage,
    questions_per_image,
    read_dataset,
    read_records_jsonl,
    record_from_json,
    split_corpus,
    write_dataset,
    write_records_jsonl,
)
from docqa_forge.errors import BadRatios, IoFailure, SchemaViolation
from docqa_forge.generator import GenConfig, QARecord, generate_corpus
from docqa_forge.model import TaskId
from docqa_forge.programs import AnswerValue
from docqa_forge.templates import QuestionType


def rec(i, doc="d0", task=TaskId.A, answer=None):
    return QARecord(
        qid=f"q{i:05d}", task=task,
        qtype=QuestionType.EXISTENCE if task == TaskId.A else QuestionType.PARENT_RELATION,
        doc_id=doc, page_index=None if task == TaskId.C else 0,
        question=f"Is there any table on page {i}?",
        template_id="A01" if task == TaskId.A else "C06",
        binding={"E": "table", "pos": "top"} if task == TaskId.A else {"E": "Table 1"},
        answer=answer or AnswerValue.token("yes"),
    )


# --- splitting -----------------------------------------------------------------

def test_split_10_docs_8_1_1():
    records = [rec(i, doc=f"doc{i % 10}") for i in range(100)]
    train, valid, test = split_corpus(records, (0.8, 0.1, 0.1), seed=3)
    assert (len(train.doc_ids), len(valid.doc_ids), len(test.doc_ids)) == (8, 1, 1)
    assert len(train.records) + len(valid.records) + len(test.records) == 100


def test_split_partition_is_disjoint_and_total():
    records = [rec(i, doc=f"doc{i % 7}") for i in range(70)]
    splits = split_corpus(records, (0.5, 0.25, 0.25), seed=1)
    seen: set[str] = set()
    for split in splits:
        assert not (set(split.doc_ids) & seen)
        seen |= set(split.doc_ids)
    assert seen == {f"doc{i}" for i in range(7)}


def test_split_documents_never_straddle():
    records = [rec(i, doc=f"doc{i % 5}") for i in range(50)]
    for split in split_corpus(records, (0.6, 0.2, 0.2), seed=9):
        for record in split.records:
            assert record.doc_id in split.doc_ids


def test_split_determinism():
    records = [rec(i, doc=f"doc{i % 10}") for i in range(40)]
    a = split_corpus(records, (0.8, 0.1, 0.1), seed=5)
    b = split_corpus(records, (0.8, 0.1, 0.1), seed=5)
    assert all(x.doc_ids == y.doc_ids for x, y in zip(a, b))


@pytest.mark.parametrize("ratios", [(0.5, 0.5), (0.5, 0.3, 0.1), (0.8, 0.2, 0.0),
                                    (0.8, 0.3, -0.1), (0.5, float("nan"), 0.5),
                                    (0.5, float("inf"), 0.5)])
def test_bad_ratios_rejected(ratios):
    with pytest.raises(BadRatios):
        split_corpus([rec(0)], ratios, seed=1)


# --- serialization ----------------------------------------------------------------

def test_record_json_round_trip():
    for record in (rec(1),
                   rec(2, task=TaskId.C, answer=AnswerValue.index_set({4, 9})),
                   rec(3, answer=AnswerValue.token("0"))):
        assert record_from_json(record_to_json(record)) == record


def test_record_json_shape():
    data = record_to_json(rec(1))
    assert set(data) == {"qid", "task", "qtype", "doc_id", "page", "question",
                         "template_id", "bindings", "answer"}
    assert data["page"] == 0
    assert data["answer"] == {"kind": "token", "value": "yes"}


def test_dataset_round_trip(tmp_path):
    docs = [random_processed_document(s) for s in (500, 501)]
    result = generate_corpus(docs, GenConfig(seed=7))
    splits = split_corpus(result.records, (0.5, 0.25, 0.25), seed=2)
    write_dataset(splits, tmp_path)
    back = read_dataset(tmp_path)
    for ours, theirs in zip(splits, back):
        assert list(ours.records) == list(theirs.records)


def test_write_is_byte_stable(tmp_path):
    records = [rec(i) for i in range(30)]
    write_records_jsonl(records, tmp_path / "a.jsonl")
    write_records_jsonl(records, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_empty_split_round_trips(tmp_path):
    write_records_jsonl([], tmp_path / "train.jsonl")
    assert (tmp_path / "train.jsonl").read_text() == ""
    assert read_records_jsonl(tmp_path / "train.jsonl") == []


def test_truncated_file_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    payload = json.dumps(record_to_json(rec(1)))
    path.write_text(payload[: len(payload) // 2])
    with pytest.raises(SchemaViolation):
        read_records_jsonl(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(IoFailure):
        read_records_jsonl(tmp_path / "absent.jsonl")


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_failed_write_leaves_no_temp_file(tmp_path, existing):
    # the lines may be encoded while the file is open, so a source that raises
    # any error must not leave the temporary file, nor touch the target
    out = tmp_path / "o.txt"
    if existing:
        out.write_bytes(b"old\n")

    def lines():
        yield "first"
        raise SchemaViolation("bad record")
    with pytest.raises(SchemaViolation, match="^bad record$"):
        atomic_write_lines(out, lines())
    assert sorted(p.name for p in tmp_path.iterdir()) == (["o.txt"] if existing else [])
    if existing:
        assert out.read_bytes() == b"old\n"


def test_bad_answer_kind_raises():
    data = record_to_json(rec(1))
    data["answer"]["kind"] = "wibble"
    with pytest.raises(SchemaViolation):
        record_from_json(data)


def _record_line(i, **fields):
    data = record_to_json(rec(i))
    data.update(fields)
    return json.dumps(data)


def _record_file(tmp_path, lines):
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("joiner", ["", ",", " ", ", "])
def test_two_records_on_one_line_are_rejected(tmp_path, joiner):
    path = _record_file(tmp_path, [_record_line(0), _record_line(1) + joiner + _record_line(2)])
    with pytest.raises(SchemaViolation, match=f"^{re.escape(str(path))}:2: not valid JSON$"):
        read_records_jsonl(path)


def _halves(payload):
    """The record cut at the separator before "question": joined by "," the
    two halves are the record again, but neither is valid JSON alone."""
    cut = payload.index(', "question"')
    return payload[:cut], payload[cut + 2:]


def test_record_split_over_two_lines_is_rejected(tmp_path):
    path = _record_file(tmp_path, [_record_line(0), *_halves(_record_line(1))])
    with pytest.raises(SchemaViolation, match=f"^{re.escape(str(path))}:2: not valid JSON$"):
        read_records_jsonl(path)


def test_joined_records_then_split_record_are_rejected(tmp_path):
    # Joined to "[" + ",".join(lines) + "]" these lines would decode to
    # three records, one per line; each line must hold exactly one.
    path = _record_file(tmp_path, [_record_line(0) + "," + _record_line(1),
                                   *_halves(_record_line(2))])
    with pytest.raises(SchemaViolation, match=f"^{re.escape(str(path))}:1: not valid JSON$"):
        read_records_jsonl(path)


def test_overdeep_line_is_rejected(tmp_path):
    path = _record_file(tmp_path, [_record_line(0), "[" * 100_000 + "]" * 100_000])
    with pytest.raises(SchemaViolation, match=f"^{re.escape(str(path))}:2: not valid JSON$"):
        read_records_jsonl(path)


def test_blank_and_padded_lines(tmp_path):
    path = _record_file(tmp_path, ["", _record_line(0), "   ", "\t", " " + _record_line(1) + " ",
                                   "", _record_line(2)])
    assert read_records_jsonl(path) == [rec(0), rec(1), rec(2)]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("bad_line", [None, "{", _record_line(9, template_id="Z99")],
                         ids=["valid", "bad-json", "bad-record"])
def test_reader_restores_the_collector(tmp_path, enabled, bad_line):
    lines = [_record_line(0), _record_line(1)] + ([bad_line] if bad_line else [])
    path = _record_file(tmp_path, lines)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if bad_line is None:
            assert len(read_records_jsonl(path)) == 2
        else:
            with pytest.raises(SchemaViolation, match=f"^{re.escape(str(path))}:3: "):
                read_records_jsonl(path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_first_bad_line_in_file_order_wins(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(("\n".join([_record_line(0), "{", _record_line(1), _record_line(2)])
                      + "\n").encode().replace(b'"q00002"', b'"q\xe9"'))
    with pytest.raises(SchemaViolation, match=f"^{re.escape(str(path))}:2: not valid JSON$"):
        read_records_jsonl(path)


@pytest.mark.parametrize("bad_line", [b"{", _record_line(9, template_id="Z99").encode(),
                                      b'"caf\xe9"'],
                         ids=["bad-json", "bad-record", "bad-utf8"])
def test_a_read_that_stops_at_a_bad_line_closes_its_file(tmp_path, bad_line):
    path = tmp_path / "records.jsonl"
    path.write_bytes(_record_line(0).encode() + b"\n" + bad_line + b"\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SchemaViolation, match=f"^{re.escape(str(path))}:2: "):
            read_records_jsonl(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _task_c_line(i):
    """A Task C record whose index_set answer almost no other line shares."""
    data = record_to_json(rec(i, task=TaskId.C))
    data["answer"] = {"kind": "index_set", "value": sorted(set(divmod(i, 400)))}
    return json.dumps(data)


@pytest.mark.parametrize("line", [_record_line, _task_c_line], ids=["task-a", "task-c-sets"])
def test_reading_holds_little_more_than_the_records(tmp_path, line):
    # The file is read a line at a time: beyond the records it returns, the
    # read holds about one line, not copies of the whole file, and no table
    # that grows with the distinct values read. Each record has its own qid,
    # as a record file must.
    count = 6_000_000 // len(line(0)) + 1
    path = _record_file(tmp_path, [line(i) for i in range(count)])
    size = path.stat().st_size
    tracemalloc.start()
    try:
        records = read_records_jsonl(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size >= 6_000_000 and len(records) == count
    assert peak - held < size / 4


def test_records_of_one_read_share_their_repeated_strs(tmp_path):
    lines = [_record_line(i, doc_id=f"doc{i // 3}",
                          bindings={"E1": "table", "R": "top-left", "E2": "Results"},
                          template_id="A09", qtype="existence")
             for i in range(6)]
    first, *rest = records = read_records_jsonl(_record_file(tmp_path, lines))
    assert [r.doc_id for r in records] == ["doc0"] * 3 + ["doc1"] * 3
    for r in rest:
        assert r.template_id is first.template_id
        assert r.binding is not first.binding
        for name in ("E1", "R"):
            assert r.binding[name] is first.binding[name]
        assert r.binding["E2"] is not first.binding["E2"]  # document text is not shared
    assert records[1].doc_id is records[0].doc_id and records[4].doc_id is records[3].doc_id


@pytest.mark.parametrize("value", [["table"], {"k": "table"}, 3])
def test_binding_values_of_other_types_read_as_written(tmp_path, value):
    # the read checks a binding's names, not its values, so any JSON value
    # reaches the sharing of closed-vocabulary strs and must pass it unchanged
    path = _record_file(tmp_path, [_record_line(0, bindings={"E": value, "pos": "top"})])
    (record,) = read_records_jsonl(path)
    assert record.binding == {"E": value, "pos": "top"}
    assert type(record.binding["E"]) is type(value)


def _writer_cases():
    def make(qid, template_id, qtype, task, page, question, binding, answer):
        return QARecord(qid=qid, task=task, qtype=qtype, doc_id="d\u00e9j\u00e0-1",
                        page_index=page, question=question, template_id=template_id,
                        binding=binding, answer=answer)
    return [
        make("q1", "A01", QuestionType.EXISTENCE, TaskId.A, 0,
             "Is there any table on the top of this page?", {"E": "table", "pos": "top"},
             AnswerValue.token("no")),
        make("q2", "A28", QuestionType.COUNTING, TaskId.A, 3,
             "Can you find 2 table(s) on the page?", {"num": 2, "E": "table"},
             AnswerValue.token("yes")),
        make("q3", "B01", QuestionType.STRUCTURAL_UNDERSTANDING, TaskId.B, 1,
             "What is the first section in this page?", {"turn": "first"},
             AnswerValue.index(24)),
        make("q4", "B01", QuestionType.STRUCTURAL_UNDERSTANDING, TaskId.B, 1,
             "What is the last section in this page?", {"turn": "last"}, AnswerValue.na()),
        make("q5", "C11", QuestionType.PARENT_RELATION, TaskId.C, None,
             "Which section does include the M\u00fcller \u201cet al\u201d, 2019 \u2014 \u6587?",
             {"E": "M\u00fcller \u201cet al\u201d, 2019 \u2014 \u6587"},
             AnswerValue.index_set([130, 2, 7])),
        make("q6", "C11", QuestionType.PARENT_RELATION, TaskId.C, None,
             "Which section does include the \"quoted\\path\"\n\u2028?",
             {"E": "\"quoted\\path\"\n\u2028"},
             AnswerValue.na()),
        make("q7", "C11", QuestionType.PARENT_RELATION, TaskId.C, None,
             "Which section does include the Results?", {"E": "Results"},
             AnswerValue.index_set([0])),
    ]


def test_writer_bytes_equal_json_dumps(tmp_path):
    records = _writer_cases()
    path = tmp_path / "w.jsonl"
    write_records_jsonl(records, path)
    expected = "".join(json.dumps(record_to_json(r), ensure_ascii=True) + "\n" for r in records)
    assert path.read_bytes() == expected.encode("ascii")
    assert read_records_jsonl(path) == records


# --- statistics --------------------------------------------------------------------

def test_paper_density_arithmetic():
    assert questions_per_image(81085, 12337) == 6.57
    assert questions_per_image(53872, 12337) == 4.37
    assert questions_per_image(5653, 1147) == 4.93


def test_paper_percentage_arithmetic():
    assert percentage(14387, 81085) == 17.74
    assert percentage(4506, 5653) == 79.71


def test_average_question_length_whitespace_tokens():
    split = DatasetSplit("train", (QARecord(
        qid="q1", task=TaskId.A, qtype=QuestionType.COUNTING, doc_id="d",
        page_index=0, question="How many tables in this page?",
        template_id="A33", binding={"E": "table"},
        answer=AnswerValue.token("2")),), ("d",))
    stats = compute_stats([split])
    assert stats["tasks"]["A"]["avg_question_length"] == 6.0


def test_qtype_percentages_sum_to_100():
    docs = [random_processed_document(s) for s in (510, 511)]
    result = generate_corpus(docs, GenConfig(seed=7))
    splits = split_corpus(result.records, (0.7, 0.2, 0.1), seed=2)
    stats = compute_stats(splits)
    for task_stats in stats["tasks"].values():
        if task_stats["questions"]:
            assert sum(task_stats["qtype_percentages"].values()) == pytest.approx(100, abs=0.01)


def test_stats_consistency_across_splits():
    docs = [random_processed_document(s) for s in (520, 521, 522)]
    result = generate_corpus(docs, GenConfig(seed=7))
    splits = split_corpus(result.records, (0.5, 0.3, 0.2), seed=2)
    stats = compute_stats(splits)
    total = sum(s["questions"] for s in stats["splits"].values())
    assert total == len(result.records)
    assert total == sum(t["questions"] for t in stats["tasks"].values())


def test_anonymized_pattern_masks_anchors():
    record = QARecord(
        qid="q", task=TaskId.A, qtype=QuestionType.COUNTING, doc_id="d",
        page_index=0, question="How many tables are above the 'Discussion'?",
        template_id="A23", binding={"E1": "table", "R": "top", "E2": "Discussion"},
        answer=AnswerValue.token("1"))
    assert anonymized_pattern(record) == "How many tables are above the 'X'?"
