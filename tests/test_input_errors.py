"""Bad input bytes, bad gold answers, bad parent links and unwritable output
paths end as a ForgeError that names the file, with exit 1, never as a Python
exception."""

from __future__ import annotations

import json

import pytest

from conftest import stack_annotation
from docqa_forge.cli import main


def run(argv, capsys):
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    return err


def _record(i, task="A", **fields):
    data = {
        "A": {"qtype": "existence", "page": 0, "template_id": "A01",
              "question": "Is there any table on the top of this page?",
              "bindings": {"E": "table", "pos": "top"},
              "answer": {"kind": "token", "value": "yes"}},
        "B": {"qtype": "structural_understanding", "page": 0, "template_id": "B01",
              "question": "What is the first section in this page?",
              "bindings": {"turn": "first"}, "answer": {"kind": "index", "value": 0}},
        "C": {"qtype": "child_relation", "page": None, "template_id": "C01",
              "question": "What does the 'Intro' include?", "bindings": {"E": "Intro"},
              "answer": {"kind": "index_set", "value": [1, 2]}},
    }[task]
    data.update(qid=f"q{i}", task=task, doc_id=f"d{i % 2}")
    data.update(fields)
    return json.dumps(data)


# --- bytes that are not UTF-8 JSON ------------------------------------------------

@pytest.mark.parametrize("command", ["balance", "eval"])
def test_non_utf8_record_file_is_named_with_its_line(tmp_path, capsys, command):
    bom, bad = tmp_path / "bom.jsonl", tmp_path / "bad.jsonl"
    bom.write_bytes(b"\xff\xfe" + _record(1).encode() + b"\n")
    bad.write_bytes((_record(1) + "\n" + _record(2) + "\n" + _record(3, doc_id="LATIN")
                     + "\n").encode().replace(b"LATIN", b"caf\xe9"))
    for path, lineno in ((bom, 1), (bad, 3)):
        argv = (["balance", "--in", path, "--out", tmp_path / "b.jsonl", "--seed", 1]
                if command == "balance" else ["eval", "--gold", path, "--pred", path])
        err = run(argv, capsys)
        assert f"error: SchemaViolation: {path}:{lineno}: not valid UTF-8" in err


def _annotation_bytes(doc_id: bytes) -> bytes:
    text = json.dumps(stack_annotation("DOCID", [[("title", "Intro"), ("text", "x")]]))
    return text.encode().replace(b"DOCID", doc_id)


@pytest.mark.parametrize("command", ["generate", "ingest"])
@pytest.mark.parametrize("single_file", [False, True])
def test_undecodable_annotation_is_named(tmp_path, capsys, command, single_file):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ok.json").write_bytes(_annotation_bytes(b"ok"))
    for name, raw in (("latin.json", _annotation_bytes(b"caf\xff")),
                      ("deep.json", b"[" * 200_000)):
        bad = corpus / name
        bad.write_bytes(raw)
        source = bad if single_file else corpus
        err = run([command, "--in", source, "--out", tmp_path / "out.json", "--seed", 1]
                  if command == "generate" else
                  [command, "--in", source, "--out", tmp_path / "out.json"], capsys)
        assert "error: MalformedInput: " in err and f"{bad}: not valid JSON" in err
        bad.unlink()


def test_oversized_integer_in_record_file_is_named(tmp_path, capsys):
    records = tmp_path / "big.jsonl"
    huge = _record(2).replace('"page": 0', '"page": ' + "9" * 5000)
    records.write_text(_record(1) + "\n" + huge + "\n")
    err = run(["stats", "--in", records], capsys)
    assert f"error: SchemaViolation: {records}:2: not valid JSON" in err


# --- gold answers outside the task's answer space ---------------------------------

@pytest.mark.parametrize("task, answer", [
    ("A", {"kind": "token", "value": "maybe"}),
    ("A", {"kind": "index", "value": 3}),
    ("A", {"kind": "na", "value": None}),
    ("B", {"kind": "index", "value": 99}),
    ("B", {"kind": "index", "value": -1}),
    ("B", {"kind": "token", "value": "yes"}),
    ("C", {"kind": "index_set", "value": [-5, 4000]}),
    ("C", {"kind": "index_set", "value": [3, 400]}),
])
def test_gold_answer_outside_its_answer_space_is_named(tmp_path, capsys, task, answer):
    records = tmp_path / "gold.jsonl"
    lines = [_record(1, task), _record(2, task, answer=answer), _record(3, task)]
    records.write_text("\n".join(lines) + "\n")
    err = run(["balance", "--in", records, "--out", tmp_path / "b.jsonl", "--seed", 1],
              capsys)
    assert f"error: SchemaViolation: {records}:2: answer " in err
    assert f"outside the Task {task} answer space (qid q2)" in err


def test_answers_at_the_edges_of_the_answer_spaces_are_read(tmp_path):
    records = tmp_path / "gold.jsonl"
    lines = [_record(1, "A", answer={"kind": "token", "value": "5"}),
             _record(2, "B", answer={"kind": "index", "value": 24}),
             _record(3, "B", answer={"kind": "na", "value": None}),
             _record(4, "C", answer={"kind": "index_set", "value": [0, 399]}),
             _record(5, "C", answer={"kind": "na", "value": None})]
    records.write_text("\n".join(lines) + "\n")
    assert main(["balance", "--in", str(records), "--out", str(tmp_path / "b.jsonl"),
                 "--seed", "1"]) == 0


# --- explicit parent links --------------------------------------------------------

def _with_parent(doc_id, parent_of):
    annotation = stack_annotation(doc_id, [[("title", "Intro"), ("text", "a"), ("text", "b")]])
    for el in annotation["pages"][0]["elements"]:
        el["parent_id"] = parent_of.get(el["id"])
    return annotation


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("parent_of, error, named", [
    ({"e1": "zz"}, "DanglingParent", "'e1' references unknown parent 'zz'"),
    ({"e0": "e2", "e1": "e0", "e2": "e1"}, "CyclicParentInput", "forms a cycle"),
])
def test_bad_parent_link_names_file_and_document(tmp_path, capsys, workers,
                                                 parent_of, error, named):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bad = corpus / "dangle.json"
    bad.write_text(json.dumps(_with_parent("bad-doc", parent_of)))
    (corpus / "ok.json").write_text(json.dumps(_with_parent("ok-doc", {"e1": "e0"})))
    err = run(["generate", "--in", corpus, "--out", tmp_path / "r.jsonl", "--seed", 1,
               "--workers", workers], capsys)
    assert f"error: {error}: {bad}: document 'bad-doc': " in err and named in err


def test_bad_parent_link_is_reported_before_a_later_file_is_read(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_text(json.dumps(_with_parent("a-doc", {"e1": "zz"})))
    (corpus / "b.json").write_text("{not json")
    err = run(["generate", "--in", corpus, "--out", tmp_path / "r.jsonl", "--seed", 1], capsys)
    assert f"error: DanglingParent: {corpus / 'a.json'}: document 'a-doc': " in err


# --- output paths under a regular file --------------------------------------------

@pytest.mark.parametrize("command", ["generate", "split", "ingest", "templates"])
def test_output_path_under_a_regular_file_is_io_failure(tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("")
    corpus = tmp_path / "doc.json"
    corpus.write_text(json.dumps(stack_annotation("d", [[("title", "Intro"), ("text", "x")]])))
    records = tmp_path / "r.jsonl"
    records.write_text(_record(1) + "\n")
    argv, out = {
        "generate": (["generate", "--in", corpus, "--out", afile / "raw.jsonl", "--seed", 1],
                     afile / "raw.jsonl"),
        "split": (["split", "--in", records, "--out-dir", afile, "--ratios", "0.5,0.25,0.25",
                   "--seed", 1], afile / "train.jsonl"),
        "ingest": (["ingest", "--in", corpus, "--out", afile / "x.json"], afile / "x.json"),
        "templates": (["templates", "dump", "--out", afile / "t.json"], afile / "t.json"),
    }[command]
    err = run(argv, capsys)
    assert f"error: IoFailure: cannot write {out}: " in err
