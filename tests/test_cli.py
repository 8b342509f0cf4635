from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

import docqa_forge
from conftest import stack_annotation
from synthcorpus import random_annotation, random_processed_document
from docqa_forge.balance import BalanceConfig
from docqa_forge.cli import load_corpus, main
from docqa_forge.dataset import check_ratios
from docqa_forge.errors import BadParameter, ForgeError
from docqa_forge.generator import GenConfig, resolve_workers
from docqa_forge.ingest import document_to_processed


@pytest.fixture
def corpus_dir(tmp_path, p1_annotation):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "p1.json").write_text(json.dumps(p1_annotation))
    hier = stack_annotation("hier-doc", [[
        ("title", "1. Background"),
        ("text", "Cites Wang C et al,2017 and mentions Table 1."),
        ("title", "1.1 Prior work"),
        ("text", "More Table 1 discussion."),
        ("table", ""),
        ("text", "Table 1 caption text."),
    ]], references=["Wang C et al,2017"])
    (corpus / "hier.json").write_text(json.dumps(hier))
    (corpus / "synth.json").write_text(json.dumps(random_annotation(900)))
    return corpus


def test_full_pipeline_through_cli(tmp_path, corpus_dir, capsys):
    raw = tmp_path / "raw.jsonl"
    balanced = tmp_path / "balanced.jsonl"
    split_dir = tmp_path / "splits"

    assert main(["generate", "--in", str(corpus_dir), "--out", str(raw),
                 "--seed", "7"]) == 0
    manifest = json.loads((tmp_path / "raw.jsonl.manifest.json").read_text())
    assert set(manifest) == {"records", "excluded", "counts", "seed", "config_hash"}
    assert manifest["seed"] == 7
    assert raw.exists() and raw.stat().st_size > 0

    assert main(["balance", "--in", str(raw), "--out", str(balanced),
                 "--seed", "7", "--report", str(tmp_path / "balance.json")]) == 0
    report = json.loads((tmp_path / "balance.json").read_text())
    assert report["tasks"]["A"]["after"] <= report["tasks"]["A"]["before"]

    assert main(["split", "--in", str(balanced), "--out-dir", str(split_dir),
                 "--ratios", "0.5,0.25,0.25", "--seed", "7"]) == 0
    for name in ("train", "valid", "test"):
        assert (split_dir / f"{name}.jsonl").exists()

    assert main(["stats", "--in", str(split_dir),
                 "--out", str(tmp_path / "stats.json")]) == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert "tasks" in stats and "A" in stats["tasks"]

    # self-evaluation: predictions equal to gold must score 100
    gold = split_dir / "test.jsonl"
    preds = tmp_path / "preds.jsonl"
    lines = []
    for line in gold.read_text().splitlines():
        record = json.loads(line)
        lines.append(json.dumps({"qid": record["qid"], "answer": record["answer"]}))
    preds.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--gold", str(gold), "--pred", str(preds),
                 "--strict", "--out", str(tmp_path / "eval.json")]) == 0
    out = capsys.readouterr().out
    assert "Existence" in out and "100.0" in out


def test_ingest_then_generate_from_processed(tmp_path, corpus_dir):
    processed = tmp_path / "corpus.json"
    assert main(["ingest", "--in", str(corpus_dir), "--out", str(processed)]) == 0
    text = processed.read_text()
    payload = json.loads(text)
    assert len(payload["documents"]) == 3
    assert text == ('{"documents": [\n'
                    + ",\n".join(json.dumps(d, sort_keys=True) for d in payload["documents"])
                    + "\n]}\n")
    indented = tmp_path / "indented.json"  # the layout ingest wrote before
    indented.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert load_corpus(indented) == load_corpus(processed)

    raw = []
    for i, source in enumerate((corpus_dir, processed, indented)):
        out = tmp_path / f"raw{i}.jsonl"
        assert main(["generate", "--in", str(source), "--out", str(out), "--seed", "3"]) == 0
        raw.append(out.read_bytes())
    assert raw[0] == raw[1] == raw[2]


@pytest.mark.parametrize("count", [0, 1, 4])
def test_ingest_bytes_equal_json_dumps_of_the_payload(tmp_path, count):
    # ingest encodes each document on its own, one a line
    documents = [document_to_processed(random_processed_document(seed))
                 for seed in range(count)]
    source, out = tmp_path / "in.json", tmp_path / "out.json"
    source.write_text(json.dumps({"documents": documents}, indent=1))
    assert main(["ingest", "--in", str(source), "--out", str(out)]) == 0
    assert out.read_text() == _ingest_text({"documents": documents})


def test_ingest_encodes_each_document_as_one_json_dumps(tmp_path):
    # ingest encodes a document page by page; its line must still be one json.dumps
    blank = {"doc_id": "blank", "references": [], "pages": [], "mention_index": {}}
    unmentioned = document_to_processed(random_processed_document(3, n_pages=2))
    unmentioned["mention_index"] = {}
    accented = document_to_processed(random_processed_document(4, n_pages=2))
    element = accented["pages"][1]["elements"][0]
    accented["doc_id"] = "dokument-ü"
    element["text"] = "Größe — ✓ 😀"
    accented["mention_index"]["Übersicht 1 ✓"] = [element["id"]]
    accented["references"].append("Müller et al, 2020")
    source, out = tmp_path / "in.json", tmp_path / "out.json"
    source.write_text(json.dumps({"documents": [blank, unmentioned, accented]}))
    assert main(["ingest", "--in", str(source), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines[1:4] == [json.dumps(document_to_processed(doc), sort_keys=True) + sep
                          for doc, sep in zip(load_corpus(source), (",", ",", ""))]
    assert lines[1].startswith('{"doc_id": "blank", "mention_index": {}, "pages": [], ')


@pytest.mark.parametrize("size, value", [("width", "Infinity"), ("height", "1e400"),
                                         ("width", "1" + "0" * 400)],
                         ids=["infinity", "float-overflow", "int-overflow"])
def test_ingest_rejects_a_page_size_that_is_not_finite(tmp_path, capsys, size, value):
    # json.loads reads these as inf or as an int float() cannot hold
    page = {"index": 0, "width": 612, "height": 792, "elements": []}
    text = json.dumps({"doc_id": "wide", "pages": [page]}).replace(
        f'"{size}": {page[size]}', f'"{size}": {value}')
    source, out = tmp_path / "wide.json", tmp_path / "out.json"
    source.write_text(text)
    assert main(["ingest", "--in", str(source), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: MalformedInput: {source}: page 0: "
                   "width/height must be positive finite numbers\n")
    assert not out.exists()


def test_failed_ingest_leaves_no_directory_it_created(tmp_path, corpus_dir, capsys):
    # ingest from a directory opens its output before it reads the files
    (corpus_dir / "zz-bad.json").write_text("{")
    (tmp_path / "kept").mkdir()
    for out in (tmp_path / "newdir" / "sub" / "p.json", tmp_path / "kept" / "new" / "p.json"):
        assert main(["ingest", "--in", str(corpus_dir), "--out", str(out)]) == 1
        assert "zz-bad.json" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "kept"]
    assert list((tmp_path / "kept").iterdir()) == []


@pytest.mark.parametrize("command", ["ingest", "generate"])
def test_an_output_ancestor_that_cannot_be_probed_is_an_io_failure(
        tmp_path, corpus_dir, capsys, monkeypatch, command):
    # stat on a path under a directory the user cannot traverse raises
    # PermissionError; as root, chmod cannot show it, so Path.exists stands in
    locked = tmp_path / "locked" / "sub"
    exists = Path.exists

    def probe(path, *args, **kwargs):
        if path == locked:
            raise PermissionError(13, "Permission denied", str(path))
        return exists(path, *args, **kwargs)
    monkeypatch.setattr(Path, "exists", probe)
    argv = [command, "--in", str(corpus_dir), "--out", str(locked / "out.json")]
    assert main(argv + (["--seed", "1"] if command == "generate" else [])) == 1
    err = capsys.readouterr().err
    assert "IoFailure" in err and "cannot write" in err and "Permission denied" in err


def test_generate_trace_output(tmp_path, corpus_dir):
    raw = tmp_path / "raw.jsonl"
    trace = tmp_path / "trace.jsonl"
    assert main(["generate", "--in", str(corpus_dir), "--out", str(raw),
                 "--seed", "7", "--tasks", "C", "--trace", str(trace)]) == 0
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert lines
    assert {"qid", "trace"} == set(lines[0])
    assert {"step", "function", "output_kind", "output_size"} == set(lines[0]["trace"][0])


def test_split_with_two_ratios_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["split", "--in", "x.jsonl", "--out-dir", str(tmp_path),
              "--ratios", "0.5,0.5", "--seed", "1"])
    assert exc.value.code == 2


def test_missing_prediction_file_exits_1(tmp_path, corpus_dir):
    raw = tmp_path / "raw.jsonl"
    main(["generate", "--in", str(corpus_dir), "--out", str(raw), "--seed", "7"])
    assert main(["eval", "--gold", str(raw), "--pred", str(tmp_path / "nope.jsonl")]) == 1


def test_inspect_text_and_json(tmp_path, corpus_dir, capsys):
    assert main(["inspect", "--in", str(corpus_dir), "--doc", "p1-doc",
                 "--page", "0"]) == 0
    out = capsys.readouterr().out
    assert "5 elements" in out
    assert "table_caption" in out

    assert main(["inspect", "--in", str(corpus_dir), "--doc", "p1-doc",
                 "--page", "0", "--format", "json"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert "spatial_edges" in dump and "parent_of" in dump


def test_inspect_unknown_doc_exits_1(corpus_dir):
    assert main(["inspect", "--in", str(corpus_dir), "--doc", "ghost"]) == 1


def test_templates_dump(tmp_path, capsys):
    assert main(["templates", "dump"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 66
    assert rows == sorted(rows, key=lambda r: r["template_id"])

    out = tmp_path / "templates.json"
    assert main(["templates", "dump", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == rows


def test_no_temp_files_left_behind(tmp_path, corpus_dir):
    raw = tmp_path / "raw.jsonl"
    main(["generate", "--in", str(corpus_dir), "--out", str(raw), "--seed", "7"])
    leftovers = [p for p in tmp_path.rglob("*.tmp")]
    assert leftovers == []


def test_generate_requires_seed(tmp_path, corpus_dir):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--in", str(corpus_dir), "--out", str(tmp_path / "r.jsonl")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, threads", [
    ("generate --in c --out r.jsonl --seed 1 --template-cap -1", None),
    ("generate --in c --out r.jsonl --seed 1 --na-rate 2", None),
    ("generate --in c --out r.jsonl --seed 1 --workers -3", None),
    ("generate --in c --out r.jsonl --seed 1", "abc"),
    ("balance --in r.jsonl --out b.jsonl --seed 1 --answer-ratio 0.5", None),
    ("balance --in r.jsonl --out b.jsonl --seed 1 --param-ratio nan", None),
    ("split --in b.jsonl --out-dir s --seed 1 --ratios 0.5,0.5,nan", None),
])
def test_bad_numeric_flag_is_usage_error(tmp_path, monkeypatch, argv, threads):
    monkeypatch.chdir(tmp_path)
    if threads is None:
        monkeypatch.delenv("FORGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("FORGE_THREADS", threads)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2


_GENERATE = "generate --in c --out r.jsonl --seed 1"
_BALANCE = "balance --in r.jsonl --out b.jsonl --seed 1"


@pytest.mark.parametrize("argv, threads, library_call", [
    *[(f"{_GENERATE} --na-rate {v}", None, partial(GenConfig, 1, na_retention=float(v)))
      for v in ("1.5", "nan", "inf")],
    (f"{_GENERATE} --template-cap -1", None, partial(GenConfig, 1, per_template_cap=-1)),
    (f"{_GENERATE} --workers -3", None, partial(resolve_workers, -3)),
    (_GENERATE, "-2", resolve_workers),
    (f"{_GENERATE} --tasks ''", None, partial(GenConfig, 1, tasks=())),
    (f"{_GENERATE} --tasks A,D", None, partial(GenConfig, 1, tasks=("A", "D"))),
    *[(f"{_BALANCE} --{flag.replace('_', '-')} {v}", None,
       partial(BalanceConfig, 1, **{flag: float(v)}))
      for flag in ("answer_ratio", "param_ratio") for v in ("0.5", "nan", "inf")],
    *[(f"split --in b.jsonl --out-dir s --seed 1 --ratios {v}", None,
       partial(check_ratios, tuple(float(r) for r in v.split(","))))
      for v in ("0.5,0.5", "0.6,0.6,0.1", "0.5,0.5,nan", "0.5,0.5,inf")],
])
def test_bad_parameter_flag_reports_the_library_message(tmp_path, monkeypatch, capsys,
                                                         argv, threads, library_call):
    monkeypatch.chdir(tmp_path)  # holds no input: each run must stop before reading any
    if threads is None:
        monkeypatch.delenv("FORGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("FORGE_THREADS", threads)
    with pytest.raises(BadParameter) as expected:
        library_call()
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"error: {expected.value}\n" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, code", [
    (["templates", "dump", "--out", "t.json"], 0),
    (["stats", "--in", "missing.jsonl"], 1),
    (["generate", "--in", "c", "--out", "r.jsonl", "--seed", "1", "--na-rate", "2"], 2),
])
def test_module_entry_point_exit_codes(tmp_path, argv, code):
    src = str(Path(docqa_forge.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "docqa_forge", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_unreadable_corpus_entry_is_io_failure(tmp_path, corpus_dir, capsys):
    (corpus_dir / "bad.json").mkdir()
    code = main(["generate", "--in", str(corpus_dir), "--out", str(tmp_path / "r.jsonl"),
                 "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "IoFailure" in err and "bad.json" in err


def test_invalid_corpus_file_is_named_in_the_error(tmp_path, corpus_dir, capsys):
    flat = stack_annotation("flat", [[("text", "x", [10.0, 10.0, 10.0, 20.0])]])
    (corpus_dir / "flat.json").write_text(json.dumps(flat))
    code = main(["generate", "--in", str(corpus_dir), "--out", str(tmp_path / "r.jsonl"),
                 "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "InvalidBBox" in err and "flat.json" in err


def test_empty_reference_is_named_in_the_error(tmp_path, corpus_dir, capsys):
    blank = stack_annotation("blank-ref", [[("title", "Intro"), ("text", "x")]],
                             references=[""])
    (corpus_dir / "blank.json").write_text(json.dumps(blank))
    code = main(["generate", "--in", str(corpus_dir), "--out", str(tmp_path / "r.jsonl"),
                 "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "MalformedInput" in err and "blank.json" in err and "'blank-ref'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("processed", [False, True])
def test_duplicate_doc_id_is_rejected(tmp_path, corpus_dir, capsys, processed):
    (corpus_dir / "p1_copy.json").write_text((corpus_dir / "p1.json").read_text())
    source = corpus_dir
    if processed:
        source = tmp_path / "corpus.json"
        assert main(["ingest", "--in", str(corpus_dir / "p1.json"), "--out", str(source)]) == 0
        payload = json.loads(source.read_text())
        payload["documents"] *= 2
        source.write_text(json.dumps(payload))
    code = main(["generate", "--in", str(source), "--out", str(tmp_path / "r.jsonl"),
                 "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "DuplicateId" in err and "'p1-doc'" in err and "Traceback" not in err
    named = ["corpus.json"] if processed else ["p1.json", "p1_copy.json"]
    assert all(name in err for name in named)


def _no_documents(payload):
    payload["documents"] = 5


def _listed_mentions(payload):
    payload["documents"][0]["mention_index"] = []


def _unknown_mention(payload):
    payload["documents"][0]["mention_index"]["Table 1"] = ["ghost"]


def _string_reading_index(payload):
    payload["documents"][0]["pages"][0]["elements"][0]["page_reading_index"] = "0"


def _missing_reading_indices(payload):
    for el in payload["documents"][0]["pages"][0]["elements"]:
        del el["page_reading_index"], el["doc_reading_index"]


@pytest.mark.parametrize("corrupt, named", [
    (_no_documents, "documents must be a list"),
    (_listed_mentions, "'p1-doc'"),
    (_unknown_mention, "'ghost'"),
    (_string_reading_index, "'e1'"),
    (_missing_reading_indices, "'e1'"),
])
def test_malformed_processed_corpus_is_named_in_the_error(tmp_path, corpus_dir, capsys,
                                                          corrupt, named):
    processed = tmp_path / "corpus.json"
    assert main(["ingest", "--in", str(corpus_dir / "p1.json"), "--out", str(processed)]) == 0
    payload = json.loads(processed.read_text())
    corrupt(payload)
    processed.write_text(json.dumps(payload))
    code = main(["generate", "--in", str(processed), "--out", str(tmp_path / "r.jsonl"),
                 "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "MalformedInput" in err and "corpus.json" in err and named in err
    assert "Traceback" not in err


def _true_reading_index(doc):
    doc["pages"][0]["elements"][0]["page_reading_index"] = True


def _doc_reading_index_repeated_on_a_later_page(doc):
    doc["pages"][1]["elements"][0]["doc_reading_index"] = 0


@pytest.mark.parametrize("corrupt, message", [
    (_true_reading_index, "document 'synt00900': element 's0x0': page_reading_index "
                          "must be 0 (pages store their elements in reading order), got True"),
    (_doc_reading_index_repeated_on_a_later_page,
     "document 'synt00900': element 's1x6': doc_reading_index "
     "must be 6 (pages store their elements in reading order), got 0"),
])
def test_bad_reading_index_message(tmp_path, corpus_dir, capsys, corrupt, message):
    processed = tmp_path / "corpus.json"
    assert main(["ingest", "--in", str(corpus_dir / "synth.json"), "--out", str(processed)]) == 0
    payload = json.loads(processed.read_text())
    corrupt(payload["documents"][0])
    processed.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["generate", "--in", str(processed), "--out", str(tmp_path / "r.jsonl"),
                 "--seed", "1"])
    assert code == 1
    assert capsys.readouterr().err == f"error: MalformedInput: {processed}: {message}\n"


def _processed_payload(count, **kwargs):
    return {"documents": [document_to_processed(random_processed_document(seed, **kwargs))
                          for seed in range(count)]}


def _ingest_text(payload, sort_keys=True):
    """The layout ingest writes: a head line, one document a line, each but the last
    ending in ",", then "]}"."""
    lines = [json.dumps(doc, sort_keys=sort_keys) + "," for doc in payload["documents"]]
    if lines:
        lines[-1] = lines[-1][:-1]
    return "\n".join(['{"documents": [', *lines, "]}"]) + "\n"


def _with_lone_surrogate(payload):
    element = payload["documents"][1]["pages"][0]["elements"][0]
    element["text"] += "\ud800"
    return _ingest_text(payload)


def _first_document_unordered(payload):
    payload["documents"][0]["pages"][0]["elements"][0]["page_reading_index"] = 7
    return _ingest_text(payload)


def _last_document_unordered(payload):
    payload["documents"][-1]["pages"][0]["elements"][0]["page_reading_index"] = 7
    return _ingest_text(payload)


def _repeated_documents_key(payload):
    # json keeps the last value of a repeated key, so the first list is never read
    first = {"documents": [{"doc_id": "ignored"}]}
    return _ingest_text(first)[:-2] + ", " + json.dumps(payload)[1:]


def _second_key_after(payload):
    return _ingest_text(payload)[:-3] + '], "note": "x"}\n'


def _first_line_break(old, new):
    return lambda payload: _ingest_text(payload).replace(old, new, 1)


def _cut_after(marker, text, last=False):
    # the C scanner lets StopIteration out where a value is missing after ": " or ", "
    at = text.rindex(marker) if last else text.index(marker, len('{"documents": ['))
    return text[:at + len(marker)]


# (name, document count, payload -> file text or bytes, read one document at a time)
_LAYOUTS = [
    ("empty", 0, _ingest_text, True),
    ("one", 1, _ingest_text, True),
    ("four", 4, _ingest_text, True),
    ("unsorted-keys", 4, partial(_ingest_text, sort_keys=False), True),
    ("trailing-space", 4, lambda p: _ingest_text(p) + "  \n\n\t\r\n", True),
    ("one-line", 4, lambda p: json.dumps(p, sort_keys=True) + "\n", False),
    ("crlf", 4, _first_line_break(",\n", ",\r\n"), False),
    ("crlf-head", 4, _first_line_break("[\n", "[\r\n"), False),
    ("blank-line", 4, _first_line_break(",\n", ",\n\n"), False),
    ("two-documents-on-a-line", 4, _first_line_break(",\n", ", "), False),
    ("document-over-two-lines", 4, _first_line_break('", ', '",\n'), False),
    ("no-end-line", 4, lambda p: _ingest_text(p)[:-4] + "]}\n", False),
    ("data-after-end", 4, lambda p: _ingest_text(p) + "[]\n", False),
    ("end-line-twice", 4, lambda p: _ingest_text(p) + "]}\n", False),
    ("lone-surrogate", 4, _with_lone_surrogate, True),
    ("bad-first-document", 4, _first_document_unordered, True),
    ("bad-last-document", 4, _last_document_unordered, True),
    ("bad-first-document-cut-tail", 4, lambda p: _first_document_unordered(p)[:-9], False),
    ("bad-first-document-cut-after-colon", 4,
     lambda p: _cut_after('": ', _first_document_unordered(p), last=True), False),
    ("cut-after-colon", 4, lambda p: _cut_after('": ', _ingest_text(p)), False),
    ("cut-after-comma", 4, lambda p: _cut_after('", ', _ingest_text(p)), False),
    ("cut-after-list-comma", 4, lambda p: _cut_after("[0.06, ", _ingest_text(p)), False),
    ("missing-value", 4, lambda p: _ingest_text(p).replace('"synt00000"', "", 1), False),
    ("no-separator-space", 4, lambda p: json.dumps(p, separators=(",", ": ")), False),
    ("indented", 4, lambda p: json.dumps(p, indent=2), False),
    ("second-key-after", 4, _second_key_after, False),
    ("second-key-before", 4, lambda p: json.dumps({"note": "x", **p}), False),
    ("repeated-documents-key", 4, _repeated_documents_key, False),
    ("utf16-bom", 4, lambda p: json.dumps(p).encode("utf-16"), False),
    ("utf8-encoded-surrogate", 4,
     lambda p: _with_lone_surrogate(p).replace("\\ud800", "\ud800").encode(
         "utf-8", "surrogatepass"), False),
]


@pytest.mark.parametrize("count, text, streamed", [case[1:] for case in _LAYOUTS],
                         ids=[case[0] for case in _LAYOUTS])
def test_processed_layouts_load_as_the_whole_file_decodes(tmp_path, monkeypatch,
                                                         count, text, streamed):
    # ingest's layout is read a document at a time; any file must still load
    # to the documents, or end in the error, that one decode of it gives
    path = tmp_path / "corpus.json"
    data = text(_processed_payload(count, n_pages=2))
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    taken = []
    read_layout = docqa_forge.cli._ingest_layout_documents

    def spy(path):
        taken.append(True)  # and it stays True if the layout's reader raises
        documents = read_layout(path)
        taken[-1] = documents is not None
        return documents
    outcomes = []
    for whole in (False, True):
        monkeypatch.setattr("docqa_forge.cli._ingest_layout_documents",
                            (lambda path: None) if whole else spy)
        try:
            outcomes.append(load_corpus(path))
        except ForgeError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    assert any(taken) is streamed
    if not isinstance(outcomes[0], tuple):
        assert len(outcomes[0]) == count


@pytest.mark.parametrize("layout", [_repeated_documents_key, _second_key_after])
def test_a_file_leaving_the_layout_at_its_tail_is_decoded_once(tmp_path, monkeypatch, layout):
    # the tail is checked before any document is built, so none is built twice
    path = tmp_path / "corpus.json"
    path.write_text(layout(_processed_payload(4, n_pages=2)))
    calls = []
    build = docqa_forge.cli.document_from_processed
    monkeypatch.setattr("docqa_forge.cli.document_from_processed",
                        lambda data: calls.append(data["doc_id"]) or build(data))
    assert len(load_corpus(path)) == 4
    assert calls == [f"synt{seed:05d}" for seed in range(4)]


@pytest.mark.parametrize("cut", [lambda text: text[:-9],
                                 lambda text: _cut_after('": ', text, last=True),
                                 lambda text: text.replace('"synt00001"', "", 1)],
                         ids=["tail", "after-colon", "later-line"])
def test_invalid_json_is_reported_before_a_bad_document(tmp_path, capsys, cut):
    processed = tmp_path / "corpus.json"
    text = cut(_first_document_unordered(_processed_payload(2, n_pages=2)))
    processed.write_text(text)
    with pytest.raises(json.JSONDecodeError) as decode:
        json.loads(text)
    code = main(["generate", "--in", str(processed), "--out", str(tmp_path / "r.jsonl"),
                 "--seed", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: MalformedInput: {processed}: not valid JSON: {decode.value}\n")


def test_repeated_doc_id_in_ingest_layout_names_the_file(tmp_path, capsys):
    payload = _processed_payload(2, n_pages=2)
    payload["documents"].append(payload["documents"][0])
    processed = tmp_path / "corpus.json"
    processed.write_text(_ingest_text(payload))
    code = main(["generate", "--in", str(processed), "--out", str(tmp_path / "r.jsonl"),
                 "--seed", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: DuplicateId: {processed}: document 'synt00000' was already read "
        f"from {processed}\n")


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


@pytest.fixture(scope="module")
def long_corpus(tmp_path_factory):
    """Eight 36-page annotation files and the processed corpus ingest makes of them."""
    root = tmp_path_factory.mktemp("long")
    (root / "corpus").mkdir()
    for seed in range(8):
        annotation = random_annotation(seed, n_pages=36, chaotic_share=0.0)
        (root / "corpus" / f"{seed}.json").write_text(json.dumps(annotation))
    assert main(["ingest", "--in", str(root / "corpus"), "--out", str(root / "p.json")]) == 0
    return root


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_processed_corpus_loads_from_a_named_pipe(tmp_path, long_corpus):
    # a pipe can be read only once: a reader that opened it and closed it again
    # would break the writer's pipe while it still has bytes to write
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    src = str(Path(docqa_forge.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "docqa_forge", "inspect", "--in", str(fifo),
                             "--doc", "synt00000"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        with fifo.open("wb") as writer:  # opens once the command opens the pipe to read
            writer.write((long_corpus / "p.json").read_bytes())  # more than a pipe holds
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == 0, err
    assert out.startswith(b"document synt00000 page 0: ")


def test_loading_ingest_layout_holds_little_more_than_the_documents(long_corpus):
    # the file's text and one document's JSON value at a time, not the whole tree
    path = long_corpus / "p.json"
    documents, held, peak = _traced_peak(lambda: load_corpus(path))
    assert len(documents) == 8
    assert peak - held < 1 * path.stat().st_size


def test_ingest_writes_one_document_at_a_time(long_corpus):
    # beyond what loading its input takes, ingest holds about one document's
    # encoding, not the corpus as text
    source, out = long_corpus / "corpus", long_corpus / "again.json"
    _, _, load_peak = _traced_peak(lambda: load_corpus(source))
    code, _, ingest_peak = _traced_peak(
        lambda: main(["ingest", "--in", str(source), "--out", str(out)]))
    assert code == 0 and out.read_bytes() == (long_corpus / "p.json").read_bytes()
    assert ingest_peak - load_peak < 1.5 * out.stat().st_size


def test_ingest_peak_does_not_grow_with_the_corpus(long_corpus):
    # a directory is read, built and written one annotation file at a time, so
    # the peak follows the largest file, not the count: two files hold it
    few = long_corpus / "few"
    few.mkdir()
    files = sorted((long_corpus / "corpus").iterdir(), key=lambda path: path.stat().st_size)
    for path in files[-2:]:
        (few / path.name).write_bytes(path.read_bytes())
    peaks = []
    for source in (few, long_corpus / "corpus"):
        out = long_corpus / f"{source.name}.json"
        code, _, peak = _traced_peak(
            lambda: main(["ingest", "--in", str(source), "--out", str(out)]))
        assert code == 0
        peaks.append(peak)
    assert peaks[1] < 1.2 * peaks[0]


@pytest.mark.parametrize("malformed", [False, True])
def test_streamed_ingest_reports_errors_in_load_order(tmp_path, capsys, malformed):
    # the repeated doc_id is seen first, yet a later malformed file is what is reported
    corpus, out = tmp_path / "corpus", tmp_path / "p.json"
    corpus.mkdir()
    for name in ("a.json", "b.json"):
        (corpus / name).write_text(json.dumps(random_annotation(0, n_pages=2)))
    if malformed:
        (corpus / "c.json").write_text('{"doc_id": ')
    out.write_bytes(b"earlier output")
    assert main(["ingest", "--in", str(corpus), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if malformed:
        assert err.startswith(f"error: MalformedInput: {corpus / 'c.json'}: not valid JSON: ")
    else:
        assert err == (f"error: DuplicateId: {corpus / 'b.json'}: document 'synt00000' "
                       f"was already read from {corpus / 'a.json'}\n")
    assert out.read_bytes() == b"earlier output"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "p.json"]


def test_elements_stored_out_of_reading_order_are_rejected(tmp_path, corpus_dir, capsys):
    processed = tmp_path / "corpus.json"
    assert main(["ingest", "--in", str(corpus_dir / "synth.json"), "--out", str(processed)]) == 0
    payload = json.loads(processed.read_text())
    elements = payload["documents"][0]["pages"][0]["elements"]
    elements[0], elements[1] = elements[1], elements[0]  # each keeps its reading indices
    processed.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["generate", "--in", str(processed), "--out", str(tmp_path / "r.jsonl"),
                 "--seed", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: MalformedInput: {processed}: document 'synt00900': element "
        f"{elements[0]['id']!r}: page_reading_index must be 0 (pages store their "
        f"elements in reading order), got 1\n")


def test_trace_runs_no_program_twice(tmp_path, corpus_dir, monkeypatch):
    # every compile_program/execute a module can reach, however it looks them up
    import docqa_forge.cli as cli_module
    import docqa_forge.generator as generator_module
    import docqa_forge.programs as programs_module
    calls = {"compile_program": 0, "execute": 0}
    for module in (programs_module, generator_module, cli_module):
        for name in calls:
            real = getattr(module, name, None)
            if real is None:
                continue

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

    counts = []
    for extra in ([], ["--trace", str(tmp_path / "trace.jsonl")]):
        calls.update(compile_program=0, execute=0)
        assert main(["generate", "--in", str(corpus_dir), "--out", str(tmp_path / "r.jsonl"),
                     "--seed", "7", "--workers", "1", *extra]) == 0
        counts.append(dict(calls))
    assert counts[0]["execute"] > 0
    assert counts[1] == counts[0]


def test_trace_has_one_line_per_record_for_any_worker_count(tmp_path, corpus_dir):
    traces = []
    for workers in ("1", "2"):
        raw, trace = tmp_path / f"raw{workers}.jsonl", tmp_path / f"trace{workers}.jsonl"
        assert main(["generate", "--in", str(corpus_dir), "--out", str(raw), "--seed", "7",
                     "--workers", workers, "--trace", str(trace)]) == 0
        qids = [json.loads(line)["qid"] for line in raw.read_text().splitlines()]
        assert [json.loads(line)["qid"] for line in trace.read_text().splitlines()] == qids
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]


def _a01_line(i, **fields):
    data = {"qid": f"q{i}", "task": "A", "qtype": "existence", "doc_id": f"pg{i % 2:04d}",
            "page": 0, "question": "Is there any table on the top of this page?",
            "template_id": "A01", "bindings": {"E": "table", "pos": "top"},
            "answer": {"kind": "token", "value": "yes"}}
    data.update(fields)
    return json.dumps(data)


@pytest.mark.parametrize("command, field, value", [
    ("balance", "template_id", "Z99"),
    ("balance", "template_id", ["A01"]),
    ("split", "doc_id", ["pg0000"]),
    ("stats", "bindings", {"E": "table"}),
    ("eval", "doc_id", 7),
    ("balance", "bindings", ["E", "pos"]),  # the slot names, but not an object
])
def test_bad_record_is_named_in_the_error(tmp_path, capsys, command, field, value):
    records = tmp_path / "bad.jsonl"
    records.write_text("\n".join([_a01_line(1), _a01_line(2), _a01_line(3, **{field: value})])
                       + "\n")
    argv = {
        "balance": ["balance", "--in", str(records), "--out", str(tmp_path / "b.jsonl"),
                    "--seed", "1"],
        "split": ["split", "--in", str(records), "--out-dir", str(tmp_path / "ds"),
                  "--ratios", "0.5,0.25,0.25", "--seed", "1"],
        "stats": ["stats", "--in", str(records)],
        "eval": ["eval", "--gold", str(records), "--pred", str(records)],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: SchemaViolation: {records}:3: " in err
    assert "Traceback" not in err


def test_bad_prediction_is_named_in_the_error(tmp_path, capsys):
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text(_a01_line(1) + "\n" + _a01_line(2) + "\n")
    pred.write_text(json.dumps({"qid": "q1", "answer": {"kind": "token", "value": "yes"}}) + "\n"
                    + json.dumps({"qid": "q2", "answer": {"kind": "wibble"}}) + "\n")
    code = main(["eval", "--gold", str(gold), "--pred", str(pred)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: SchemaViolation: {pred}:2: unknown answer kind 'wibble'" in err


def test_duplicate_prediction_qid_is_named_in_the_error(tmp_path, capsys):
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text(_a01_line(1) + "\n" + _a01_line(2) + "\n")
    pred.write_text("".join(
        json.dumps({"qid": qid, "answer": {"kind": "token", "value": value}}) + "\n"
        for qid, value in (("q1", "yes"), ("q2", "yes"), ("q1", "no"))))
    code = main(["eval", "--gold", str(gold), "--pred", str(pred)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: SchemaViolation: {pred}:3: duplicate prediction for qid 'q1'" in err


@pytest.mark.parametrize("command", ["balance", "split", "stats", "eval"])
def test_duplicate_record_qid_is_named_in_the_error(tmp_path, capsys, command):
    # a repeated gold record would otherwise be scored, balanced and split twice
    records = tmp_path / "test.jsonl"
    records.write_text("".join(_a01_line(i) + "\n" for i in (1, 2, 1)))
    argv = {
        "balance": ["balance", "--in", str(records), "--out", str(tmp_path / "b.jsonl"),
                    "--seed", "1"],
        "split": ["split", "--in", str(records), "--out-dir", str(tmp_path / "ds"),
                  "--ratios", "0.5,0.25,0.25", "--seed", "1"],
        "stats": ["stats", "--in", str(records)],
        "eval": ["eval", "--gold", str(records), "--pred", str(records)],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: SchemaViolation: {records}:3: duplicate record for qid 'q1'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "b.jsonl").exists() and not (tmp_path / "ds").exists()


@pytest.mark.parametrize("second", ["".join(_a01_line(i) + "\n" for i in range(5)), "{\n"],
                         ids=["good", "bad-line"])
def test_stats_rejects_a_repeated_split_name(tmp_path, capsys, second):
    # the stems are checked before any file is read, so a bad line is never reached
    inputs = []
    for name, text in (("a", _a01_line(0) + "\n" + _a01_line(1) + "\n"), ("b", second)):
        (tmp_path / name).mkdir()
        inputs.append(tmp_path / name / "test.jsonl")
        inputs[-1].write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--in", *map(str, inputs)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error: split name 'test' appears more than once\n" in err
    assert "Traceback" not in err


def test_stats_rejects_a_qid_in_two_splits(tmp_path, capsys):
    lines = {"train": [_a01_line(1), _a01_line(2)], "valid": [], "test": [_a01_line(1)]}
    for name, split in lines.items():
        (tmp_path / f"{name}.jsonl").write_text("".join(line + "\n" for line in split))
    assert main(["stats", "--in", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: SchemaViolation: qid 'q1' appears in splits 'train' and 'test'\n" in err
    assert "Traceback" not in err


def test_stats_rejects_a_document_in_two_splits(tmp_path, capsys):
    # split_corpus keeps each document in one split; distinct qids do not hide it
    lines = {"train": [_a01_line(1)], "valid": [], "test": [_a01_line(2, doc_id="pg0001")]}
    for name, split in lines.items():
        (tmp_path / f"{name}.jsonl").write_text("".join(line + "\n" for line in split))
    assert main(["stats", "--in", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: SchemaViolation: document 'pg0001' appears in splits 'train' and 'test'\n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["templates", "stats"])
def test_stdout_equals_the_out_file_bytes(tmp_path, corpus_dir, capsys, command):
    argv = ["templates", "dump"]
    if command == "stats":
        raw = tmp_path / "raw.jsonl"
        assert main(["generate", "--in", str(corpus_dir), "--out", str(raw), "--seed", "7"]) == 0
        argv = ["stats", "--in", str(raw)]
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert printed.encode("utf-8") == out.read_bytes()


def test_inspect_builds_the_spatial_graph_of_one_page(tmp_path, monkeypatch, capsys):
    import docqa_forge.graphs as graphs_module
    corpus = tmp_path / "doc.json"
    corpus.write_text(json.dumps(stack_annotation(
        "three", [[("title", f"{i}. Part"), ("text", "body")] for i in range(3)])))
    built = []
    real = graphs_module.build_spatial_graph

    def counted(page):
        built.append(page.index)
        return real(page)
    monkeypatch.setattr(graphs_module, "build_spatial_graph", counted)

    for fmt in ("text", "json"):
        assert main(["inspect", "--in", str(corpus), "--doc", "three", "--page", "1",
                     "--format", fmt]) == 0
    assert "1. Part" in capsys.readouterr().out
    assert built == [1, 1]
