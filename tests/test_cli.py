from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import docqa_forge
from conftest import stack_annotation
from synthcorpus import random_annotation, random_processed_document
from docqa_forge.balance import BalanceConfig
from docqa_forge.cli import load_corpus, main
from docqa_forge.dataset import check_ratios
from docqa_forge.errors import BadParameter
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
    assert text == json.dumps(payload, sort_keys=True) + "\n"
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
    # ingest encodes each document on its own and joins them
    documents = [document_to_processed(random_processed_document(seed))
                 for seed in range(count)]
    source, out = tmp_path / "in.json", tmp_path / "out.json"
    source.write_text(json.dumps({"documents": documents}, indent=1))
    assert main(["ingest", "--in", str(source), "--out", str(out)]) == 0
    assert out.read_text() == json.dumps({"documents": documents}, sort_keys=True) + "\n"


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
