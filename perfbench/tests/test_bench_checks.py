import json

import pytest

import checks
import synth
from docqa_forge.cli import main as forge


@pytest.fixture(scope="module")
def raw(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench")
    synth.write_corpus(synth.pages_corpus(5, 40), d / "corpus")
    assert forge(["generate", "--in", str(d / "corpus"), "--out", str(d / "raw.jsonl"),
                  "--seed", "5"]) == 0
    return d / "raw.jsonl"


def _check(path, manifest, sha):
    tally = checks.Tally()
    checks.check_raw(tally, path, manifest, sha)
    return tally


def test_clean_output_passes(raw):
    lines = raw.read_text().splitlines()
    tally = _check(raw, f"{raw}.manifest.json", checks.sha256_file(raw))
    assert (tally.failed, tally.attempted) == (0, len(lines) + 2)


def test_flags_one_altered_answer(raw, tmp_path):
    lines = raw.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if json.loads(line)["task"] == "A")
    record = json.loads(lines[i])
    record["answer"] = {"kind": "token", "value": "7"}
    lines[i] = json.dumps(record)
    altered = tmp_path / "raw.jsonl"
    altered.write_text("\n".join(lines) + "\n")
    tally = _check(altered, f"{raw}.manifest.json", checks.sha256_file(raw))
    assert tally.failed == 2  # the record and the digest
    assert any("outside Task A" in m for m in tally.messages)


def test_flags_one_reordered_line(raw, tmp_path):
    lines = raw.read_text().splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    reordered = tmp_path / "raw.jsonl"
    reordered.write_text("\n".join(lines) + "\n")
    tally = _check(reordered, f"{raw}.manifest.json", checks.sha256_file(raw))
    assert tally.failed == 1
    assert "sha256" in tally.messages[0]


@pytest.mark.parametrize("task, answer", [
    ("A", {"kind": "token", "value": "yes"}),
    ("A", {"kind": "token", "value": "5"}),
    ("B", {"kind": "index", "value": 24}),
    ("B", {"kind": "na", "value": None}),
    ("C", {"kind": "index_set", "value": [0, 399]}),
    ("C", {"kind": "na", "value": None}),
])
def test_wrong_answer_is_legal_and_differs(task, answer):
    wrong = checks.wrong_answer(task, answer)
    assert wrong != answer
    value = tuple(wrong["value"]) if wrong["kind"] == "index_set" else wrong["value"]
    assert checks.answer_in_space(task, wrong["kind"], value)


def test_scores_match_the_benchmark_count(raw, tmp_path):
    expected = checks.write_predictions(raw, tmp_path / "preds.jsonl", 5, wrong=True)
    assert set(expected) == {"A", "B", "C"} and all(v < 100 for v in expected.values())
    assert forge(["eval", "--gold", str(raw), "--pred", str(tmp_path / "preds.jsonl"),
                  "--strict", "--out", str(tmp_path / "eval.json")]) == 0
    tally = checks.Tally()
    checks.check_scores(tally, tmp_path / "eval.json", expected)
    assert tally.failed == 0 and tally.attempted == 4
