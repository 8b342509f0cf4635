"""Golden digests: the whole CLI chain must reproduce these output bytes.

A seeded corpus goes through ingest -> generate (--trace, and once more with
a template cap and a raised NA rate) -> balance --report -> split -> stats ->
eval. Every output file's sha256 is compared with the checked-in value, so a
refactor that changes any output byte fails here. A digest may only change
together with a CHANGES.md line that says why the output change is intended.

The run uses relative paths from a temporary directory, because the generate
manifest records the --out path verbatim.
"""

from __future__ import annotations

import hashlib
import json
import random

from synthcorpus import chaotic_page, random_annotation
from docqa_forge.cli import main

GOLDEN = {
    "balance.json": "764ad76ea768fe8ca95a4cb656c89b063106bfd3d14b9e5dddfc6b77aa226bbf",
    "balanced.jsonl": "cc1bf6ffcaec9fa71fd105765dcf8098bf3fddc3e5723208f6b620310984bd39",
    "capped.jsonl": "b76fb88891a92b39131ab5ed72ad3c90323ec23d50881bcdc6d5c4245b1f9d26",
    "capped.jsonl.manifest.json": "acfea65169f63a23981b2030d406e9515320043b6fbedf7e96a322948fd46fcd",
    "eval.json": "a523ff2fc4cd57aa71e2ee60ce5d16fddd3ab04646ab186ef662940eea70b069",
    "eval.txt": "3885e0d3b7787a6cfa8b2d3f7e394f510fbdd20f629efa07870d18ab54c093cc",
    "preds.jsonl": "b1f744353a7586c774a548e4eaffd1c574900685766905a53e35973e2faf5c8d",
    "processed.json": "76f84e17b12aa454bdc7d27fa8a1a63786a9e90aa1f4fb8e64fab4f9e379bcc5",
    "raw.jsonl": "64b7715119c91c1123b158b96e1d6983341d1db6d00551766ba883d1a4913681",
    "raw.jsonl.manifest.json": "1b93f6fe19ce22f3b6fc508d94f94275661b9c27c9eeceacc23c70c813c78a4a",
    "splits/test.jsonl": "dc4d06312600c06b8635be40ef267bfe370b897cbacd3ddab4918212e94d2cd7",
    "splits/train.jsonl": "bf2560a37895238a4aa495aeccf3f09b85fe9bab681401563bf29d37e0372131",
    "splits/valid.jsonl": "e89de5a15def7a3568de24a7143a54eca00fbf89c27daf6a39bb9f8f787574ca",
    "stats.json": "f6476e176f2cc317768c4b5c1cf436c6400fcc3f49185cde8a5ab2a2bd710778",
    "trace.jsonl": "dd235652eb02e6caf651a662355f98a772e6e96e8692e496a1f2d3ad29e3514b",
}


def _corpus() -> list[dict]:
    docs = [random_annotation(seed, doc_id=f"page{seed}", n_pages=3) for seed in (11, 12, 13, 14)]
    docs.append(random_annotation(21, doc_id="long21", n_pages=14, chaotic_share=0.15))
    # one page over the 25-element limit, so the manifest lists an exclusion
    crowded, _ = chaotic_page(random.Random(31), 0, 0, 27)
    docs.append({"doc_id": "crowded31", "references": [], "pages": [crowded]})
    return docs


def _predictions(gold_path: str) -> str:
    """Gold answers for a third of the questions, a legal guess for a third,
    and no prediction for the rest."""
    guesses = {"A": {"kind": "token", "value": "yes"},
               "B": {"kind": "index", "value": 0},
               "C": {"kind": "na", "value": None}}
    lines = []
    with open(gold_path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            record = json.loads(line)
            if i % 3 == 0:
                continue
            answer = record["answer"] if i % 3 == 1 else guesses[record["task"]]
            lines.append(json.dumps({"qid": record["qid"], "answer": answer}))
    return "\n".join(lines) + "\n"


def _run(argv: list[str]) -> None:
    assert main(argv) == 0, argv


def test_pipeline_output_matches_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus").mkdir()
    for doc in _corpus():
        (tmp_path / "corpus" / f"{doc['doc_id']}.json").write_text(json.dumps(doc))

    _run(["ingest", "--in", "corpus", "--out", "processed.json"])
    _run(["generate", "--in", "processed.json", "--out", "raw.jsonl", "--seed", "5",
          "--trace", "trace.jsonl"])
    _run(["generate", "--in", "corpus", "--out", "capped.jsonl", "--seed", "5",
          "--template-cap", "3", "--na-rate", "0.5"])
    _run(["balance", "--in", "raw.jsonl", "--out", "balanced.jsonl", "--seed", "5",
          "--report", "balance.json"])
    _run(["split", "--in", "balanced.jsonl", "--out-dir", "splits",
          "--ratios", "0.5,0.25,0.25", "--seed", "5"])
    _run(["stats", "--in", "splits", "--out", "stats.json"])
    (tmp_path / "preds.jsonl").write_text(_predictions("splits/test.jsonl"))
    capsys.readouterr()
    _run(["eval", "--gold", "splits/test.jsonl", "--pred", "preds.jsonl",
          "--out", "eval.json"])
    (tmp_path / "eval.txt").write_text(capsys.readouterr().out)

    outputs = sorted(p for p in tmp_path.rglob("*")
                     if p.is_file() and p.parent.name != "corpus")
    digests = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in outputs}
    assert digests == GOLDEN
