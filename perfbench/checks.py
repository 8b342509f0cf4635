"""Output checks behind the benchmark's `failed` count.

Every check is one attempted item; a record is one item. The checks run
outside the timed interval and use the program only to read its own output
back (`read_records_jsonl`); the expected values are the benchmark's own.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from docqa_forge.dataset import read_records_jsonl
from docqa_forge.errors import ForgeError

TOKEN_ANSWERS = frozenset(("yes", "no", "0", "1", "2", "3", "4", "5"))
PAGE_INDEX_MAX = 24
DOC_INDEX_MAX = 399

# Share of test-split predictions the wrong-prediction file gets wrong.
WRONG_SHARE = 0.2


class Tally:
    """Attempted and failed item counts plus the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str, items: int = 1) -> bool:
        self.attempted += items
        if not ok:
            self.failed += items
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def answer_in_space(task: str, kind: str, value) -> bool:
    """A: yes/no/0-5; B: page reading index 0-24 or N/A; C: a non-empty set
    of document reading indices 0-399, or N/A."""
    if task == "A":
        return kind == "token" and value in TOKEN_ANSWERS
    if task == "B":
        return kind == "na" or (kind == "index" and 0 <= value <= PAGE_INDEX_MAX)
    if task == "C":
        return kind == "na" or (kind == "index_set" and len(value) > 0
                                and all(0 <= v <= DOC_INDEX_MAX for v in value))
    return False


def check_raw(tally: Tally, raw_path, manifest_path=None, expected_sha256=None) -> None:
    """Raw JSONL: every line reads back and answers within its task's space;
    manifest counts match the records; bytes match the expected digest."""
    raw_path = Path(raw_path)
    lines = raw_path.read_text(encoding="utf-8").splitlines()
    try:
        records = read_records_jsonl(raw_path)
    except ForgeError as exc:
        tally.check(False, f"{raw_path.name} does not read back: {exc}", items=len(lines))
        records = []
    for r in records:
        tally.check(answer_in_space(r.task.value, r.answer.kind, r.answer.value),
                    f"qid {r.qid}: answer {r.answer!r} outside Task {r.task.value}'s space")
    if manifest_path is not None:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
        found = Counter((r.task.value, r.qtype.value) for r in records)
        listed = {(task, qtype): n for task, by_type in manifest["counts"].items()
                  for qtype, n in by_type.items() if n}
        tally.check(listed == dict(found) and sum(listed.values()) == len(lines),
                    f"manifest counts {listed} differ from the {len(lines)} records")
    if expected_sha256 is not None:
        actual = sha256_file(raw_path)
        tally.check(actual == expected_sha256,
                    f"{raw_path.name} sha256 {actual} differs from {expected_sha256}")


def is_wrong(qid: str, seed: int) -> bool:
    digest = hashlib.sha256(f"wrong|{seed}|{qid}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") < WRONG_SHARE * 2 ** 64


def wrong_answer(task: str, answer: dict) -> dict:
    """A legal answer of the same task that differs from the gold one."""
    kind, value = answer["kind"], answer.get("value")
    if task == "A":
        if value in ("yes", "no"):
            return {"kind": "token", "value": "no" if value == "yes" else "yes"}
        return {"kind": "token", "value": str((int(value) + 1) % 6)}
    if kind == "na":
        return {"kind": "index", "value": 0} if task == "B" else {"kind": "index_set", "value": [0]}
    return {"kind": "na", "value": None}


def write_predictions(gold_path, pred_path, seed: int, wrong: bool) -> dict[str, float]:
    """Predictions for every gold line: gold answers, or with a hash-chosen
    subset made wrong. Returns the expected score per task: micro-F1 for
    A/B (equal to accuracy when every qid has a prediction), accuracy for C."""
    total: Counter = Counter()
    correct: Counter = Counter()
    lines = []
    for line in Path(gold_path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        task, answer = record["task"], record["answer"]
        total[task] += 1
        if wrong and is_wrong(record["qid"], seed):
            answer = wrong_answer(task, answer)
        else:
            correct[task] += 1
        lines.append(json.dumps({"qid": record["qid"], "answer": answer}))
    Path(pred_path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return {task: round(100.0 * correct[task] / n, 2) for task, n in total.items()}


def check_scores(tally: Tally, report_path, expected: dict[str, float]) -> None:
    """The eval report's Task C accuracy and A/B micro-F1 equal our count."""
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))["tasks"]
    tally.check(sorted(report) == sorted(expected),
                f"eval reports tasks {sorted(report)}, gold has {sorted(expected)}")
    for task, score in sorted(expected.items()):
        got = report.get(task, {}).get("overall" if task == "C" else "micro_f1")
        tally.check(got == score, f"Task {task} scored {got}, expected {score}")
