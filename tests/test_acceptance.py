"""Acceptance criteria. Each test prints one PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from synthcorpus import random_page_document, random_processed_document
from oracle import _caption_of, _direction, oracle_execute
from reference import kept, rows_of
from docqa_forge.balance import BalanceConfig, balance_answers, balance_parameters
from docqa_forge.dataset import percentage, questions_per_image
from docqa_forge.errors import AnchorNotFound, OverflowAnswer
from docqa_forge.evaluate import evaluate, score_task_ab, score_task_c
from docqa_forge.generator import GenConfig, QARecord, generate_corpus
from docqa_forge.geometry import BoundingBox, spatial_relation
from docqa_forge.graphs import build_graphs, build_logical_graph
from docqa_forge.model import TaskId
from docqa_forge.programs import AnswerValue, compile_program, execute, scope_for
from docqa_forge.templates import QuestionType, enumerate_bindings, load_templates


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({label}): PASS [{elapsed:.2f}s]", flush=True)


# --- 1. template registry ----------------------------------------------------

# Independent transcription of the three built-in pattern tables:
# (qtype, pattern), in table order.
EXPECTED_PATTERNS = (
    ("existence", "Is there any [E] on the [pos] of this page?"),
    ("existence", "Can you find any [E] on the [pos] of this page?"),
    ("existence", "On the [pos] of this page, is there a [E]?"),
    ("existence", "Is it correct that there is no [E] at the [pos]?"),
    ("existence", "When you check the [pos] of this page, can you find any [E]?"),
    ("existence", "Are there any [E1] are [R] the [E2]?"),
    ("existence", "Can you find any [E1] [R] the [E2]?"),
    ("existence", "Is there a [E1] found [R] the [E2]?"),
    ("existence", "Is it correct that there is no [E1] [R] the [E2]?"),
    ("existence", "Confirm if there are any [E1] [R] the [E2]?"),
    ("existence", "When you check the page, is there any [E1] [R] the [E2]?"),
    ("existence", "Is there any [E]?"),
    ("existence", "Are there any [E] on this page?"),
    ("existence", "Is there a [E] in this page?"),
    ("existence", "Can you find a [E] on this page?"),
    ("existence", "When you check this page, can you find any [E]?"),
    ("existence", "Is there a [E] on this page?"),
    ("existence", "Can you find a [E] on this page?"),
    ("existence", "Does this page include a [E]?"),
    ("existence", "Can [E] be found on this page?"),
    ("existence", "When you check this page, can you find [E]?"),
    ("existence", "Confirm if there is [E] on this page."),
    ("counting", "How many [E1] are [R] the [E2]?"),
    ("counting", "What is the number of [E1] [R] the [E2]?"),
    ("counting", "How many [E1] can you find on the [R] of [E2]?"),
    ("counting", "Count the number of [E1] on the [R] of [E2]."),
    ("counting", "When you check this page, how many [E1] can you find on the [R] of [E2]?"),
    ("counting", "Can you find [num] [E](s) on the page?"),
    ("counting", "Does this page include [num] [E](s)"),
    ("counting", "Confirm if there are [num] [E](s) on this page."),
    ("counting", "Are there [num] [E](s) on this page?"),
    ("counting", "Is there only [num] [E](s) on this page?"),
    ("counting", "How many [E]s on this page?"),
    ("counting", "When you check this page, how many [E]s are on this page?"),
    ("counting", "What is the number of [E]s on this page?"),
    ("counting", "How many [E]s can be found on this page?"),
    ("structural_understanding", "What is the [turn] section in this page?"),
    ("structural_understanding", "Can you describe the [turn] section of this page?"),
    ("structural_understanding", "What does the [turn] section include in this page?"),
    ("structural_understanding", "What is the main contents of the [turn] section in this page?"),
    ("structural_understanding",
     "When you check the [turn] section of this page, what information can you get?"),
    ("structural_understanding", "What is the [pos] section about?"),
    ("structural_understanding", "What is the [pos] of the page about?"),
    ("structural_understanding", "What is the topic of [pos] section?"),
    ("structural_understanding", "Can you describe the main topic of the [pos] section?"),
    ("structural_understanding",
     "When you check the [pos] of this page, what information can you get?"),
    ("object_recognition", "What is the [E] on the [pos] of the page?"),
    ("object_recognition", "What is the [pos] [E] about?"),
    ("object_recognition", "Can you describe the [E] on the [pos] of the page?"),
    ("object_recognition", "What information does the [pos] [E] contain?"),
    ("object_recognition", "When you check the [pos] [E], what information can you get?"),
    ("child_relation", "What does the [E] include?"),
    ("child_relation", "What is the [E] about?"),
    ("child_relation", "What subsections are in the [E]?"),
    ("child_relation", "What subsections can be found in the [E]?"),
    ("child_relation", "When you check the [E], which subsections are included?"),
    ("parent_relation", "Which section does describe the [E] ?"),
    ("parent_relation", "Which section does include the description of the [E]?"),
    ("parent_relation", "Name out the section that include the [E]."),
    ("parent_relation", "Where can you find the [E]?"),
    ("parent_relation",
     "When you search for the description of [E], which sections do you need to check?"),
    ("parent_relation", "Which section does include the [E]?"),
    ("parent_relation", "Which section does cite the [E]?"),
    ("parent_relation", "Where is the [E] cited in the document?"),
    ("parent_relation", "Where can [E] be found in the document?"),
    ("parent_relation",
     "When you search for the citation of [E], which sections can you find it?"),
)


def test_criterion_1_template_registry():
    with criterion(1, "template registry matches the built-in pattern tables"):
        started = time.perf_counter()
        registry = load_templates()
        assert len(registry) == 66

        by_task = {task: registry.for_task(task) for task in TaskId}
        assert len(by_task[TaskId.A]) == 36
        assert len(by_task[TaskId.B]) == 15
        assert len(by_task[TaskId.C]) == 15

        def n(qtype):
            return sum(1 for t in registry if t.qtype == qtype)

        assert n(QuestionType.EXISTENCE) == 22
        assert n(QuestionType.COUNTING) == 14
        assert n(QuestionType.STRUCTURAL_UNDERSTANDING) == 10
        assert n(QuestionType.OBJECT_RECOGNITION) == 5
        assert n(QuestionType.PARENT_RELATION) == 10
        assert n(QuestionType.CHILD_RELATION) == 5

        ordered = sorted(registry, key=lambda t: t.template_id)
        got = [(t.qtype.value, t.pattern) for t in ordered]
        assert got == list(EXPECTED_PATTERNS)
        assert time.perf_counter() - started < 1.0


# --- 2. stats arithmetic ------------------------------------------------------

def test_criterion_2_stats_arithmetic():
    with criterion(2, "reported statistics reproduce from count fixtures"):
        started = time.perf_counter()
        checks = (
            (questions_per_image(81085, 12337), 6.57),
            (questions_per_image(53872, 12337), 4.37),
            (questions_per_image(5653, 1147), 4.93),
            (percentage(14387, 81085), 17.74),
            (percentage(4506, 5653), 79.71),
        )
        for got, want in checks:
            assert abs(got - want) <= 0.01, (got, want)
        assert time.perf_counter() - started < 1.0


# --- 3. oracle equivalence ------------------------------------------------------

def _outcome(fn):
    try:
        return ("value", fn().canonical())
    except OverflowAnswer:
        return ("overflow",)
    except AnchorNotFound:
        return ("anchor_not_found",)


def _sweep_document(doc, mismatches):
    graphs = build_graphs(doc)
    checked = 0
    for tpl in load_templates():
        pages = [None] if tpl.task == TaskId.C else list(doc.pages)
        for page in pages:
            scope = scope_for(tpl.task, doc, page)
            for binding in enumerate_bindings(tpl, doc, page, graphs):
                got = _outcome(lambda: execute(compile_program(tpl, binding),
                                               scope, graphs))
                want = _outcome(lambda: oracle_execute(tpl, binding, doc, page))
                checked += 1
                if got != want:
                    mismatches.append((doc.doc_id, tpl.template_id, binding, got, want))
    return checked


def test_criterion_3_oracle_equivalence():
    with criterion(3, "execute equals oracle on randomized synthetic corpora"):
        started = time.perf_counter()
        mismatches: list = []
        pages_checked = 0
        bindings_checked = 0
        seed = 0
        while pages_checked < 1000:
            doc = random_page_document(seed)
            seed += 1
            if not 3 <= len(doc.pages[0].elements) <= 25:
                continue
            pages_checked += 1
            bindings_checked += _sweep_document(doc, mismatches)
        for doc_seed in range(5000, 5100):
            doc = random_processed_document(doc_seed, n_pages=random.Random(doc_seed).randint(2, 4))
            bindings_checked += _sweep_document(doc, mismatches)
        assert mismatches == [], mismatches[:5]
        assert pages_checked >= 1000 and bindings_checked > 100_000
        assert time.perf_counter() - started < 120.0


# --- 4. spatial relation properties ----------------------------------------------

def _grid_box(rng):
    x0 = rng.randint(0, 120)
    y0 = rng.randint(0, 120)
    w = rng.randint(1, 127 - x0 if x0 < 127 else 1)
    h = rng.randint(1, 127 - y0 if y0 < 127 else 1)
    return BoundingBox(x0 / 128, y0 / 128, (x0 + w) / 128, (y0 + h) / 128)


def test_criterion_4_spatial_properties():
    with criterion(4, "antisymmetry, exclusivity, translation invariance"):
        started = time.perf_counter()
        rng = random.Random(20240)
        pairs = 0
        while pairs < 10_000:
            a, b = _grid_box(rng), _grid_box(rng)
            rel = spatial_relation(a, b)
            back = spatial_relation(b, a)
            # antisymmetry
            if rel is None:
                assert back is None, (a, b)
            else:
                assert back == rel.inverse, (a, b, rel, back)
            # exclusivity / agreement with the independent classifier
            other = _direction(a, b)
            assert (rel.value if rel else None) == other, (a, b, rel, other)
            # translation invariance on the exact 1/128 grid
            max_x = 1.0 - max(a.x1, b.x1)
            max_y = 1.0 - max(a.y1, b.y1)
            min_x = -min(a.x0, b.x0)
            min_y = -min(a.y0, b.y0)
            tx = rng.randint(int(min_x * 128), int(max_x * 128)) / 128
            ty = rng.randint(int(min_y * 128), int(max_y * 128)) / 128
            shifted = spatial_relation(
                BoundingBox(a.x0 + tx, a.y0 + ty, a.x1 + tx, a.y1 + ty),
                BoundingBox(b.x0 + tx, b.y0 + ty, b.x1 + tx, b.y1 + ty))
            assert shifted == rel, (a, b, tx, ty, rel, shifted)
            pairs += 1
        assert time.perf_counter() - started < 10.0


# --- 5. logical graph properties ----------------------------------------------------

def test_criterion_5_logical_graph_properties():
    with criterion(5, "forest shape and caption-parent rule"):
        started = time.perf_counter()
        captions_seen = 0
        for seed in range(60):
            doc = random_processed_document(seed + 31_000)
            graph = build_logical_graph(doc)
            # single parent by construction; acyclicity via bounded ancestor walks
            assert set(graph.parent_of) == {el.id for el in doc.elements()}
            for el_id in graph.parent_of:
                chain = graph.ancestors(el_id)
                assert len(chain) == len(set(chain))
            # caption rule double-checked against the independent pairing
            by_id = {el.id: el for el in doc.elements()}
            for page in doc.pages:
                for el in page.elements:
                    if not el.category.is_float:
                        continue
                    expected = _caption_of(page, el)
                    parent_id = graph.parent_of[el.id]
                    parent = by_id.get(parent_id) if parent_id else None
                    if expected is None:
                        assert parent is None or not parent.category.is_caption
                    else:
                        assert parent_id == expected.id
                        captions_seen += 1
        assert captions_seen > 30
        assert time.perf_counter() - started < 10.0


# --- 6. balancing --------------------------------------------------------------------

def test_criterion_6_balancing_bounds():
    with criterion(6, "adversarial 95/5 skew bounded; Task C untouched"):
        started = time.perf_counter()
        cfg = BalanceConfig(seed=99)

        records = []
        i = 0
        for template_id in ("A12", "A13", "A14", "A15", "A16",
                            "A17", "A19", "A28", "A31", "A33"):
            for answer, count in (("yes", 95), ("no", 5)):
                for _ in range(count):
                    records.append(QARecord(
                        qid=f"adv{i:05d}", task=TaskId.A,
                        qtype=QuestionType.EXISTENCE, doc_id=f"d{i % 13}",
                        page_index=0, question="q?", template_id=template_id,
                        binding={"E": ("table", "figure", "list", "title")[i % 4]},
                        answer=AnswerValue.token(answer)))
                    i += 1
        balanced = kept(records, balance_answers(rows_of(records), cfg))
        by_template: dict[str, list[QARecord]] = {}
        for r in balanced:
            by_template.setdefault(r.template_id, []).append(r)
        assert len(by_template) == 10
        for members in by_template.values():
            sizes: dict[str, int] = {}
            for r in members:
                sizes[r.answer.canonical()] = sizes.get(r.answer.canonical(), 0) + 1
            smallest = min(sizes.values())
            ratio = max(sizes.values()) / smallest
            assert ratio <= cfg.answer_ratio + 1.0 / smallest, sizes

        # Task C must pass through parameter smoothing bit-unchanged
        task_c: list[QARecord] = []
        doc_seed = 77_000
        while not task_c:
            doc = random_processed_document(doc_seed, n_pages=3, chaotic_share=0.0)
            task_c = list(generate_corpus([doc], GenConfig(seed=7, tasks=("C",))).records)
            doc_seed += 1
        rows = rows_of(task_c)  # each Task C record stands for itself
        assert list(balance_parameters(rows, cfg).values()) == task_c
        assert time.perf_counter() - started < 10.0


# --- 7. answer-space closure -----------------------------------------------------------

def test_criterion_7_answer_space_closure():
    with criterion(7, "every generated answer stays in its task's space"):
        docs = [random_processed_document(s) for s in range(46_000, 46_030)]
        result = generate_corpus(docs, GenConfig(seed=7))
        assert result.records
        tokens = {"yes", "no", "0", "1", "2", "3", "4", "5"}
        for record in result.records:
            if record.task == TaskId.A:
                assert record.answer.kind == "token"
                assert record.answer.value in tokens
            elif record.task == TaskId.B:
                assert record.answer.kind in ("index", "na")
                if record.answer.kind == "index":
                    assert 0 <= record.answer.value <= 24
            else:
                assert record.answer.kind == "index_set"
                assert record.answer.value
                assert all(0 <= v <= 399 for v in record.answer.value)


# --- 8. eval harness ---------------------------------------------------------------------

def test_criterion_8_eval_harness():
    with criterion(8, "self-score 100, hand-computed F1, strict set equality"):
        docs = [random_processed_document(s) for s in range(47_000, 47_006)]
        gold = generate_corpus(docs, GenConfig(seed=7)).records
        assert {r.task for r in gold} == set(TaskId)
        report = evaluate(gold, {r.qid: r.answer for r in gold}, strict=True)
        for fragment in report["tasks"].values():
            assert fragment["overall"] == 100.0

        def tok(i, value):
            return QARecord(qid=f"f{i}", task=TaskId.A,
                            qtype=QuestionType.EXISTENCE, doc_id="d", page_index=0,
                            question="q?", template_id="A12", binding={"E": "table"},
                            answer=AnswerValue.token(value))

        fixture = [tok(i, v) for i, v in enumerate(["yes", "yes", "no", "no"])]
        preds = {r.qid: AnswerValue.token(v)
                 for r, v in zip(fixture, ["yes", "no", "no", "no"])}
        assert abs(score_task_ab(fixture, preds)["macro_f1"] - 73.3) <= 0.1

        partial_gold = [QARecord(
            qid="c0", task=TaskId.C, qtype=QuestionType.PARENT_RELATION,
            doc_id="d", page_index=None, question="q?", template_id="C06",
            binding={"E": "Table 1"}, answer=AnswerValue.index_set({11, 15}))]
        partial = {"c0": AnswerValue.index_set({11})}
        assert score_task_c(partial_gold, partial)["overall"] == 0.0


# --- 9. end-to-end determinism -------------------------------------------------------------

def _run_pipeline(corpus_dir: Path, out_dir: Path, threads: int) -> dict[str, bytes]:
    env = dict(os.environ, FORGE_THREADS=str(threads))
    raw = out_dir / "raw.jsonl"
    balanced = out_dir / "balanced.jsonl"
    splits = out_dir / "splits"

    def forge(*argv):
        proc = subprocess.run([sys.executable, "-m", "docqa_forge.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    forge("generate", "--in", str(corpus_dir), "--out", str(raw), "--seed", "7")
    forge("balance", "--in", str(raw), "--out", str(balanced), "--seed", "7")
    forge("split", "--in", str(balanced), "--out-dir", str(splits),
          "--ratios", "0.7,0.1,0.2", "--seed", "7")
    outputs = {"raw.jsonl": raw.read_bytes(), "balanced.jsonl": balanced.read_bytes()}
    for name in ("train", "valid", "test"):
        outputs[f"{name}.jsonl"] = (splits / f"{name}.jsonl").read_bytes()
    return outputs


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "1-worker and 8-worker pipeline runs are byte-identical"):
        from synthcorpus import random_annotation

        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for seed in range(48_000, 48_010):
            annotation = random_annotation(seed)
            (corpus_dir / f"{annotation['doc_id']}.json").write_text(
                json.dumps(annotation))

        one = _run_pipeline(corpus_dir, tmp_path / "run1", threads=1)
        eight = _run_pipeline(corpus_dir, tmp_path / "run8", threads=8)
        assert set(one) == set(eight)
        for name in one:
            assert one[name] == eight[name], f"{name} differs between worker counts"
        assert one["raw.jsonl"]  # nonempty pipeline
