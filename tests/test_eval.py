from __future__ import annotations

import pytest

from docqa_forge.errors import BadParameter, KindMismatch, MissingPrediction, UnknownQid
from docqa_forge.evaluate import breakdown, evaluate, score_task_ab, score_task_c
from docqa_forge.generator import QARecord
from docqa_forge.model import TaskId
from docqa_forge.programs import AnswerValue
from docqa_forge.templates import QuestionType


def gold_record(i, task=TaskId.A, qtype=QuestionType.EXISTENCE, answer=None):
    defaults = {
        TaskId.A: AnswerValue.token("yes"),
        TaskId.B: AnswerValue.index(2),
        TaskId.C: AnswerValue.index_set({1, 2}),
    }
    return QARecord(
        qid=f"{task.value}{i:03d}", task=task, qtype=qtype, doc_id="d",
        page_index=None if task == TaskId.C else 0, question="q?",
        template_id={"A": "A01", "B": "B01", "C": "C06"}[task.value],
        binding={}, answer=answer or defaults[task])


def perfect_preds(gold):
    return {r.qid: r.answer for r in gold}


def mixed_gold():
    gold = []
    gold += [gold_record(i, TaskId.A, QuestionType.EXISTENCE,
                         AnswerValue.token("yes" if i % 2 else "no")) for i in range(6)]
    gold += [gold_record(10 + i, TaskId.A, QuestionType.COUNTING,
                         AnswerValue.token(str(i % 3))) for i in range(6)]
    gold += [gold_record(i, TaskId.B, QuestionType.STRUCTURAL_UNDERSTANDING,
                         AnswerValue.index(i % 4)) for i in range(6)]
    gold += [gold_record(10 + i, TaskId.B, QuestionType.OBJECT_RECOGNITION,
                         AnswerValue.index(i % 3) if i % 3 else AnswerValue.na())
             for i in range(6)]
    gold += [gold_record(i, TaskId.C, QuestionType.PARENT_RELATION,
                         AnswerValue.index_set({i, i + 1})) for i in range(4)]
    gold += [gold_record(10 + i, TaskId.C, QuestionType.CHILD_RELATION,
                         AnswerValue.index_set({7 + i})) for i in range(4)]
    return gold


def test_perfect_predictions_score_100_everywhere():
    gold = mixed_gold()
    report = evaluate(gold, perfect_preds(gold), strict=True)
    for task_report in report["tasks"].values():
        assert task_report["overall"] == 100.0
        for value in task_report["per_qtype"].values():
            assert value == 100.0


def test_macro_f1_hand_computed_fixture():
    answers = ["yes", "yes", "no", "no"]
    gold = [gold_record(i, answer=AnswerValue.token(a)) for i, a in enumerate(answers)]
    preds = {g.qid: AnswerValue.token(p)
             for g, p in zip(gold, ["yes", "no", "no", "no"])}
    fragment = score_task_ab(gold, preds)
    per_class = fragment["per_class"]
    assert per_class["token:yes"]["f1"] == pytest.approx(66.7, abs=0.1)
    assert per_class["token:no"]["f1"] == pytest.approx(80.0, abs=0.1)
    assert fragment["macro_f1"] == pytest.approx(73.3, abs=0.1)


def test_all_predictions_in_absent_class_score_zero():
    gold = [gold_record(i, answer=AnswerValue.token("yes")) for i in range(5)]
    preds = {g.qid: AnswerValue.token("no") for g in gold}
    assert score_task_ab(gold, preds)["macro_f1"] == 0.0


def test_task_c_exact_set_equality():
    gold = [gold_record(0, TaskId.C, QuestionType.PARENT_RELATION,
                        AnswerValue.index_set({11, 15}))]
    exact = {gold[0].qid: AnswerValue.index_set({11, 15})}
    partial = {gold[0].qid: AnswerValue.index_set({11})}
    assert score_task_c(gold, exact)["overall"] == 100.0
    assert score_task_c(gold, partial)["overall"] == 0.0


def test_task_c_three_of_four_correct():
    gold = [gold_record(i, TaskId.C, QuestionType.PARENT_RELATION,
                        AnswerValue.index_set({i + 1})) for i in range(4)]
    preds = perfect_preds(gold)
    preds[gold[0].qid] = AnswerValue.index_set({99})
    assert score_task_c(gold, preds)["overall"] == 75.0


def test_flipping_a_correct_prediction_never_helps():
    gold = [gold_record(i, TaskId.C, QuestionType.PARENT_RELATION,
                        AnswerValue.index_set({i + 1})) for i in range(6)]
    preds = perfect_preds(gold)
    base = score_task_c(gold, preds)["overall"]
    preds[gold[3].qid] = AnswerValue.index_set({42})
    assert score_task_c(gold, preds)["overall"] < base


def test_strict_unknown_qid():
    gold = [gold_record(0)]
    preds = perfect_preds(gold)
    preds["ghost"] = AnswerValue.token("yes")
    with pytest.raises(UnknownQid):
        evaluate(gold, preds, strict=True)
    report = evaluate(gold, preds, strict=False)
    assert report["tasks"]["A"]["overall"] == 100.0


def test_strict_missing_prediction():
    gold = [gold_record(0), gold_record(1)]
    preds = {gold[0].qid: gold[0].answer}
    with pytest.raises(MissingPrediction):
        evaluate(gold, preds, strict=True)
    report = evaluate(gold, preds, strict=False)
    assert report["tasks"]["A"]["missing_predictions"] == 1
    assert report["tasks"]["A"]["overall"] < 100.0


def test_kind_mismatch():
    gold = [gold_record(0, TaskId.B, QuestionType.STRUCTURAL_UNDERSTANDING)]
    preds = {gold[0].qid: AnswerValue.token("yes")}
    with pytest.raises(KindMismatch):
        evaluate(gold, preds, strict=True)


def test_na_is_an_ordinary_task_b_class():
    gold = [gold_record(i, TaskId.B, QuestionType.STRUCTURAL_UNDERSTANDING,
                        AnswerValue.na() if i < 2 else AnswerValue.index(1))
            for i in range(4)]
    preds = perfect_preds(gold)
    fragment = score_task_ab(gold, preds)
    assert fragment["per_class"]["na"]["f1"] == 100.0
    assert fragment["gold_na"] == 2


def test_permutation_invariance():
    gold = mixed_gold()
    preds = perfect_preds(gold)
    preds[gold[0].qid] = AnswerValue.token("no")
    forward = evaluate(gold, preds, strict=True)
    backward = evaluate(list(reversed(gold)),
                        dict(reversed(list(preds.items()))), strict=True)
    assert forward["tasks"] == backward["tasks"]


def test_macro_equals_mean_of_reported_class_f1():
    gold = mixed_gold()
    preds = perfect_preds(gold)
    preds[gold[0].qid] = AnswerValue.token("no")
    fragment = score_task_ab([r for r in gold if r.task == TaskId.A], preds)
    mean = sum(v["f1"] for v in fragment["per_class"].values()) / len(fragment["per_class"])
    assert fragment["macro_f1"] == pytest.approx(round(mean, 2), abs=0.005)


def test_breakdown_table_shape():
    gold = mixed_gold()
    report = evaluate(gold, perfect_preds(gold), strict=True)
    table = breakdown(report)
    head, row = table.splitlines()
    assert head.split() == ["Existence", "Counting", "Struct-UD", "Obj-Reg",
                            "Parent", "Child", "A", "B", "C"]
    assert row.split() == ["100.0"] * 9


def test_breakdown_dash_for_missing_qtype():
    gold = [gold_record(i) for i in range(3)]  # existence only
    report = evaluate(gold, perfect_preds(gold), strict=True)
    row = breakdown(report).splitlines()[1].split()
    assert row == ["100.0", "-", "-", "-", "-", "-", "100.0", "-", "-"]


def test_breakdown_cells_match_filtered_recomputation():
    gold = mixed_gold()
    preds = perfect_preds(gold)
    for i in (0, 2, 11):
        preds[gold[i].qid] = AnswerValue.token("5")
    report = evaluate(gold, preds, strict=False)
    a_gold = [r for r in gold if r.task == TaskId.A]
    for qtype in (QuestionType.EXISTENCE, QuestionType.COUNTING):
        subset = [r for r in a_gold if r.qtype == qtype]
        fragment = score_task_ab(subset, preds)
        assert report["tasks"]["A"]["per_qtype"][qtype.value] == fragment["macro_f1"]


@pytest.mark.parametrize("averaging", ["Macro", "weighted", ""])
def test_unknown_averaging_is_a_bad_parameter(averaging):
    gold = mixed_gold()
    with pytest.raises(BadParameter, match="averaging"):
        score_task_ab([r for r in gold if r.task == TaskId.A], perfect_preds(gold), averaging)
    with pytest.raises(BadParameter, match="averaging"):
        evaluate(gold, perfect_preds(gold), averaging=averaging)
