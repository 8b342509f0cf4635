from __future__ import annotations

import math

import pytest

from reference import balance
from docqa_forge.balance import (
    BalanceConfig,
    balance_answers,
    balance_parameters,
    balance_report,
    reduction_factor,
)
from docqa_forge.errors import BadParameter
from docqa_forge.generator import QARecord
from docqa_forge.model import TaskId
from docqa_forge.programs import AnswerValue
from docqa_forge.templates import QuestionType


def rec(i, template_id="A12", answer="yes", task=TaskId.A,
        qtype=QuestionType.EXISTENCE, binding=None, doc="d0"):
    if isinstance(answer, str):
        value = AnswerValue.token(answer)
    else:
        value = answer
    return QARecord(qid=f"q{i:05d}", task=task, qtype=qtype, doc_id=doc,
                    page_index=None if task == TaskId.C else 0,
                    question=f"question {i}", template_id=template_id,
                    binding=binding or {"E": "table"}, answer=value)


def test_answer_downsampling_90_10():
    records = [rec(i, answer="yes") for i in range(90)]
    records += [rec(90 + i, answer="no") for i in range(10)]
    out = balance_answers(records, BalanceConfig(seed=7))
    yes = [r for r in out if r.answer.value == "yes"]
    no = [r for r in out if r.answer.value == "no"]
    assert len(yes) == 15  # ceil(1.5 x 10)
    assert len(no) == 10


def test_already_balanced_group_unchanged():
    records = [rec(i, answer="yes" if i < 10 else "no") for i in range(20)]
    assert balance_answers(records, BalanceConfig(seed=7)) == records


def test_single_answer_class_unchanged():
    records = [rec(i, answer="yes") for i in range(40)]
    assert balance_answers(records, BalanceConfig(seed=7)) == records


def test_output_is_order_preserving_subset():
    records = [rec(i, answer="yes" if i % 5 else "no") for i in range(200)]
    out = balance_answers(records, BalanceConfig(seed=3))
    qids = [r.qid for r in records]
    out_qids = [r.qid for r in out]
    assert set(out_qids) <= set(qids)
    assert out_qids == [q for q in qids if q in set(out_qids)]


def test_answer_balance_respects_bound_per_group():
    cfg = BalanceConfig(seed=11)
    records = []
    for g, template_id in enumerate(("A12", "A13", "A14")):
        skew = 30 * (g + 1)
        records += [rec(1000 * g + i, template_id=template_id, answer="yes")
                    for i in range(skew)]
        records += [rec(1000 * g + skew + i, template_id=template_id, answer="no")
                    for i in range(5)]
    out = balance_answers(records, cfg)
    for template_id in ("A12", "A13", "A14"):
        group = [r for r in out if r.template_id == template_id]
        yes = sum(1 for r in group if r.answer.value == "yes")
        no = sum(1 for r in group if r.answer.value == "no")
        assert max(yes, no) / min(yes, no) <= cfg.answer_ratio + 1 / min(yes, no)


def test_parameter_cap_at_double_median():
    records = []
    i = 0
    for count, label in ((40, "table"), (10, "figure"), (10, "list")):
        for _ in range(count):
            records.append(rec(i, template_id="A33", qtype=QuestionType.COUNTING,
                               answer=str(i % 3), binding={"E": label}))
            i += 1
    out = balance_parameters(records, BalanceConfig(seed=7))
    sizes = {}
    for r in out:
        sizes[r.binding["E"]] = sizes.get(r.binding["E"], 0) + 1
    assert sizes == {"table": 20, "figure": 10, "list": 10}  # cap = 2 x median(10)


def test_equal_combination_counts_unchanged():
    records = [rec(i, binding={"E": label})
               for i, label in enumerate(["table"] * 8 + ["figure"] * 8)]
    assert balance_parameters(records, BalanceConfig(seed=7)) == records


def test_task_c_passes_through_both_stages():
    records = [rec(i, template_id="C06", task=TaskId.C,
                   qtype=QuestionType.PARENT_RELATION,
                   answer=AnswerValue.index_set({i}),
                   binding={"E": f"Table {i}"})
               for i in range(25)]
    cfg = BalanceConfig(seed=7)
    assert balance_answers(records, cfg) == records
    assert balance_parameters(records, cfg) == records
    assert balance(records, cfg) == records


def test_determinism_same_seed():
    records = [rec(i, answer="yes" if i % 7 else "no") for i in range(300)]
    cfg = BalanceConfig(seed=5)
    assert balance(records, cfg) == balance(records, cfg)


def test_reduction_factor_paper_figures():
    assert reduction_factor(444967, 81085) == 5.49


def test_report_identity_ratios():
    records = [rec(i, answer="yes" if i % 2 else "no") for i in range(20)]
    report = balance_report(records, records)
    assert report["tasks"]["A"]["reduction_factor"] == 1.0
    assert report["answer_class_ratio"]["A"] == 1.0


def test_report_counts():
    before = [rec(i, answer="yes") for i in range(50)]
    after = before[:10]
    report = balance_report(before, after)
    assert report["tasks"]["A"] == {"before": 50, "after": 10, "reduction_factor": 5.0}
    assert report["tasks"]["C"] == {"before": 0, "after": 0, "reduction_factor": None}


def test_bad_ratio_bounds_rejected():
    with pytest.raises(ValueError):
        BalanceConfig(seed=1, answer_ratio=0.5)


@pytest.mark.parametrize("field", ["answer_ratio", "param_ratio"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_ratio_rejected_at_construction(field, value):
    with pytest.raises(BadParameter, match=f"{field} must be a finite number >= 1"):
        BalanceConfig(seed=1, **{field: value})


def test_adversarial_skew_bound():
    # 95/5 skew in every group; after answer balancing each group's
    # max/min ratio obeys ceil(1.5 x 5) / 5
    cfg = BalanceConfig(seed=13)
    records = []
    for g, template_id in enumerate(("A12", "A13", "A14", "A15", "A16")):
        base = 10_000 * g
        records += [rec(base + i, template_id=template_id, answer="yes")
                    for i in range(95)]
        records += [rec(base + 95 + i, template_id=template_id, answer="no")
                    for i in range(5)]
    out = balance_answers(records, cfg)
    for template_id in ("A12", "A13", "A14", "A15", "A16"):
        group = [r for r in out if r.template_id == template_id]
        yes = sum(1 for r in group if r.answer.value == "yes")
        no = sum(1 for r in group if r.answer.value == "no")
        assert yes == math.ceil(cfg.answer_ratio * 5) and no == 5


def test_report_skew_ratios_by_hand():
    # A12: answers yes 7 / no 2 = 3.5; combos table 7 / median(2, 7) = 7 / 4.5
    # A13: answers yes 3 / no 2 = 1.5; combos list 3 / median(1, 1, 3) = 3.0
    # B01: answers 0: 7 / 1: 6 = 7 / 6; combos first 7 / median(3, 3, 7) = 7 / 3
    rows = ([("A12", "yes", "table")] * 5 + [("A12", "yes", "figure")] * 2
            + [("A12", "no", "table")] * 2 + [("A13", "yes", "list")] * 3
            + [("A13", "no", "table"), ("A13", "no", "figure")])
    records = [rec(i, template_id=t, answer=a, binding={"E": e})
               for i, (t, a, e) in enumerate(rows)]
    for i, (index, turn) in enumerate([(0, "first")] * 7 + [(1, "second")] * 3
                                      + [(1, "third")] * 3):
        records.append(rec(100 + i, template_id="B01", task=TaskId.B,
                           qtype=QuestionType.STRUCTURAL_UNDERSTANDING,
                           answer=AnswerValue.index(index), binding={"turn": turn}))
    records += [rec(200 + i, template_id="C06", task=TaskId.C,
                    qtype=QuestionType.PARENT_RELATION, answer=AnswerValue.index_set({i}),
                    binding={"E": f"Table {i}"}) for i in range(3)]
    report = balance_report(records, records)
    assert report["answer_class_ratio"] == {"A": 3.5, "B": 1.1667, "C": None}
    assert report["param_combo_ratio"] == {"A": 3.0, "B": 2.3333, "C": None}

    # a task with no records left after balancing has no skew to report
    report = balance_report(records, [r for r in records if r.task != TaskId.B])
    assert report["tasks"]["B"] == {"before": 13, "after": 0, "reduction_factor": None}
    assert report["answer_class_ratio"] == {"A": 3.5, "B": None, "C": None}
    assert report["param_combo_ratio"] == {"A": 3.0, "B": None, "C": None}
