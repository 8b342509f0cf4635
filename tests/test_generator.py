from __future__ import annotations

import itertools

import pytest

from conftest import build_document, stack_annotation
from synthcorpus import random_processed_document
from docqa_forge import generator as generator_module
from docqa_forge import graphs as graphs_module
from docqa_forge.errors import BadParameter
from docqa_forge.generator import (
    Binding,
    GenConfig,
    binding_layout,
    count_by_type,
    generate_corpus,
    generate_document,
    make_qid,
    resolve_workers,
)
from docqa_forge.graphs import build_graphs
from docqa_forge.hashing import stable_hex, stable_int, stable_unit
from docqa_forge.model import TaskId
from docqa_forge.programs import compile_program, execute, scope_for
from docqa_forge.templates import (
    RELATION_PHRASES,
    canonical_binding,
    enumerate_bindings,
    instantiate,
    load_templates,
)

REG = load_templates()


def _page_records(page, doc, cfg):
    """The records generate_document gives for one page."""
    return [r for r in generate_document(doc, cfg)[0] if r.page_index == page.index]


def test_existence_no_record_present(p1_doc):
    cfg = GenConfig(seed=7, tasks=("A",))
    records = _page_records(p1_doc.pages[0], p1_doc, cfg)
    hits = [r for r in records
            if r.template_id == "A01" and r.binding == {"E": "figure", "pos": "top"}]
    assert len(hits) == 1
    assert hits[0].answer.value == "no"


def test_templates_of_one_group_share_each_binding_row(p1_doc):
    # a group's bindings are enumerated once per scope, and the read-only
    # binding of each row is one object for the records of all its templates
    records = generate_document(p1_doc, GenConfig(seed=7, na_retention=1.0))[0]
    rows: dict[tuple, list] = {}
    for r in records:
        row = (r.page_index, REG.by_id(r.template_id).group, canonical_binding(r.binding))
        rows.setdefault(row, []).append(r)
    shared = [rs for rs in rows.values() if len({r.template_id for r in rs}) > 1]
    assert {r.task for rs in shared for r in rs} == {TaskId.A, TaskId.B, TaskId.C}
    for rs in shared:
        assert all(r.binding is rs[0].binding for r in rs)
    with pytest.raises(TypeError):
        records[0].binding["E"] = "figure"
    assert len({id(r.binding) for r in records}) == len(rows)
    # the slot names are a tuple of the registry's, not one per binding
    assert len({id(r.binding._names) for r in records}) <= len({r.template_id for r in records})


def test_a_binding_layout_is_its_names_and_values_in_order():
    binding = Binding(("E", "pos"), ("table", "top"))
    assert binding_layout(binding) == (("E", "pos"), ("table", "top"))
    assert binding_layout(dict(binding)) == binding_layout(binding)
    # an equal binding in another order is laid out apart
    assert binding_layout({"pos": "top", "E": "table"}) == (("pos", "E"), ("top", "table"))


def test_records_sorted_canonically_within_template(p1_doc):
    from docqa_forge.templates import canonical_binding

    cfg = GenConfig(seed=7, tasks=("A",))
    records = _page_records(p1_doc.pages[0], p1_doc, cfg)
    per_template: dict[str, list[str]] = {}
    for r in records:
        per_template.setdefault(r.template_id, []).append(canonical_binding(r.binding))
    for keys in per_template.values():
        assert keys == sorted(keys)


def test_overflow_questions_dropped():
    doc = build_document(stack_annotation("d", [[("figure", "")] * 7 + [("text", "x")]]))
    cfg = GenConfig(seed=7, tasks=("A",))
    records = _page_records(doc.pages[0], doc, cfg)
    bare_counts = [r for r in records if r.template_id == "A33"]
    labels = {r.binding["E"] for r in bare_counts}
    assert "figure" not in labels  # 7 figures exceed the answer space
    assert "table" in labels        # 0 tables is a fine answer


def test_excluded_page_produces_no_records():
    blocks = [("text", f"t{i}") for i in range(26)]
    doc = build_document(stack_annotation("big", [blocks]))
    result = generate_corpus([doc], GenConfig(seed=7, tasks=("A", "B")))
    assert result.records == []
    assert any(e.scope == "page" for e in result.excluded)


def test_determinism_same_seed():
    docs = [random_processed_document(s) for s in (400, 401)]
    first = generate_corpus(docs, GenConfig(seed=7))
    second = generate_corpus(docs, GenConfig(seed=7))
    assert first.records == second.records
    assert first.config_hash == second.config_hash


def test_worker_count_does_not_change_output():
    docs = [random_processed_document(s) for s in (410, 411, 412)]
    serial = generate_corpus(docs, GenConfig(seed=7), max_workers=1)
    parallel = generate_corpus(docs, GenConfig(seed=7), max_workers=4)
    assert serial.records == parallel.records


def test_qids_unique_and_reproducible():
    docs = [random_processed_document(s) for s in (420, 421)]
    result = generate_corpus(docs, GenConfig(seed=7))
    qids = [r.qid for r in result.records]
    assert len(qids) == len(set(qids))
    sample = result.records[0]
    assert sample.qid == make_qid(sample.doc_id, sample.page_index,
                                  sample.template_id, sample.binding)


def test_answers_recomputable():
    doc = random_processed_document(430)
    result = generate_corpus([doc], GenConfig(seed=7))
    graphs = build_graphs(doc)
    pages = {p.index: p for p in doc.pages}
    for record in result.records[::17]:
        tpl = REG.by_id(record.template_id)
        page = pages[record.page_index] if record.page_index is not None else None
        answer = execute(compile_program(tpl, record.binding),
                         scope_for(record.task, doc, page), graphs)
        assert answer == record.answer


def test_scope_discipline():
    docs = [random_processed_document(s) for s in (440, 441)]
    result = generate_corpus(docs, GenConfig(seed=7))
    by_doc = {d.doc_id: d for d in docs}
    for record in result.records:
        doc = by_doc[record.doc_id]
        if record.task == TaskId.C:
            assert record.page_index is None
            if record.answer.kind == "index_set":
                assert set(record.answer.value) <= {
                    el.doc_reading_index for el in doc.elements()}
        else:
            page = doc.pages[record.page_index]
            if record.answer.kind == "index":
                assert 0 <= record.answer.value < len(page.elements)


def test_flat_document_has_no_child_records():
    doc = build_document(stack_annotation("flat", [[
        ("title", "Intro"),
        ("text", "a"),
        ("title", "Conclusion"),
        ("text", "b"),
    ]]))
    records = generate_document(doc, GenConfig(seed=7, tasks=("C",)))[0]
    assert all(r.qtype.value != "child_relation" for r in records)


def test_unmentioned_reference_emits_nothing():
    annotation = stack_annotation("refs", [[
        ("title", "Intro"),
        ("text", "no citations at all"),
    ]], references=["Ghost X et al,2000"])
    doc = build_document(annotation)
    records = generate_document(doc, GenConfig(seed=7, tasks=("C",)))[0]
    assert all("Ghost" not in str(r.binding) for r in records)


def test_na_retention_rates(hierarchy_doc):
    page = hierarchy_doc.pages[1]
    keep_all = _page_records(page, hierarchy_doc,
                            GenConfig(seed=7, tasks=("B",), na_retention=1.0))
    keep_none = _page_records(page, hierarchy_doc,
                             GenConfig(seed=7, tasks=("B",), na_retention=0.0))
    nas_all = [r for r in keep_all if r.answer.kind == "na"]
    nas_none = [r for r in keep_none if r.answer.kind == "na"]
    assert nas_all and not nas_none
    non_na = lambda rs: [r for r in rs if r.answer.kind != "na"]  # noqa: E731
    assert non_na(keep_all) == non_na(keep_none)


def test_per_template_cap():
    doc = random_processed_document(450, n_pages=1)
    capped = generate_corpus([doc], GenConfig(seed=7, tasks=("A",), per_template_cap=5))
    per_template: dict[str, int] = {}
    for r in capped.records:
        per_template[r.template_id] = per_template.get(r.template_id, 0) + 1
    assert per_template
    assert max(per_template.values()) <= 5


def test_corpus_additivity():
    docs = [random_processed_document(s) for s in range(460, 466)]
    whole = generate_corpus(docs, GenConfig(seed=7))
    parts = sum(len(generate_corpus([d], GenConfig(seed=7)).records) for d in docs)
    assert len(whole.records) == parts


# doc ids and titles the hashes must encode alike: non-ASCII, quoted, plain
ODD_IDS = ("doc", "dé'\"文", "Résumé \"draft\"")


def test_inlined_hashes_equal_the_stable_helpers():
    # make_qid, the N/A draw and the synonym pick format their payloads in one
    # f-string; each must equal the hashing helper over the same parts
    for doc_id, page, binding in itertools.product(
            ODD_IDS, (None, 0, 3), ({"E": "table"}, {"E1": "list", "R": "top", "E2": ODD_IDS[1]})):
        key = canonical_binding(binding)
        expected = stable_hex("qid", doc_id, "" if page is None else page, "A23", key)
        assert make_qid(doc_id, page, "A23", binding) == expected
        assert make_qid(doc_id, page, "A23", binding, key=key) == expected

    tpl = REG.by_id("A23")
    for title, relation, seed in itertools.product(ODD_IDS, ("top", "left"), range(5)):
        binding = {"E1": "table", "R": relation, "E2": title}
        phrases = RELATION_PHRASES[relation]
        pick = stable_int(seed, "A23", canonical_binding(binding), "R") % len(phrases)
        assert instantiate(tpl, binding, seed).text == \
            f"How many tables are {phrases[pick]} the '{title}'?"

    page = [("title", title) for title in ODD_IDS[1:]] + [("text", "x"), ("table", "")]
    doc = build_document(stack_annotation(ODD_IDS[1], [page]))
    every = generate_document(doc, GenConfig(seed=7, tasks=("B",), na_retention=1.0))[0]
    na_qids = [r.qid for r in every if r.answer.kind == "na"]
    assert len(na_qids) > 10
    for retention in (0.2, 0.5, 0.8):
        kept = generate_document(doc, GenConfig(seed=7, tasks=("B",), na_retention=retention))[0]
        assert [r.qid for r in kept if r.answer.kind == "na"] == \
            [q for q in na_qids if stable_unit(7, "na", q) < retention]


@pytest.mark.parametrize("parts, hex_, int_, unit", [
    (("qid", "doc", "", "A23", "E=table"), "8aa36f106e507a77", 9989950514798819959,
     0.5415563025583782),
    ((7, "na", ODD_IDS[1], "x"), "580247f8b9ec487d", 6341710358887811197, 0.34378480741899964),
    ((1, None, 0, -3, "A23"), "386dc0b4ed969f3e", 4066117921898143550, 0.2204246942252106),
    (("qid", 229), "00c8f62dc14895a0", 56565671718852000, 0.00306643120828406),
])
def test_stable_hashes_keep_their_literal_values(parts, hex_, int_, unit):
    # every qid, N/A draw, synonym pick and balance rank follows from these
    assert stable_hex(*parts) == hex_
    assert stable_int(*parts) == int_
    assert stable_unit(*parts) == unit


def test_generator_calls_each_traced_function_once_per_record_or_binding(monkeypatch):
    # the benchmark's per-layer counts (templates.instantiate.calls,
    # programs.compile_program.calls, programs.execute.calls) rely on these
    enumerated = []
    real_enumerate = generator_module.enumerate_bindings

    def counted_enumerate(*args):
        enumerated.append(real_enumerate(*args))
        return enumerated[-1]

    monkeypatch.setattr(generator_module, "enumerate_bindings", counted_enumerate)
    calls = {name: _count_calls(monkeypatch, generator_module, name)
             for name in ("instantiate", "make_qid", "compile_program", "execute")}
    docs = [random_processed_document(s) for s in (490, 491)]
    records = generate_corpus(docs, GenConfig(seed=7)).records
    bindings = sum(map(len, enumerated))
    assert len(records) > bindings > 100
    assert len(calls["instantiate"]) == len(records)
    assert len(calls["compile_program"]) == len(calls["execute"]) == bindings
    # a qid is drawn for every record and for every N/A answer that was dropped
    assert len(calls["make_qid"]) > len(records)
    assert [args[0].template_id for args in calls["instantiate"]] == \
        [r.template_id for r in records]


def test_count_report_shape():
    counts = count_by_type([])
    assert counts == {
        "A": {"existence": 0, "counting": 0},
        "B": {"structural_understanding": 0, "object_recognition": 0},
        "C": {"parent_relation": 0, "child_relation": 0},
    }


def test_empty_corpus():
    result = generate_corpus([], GenConfig(seed=7))
    assert result.records == [] and result.excluded == []


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        GenConfig(seed=1, na_retention=1.5)
    with pytest.raises(ValueError):
        GenConfig(seed=1, tasks=("A", "D"))
    with pytest.raises(ValueError):
        GenConfig(seed=1, per_template_cap=-1)


@pytest.mark.parametrize("field, value", [
    ("per_template_cap", 2.5),
    ("per_template_cap", True),
    ("tasks", ()),
    ("na_retention", float("nan")),
])
def test_bad_config_is_bad_parameter_at_construction(field, value):
    with pytest.raises(BadParameter, match=field):
        GenConfig(seed=1, **{field: value})


@pytest.mark.parametrize("explicit, threads, named", [
    (-3, None, "max_workers"),
    (1.5, None, "max_workers"),
    (None, "abc", "FORGE_THREADS"),
    (None, "-2", "FORGE_THREADS"),
])
def test_resolve_workers_rejects_bad_values(monkeypatch, explicit, threads, named):
    if threads is None:
        monkeypatch.delenv("FORGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("FORGE_THREADS", threads)
    with pytest.raises(ValueError, match=named):
        resolve_workers(explicit)


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_generation_builds_each_graph_and_scope_once(monkeypatch):
    small = [[("title", "Results"), ("table", ""), ("text", "Table 1 shows it.")]]
    crowded = [[("text", f"block {i}") for i in range(27)]]
    doc = build_document(stack_annotation("d", small + small + crowded))
    spatial = _count_calls(monkeypatch, graphs_module, "build_spatial_graph")
    # scope_for as the generator looks it up
    scopes = _count_calls(monkeypatch, generator_module, "scope_for")

    generate_corpus([doc], GenConfig(seed=1, tasks=("C",)))
    assert spatial == []
    assert [args[0] for args in scopes] == [TaskId.C]

    scopes.clear()
    result = generate_corpus([doc], GenConfig(seed=1, tasks=("A", "B")))
    assert len(result.records) > 2 * len(scopes)
    assert sorted(args[0].index for args in spatial) == [0, 1]  # not the 27-element page
    assert [(args[0], args[2].index) for args in scopes] == [
        (TaskId.A, 0), (TaskId.B, 0), (TaskId.A, 1), (TaskId.B, 1)]


def test_each_group_is_evaluated_once_per_scope(monkeypatch, hierarchy_doc):
    # enumerate_bindings and execute as the generator looks them up; each
    # execute call is tagged with the group of the enumeration before it
    enumerated, executed = [], []
    real_enumerate, real_execute = generator_module.enumerate_bindings, generator_module.execute

    def counted_enumerate(*args):
        bindings = real_enumerate(*args)
        page = args[2]
        enumerated.append((args[0].group, None if page is None else page.index, len(bindings)))
        return bindings

    def counted_execute(*args):
        program, scope = args[0], args[1]
        page = getattr(scope, "page", None)  # a DocumentScope has none
        executed.append((enumerated[-1][0], None if page is None else page.index, program))
        return real_execute(*args)

    monkeypatch.setattr(generator_module, "enumerate_bindings", counted_enumerate)
    monkeypatch.setattr(generator_module, "execute", counted_execute)

    result = generate_corpus([hierarchy_doc], GenConfig(seed=1))
    groups = {task: {tpl.group for tpl in REG.for_task(task)} for task in TaskId}
    assert sorted(key[:2] for key in enumerated) == sorted(
        [(group, index) for index in (0, 1)
         for group in groups[TaskId.A] | groups[TaskId.B]]
        + [(group, None) for group in groups[TaskId.C]])
    assert len(executed) == len(set(executed)) == sum(n for _, _, n in enumerated)
    assert {program.task for _, _, program in executed} == set(TaskId)
    assert len(result.records) > len(executed)


def test_per_template_cap_ranks_each_template_of_a_group(hierarchy_doc):
    cap = 2
    cfg = GenConfig(seed=7, tasks=("A",), per_template_cap=cap)
    page = hierarchy_doc.pages[0]
    records = _page_records(page, hierarchy_doc, cfg)
    group = [tpl for tpl in REG if tpl.group == "exist_bare"]
    bindings = enumerate_bindings(group[0], hierarchy_doc, page)
    assert len(bindings) > cap
    kept = {}
    for tpl in group:
        ranked = sorted(bindings, key=lambda b: stable_unit(
            cfg.seed, "cap", hierarchy_doc.doc_id, page.index, tpl.template_id,
            canonical_binding(b)))
        kept[tpl.template_id] = sorted(canonical_binding(b) for b in ranked[:cap])
        assert sorted(canonical_binding(r.binding) for r in records
                      if r.template_id == tpl.template_id) == kept[tpl.template_id]
    assert len({tuple(keys) for keys in kept.values()}) > 1


def test_title_anchors_are_quotable_titles_unique_in_scope():
    # locate_text finds a title by a quotable text that is unique in its scope;
    # a binding that broke this rule would end generation with AnchorNotFound
    doc = build_document(stack_annotation("anchors", [[
        ("title", "Results"), ("text", "a"), ("title", "Author's note"), ("table", ""),
        ("title", "Methods"), ("text", "b"), ("title", "Results"), ("figure", "")]]))
    result = generate_corpus([doc], GenConfig(seed=7, na_retention=1.0))
    anchor_kinds = {"page_title_anchor", "doc_title_anchor"}
    quoted = [r.binding[slot.name] for r in result.records
              for slot in REG.by_id(r.template_id).slots if slot.kind in anchor_kinds]
    assert "Methods" in quoted
    assert "Results" not in quoted and "Author's note" not in quoted


@pytest.mark.parametrize("workers", [1, 2])
def test_corpus_is_the_per_document_outputs_in_doc_id_order(workers):
    crowded = build_document(stack_annotation("crowded", [
        [("title", "Intro"), ("table", ""), ("text", "body")],
        [("text", f"block {i}") for i in range(27)]]))
    docs = [random_processed_document(s) for s in (470, 471)] + [crowded]
    cfg = GenConfig(seed=7)
    result = generate_corpus(docs, cfg, max_workers=workers)
    outputs = [generate_document(d, cfg) for d in sorted(docs, key=lambda d: d.doc_id)]
    assert any(e.scope == "page" for _, excluded in outputs for e in excluded)
    assert result.records == [r for records, _ in outputs for r in records]
    assert result.excluded == [e for _, excluded in outputs for e in excluded]
