import json
from pathlib import Path

import run
import synth


def test_same_seed_gives_identical_bytes(tmp_path):
    first = synth.write_corpus(synth.pages_corpus(3, 40), tmp_path / "a")
    again = synth.write_corpus(synth.pages_corpus(3, 40), tmp_path / "b")
    other = synth.write_corpus(synth.pages_corpus(4, 40), tmp_path / "c")
    assert first == again != other
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_corpus_shapes():
    pages = synth.pages_corpus(3, 40)
    assert sum(synth.page_units(d) for d in pages) == 40
    assert all(len(d["pages"]) == 3 for d in pages)
    longdocs = synth.longdocs_corpus(3, 4)
    assert all(sum(len(p["elements"]) for p in d["pages"]) < synth.DOC_ELEMENT_LIMIT
               for d in longdocs)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
