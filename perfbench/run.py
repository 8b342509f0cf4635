"""docqa-forge pipeline benchmark.

    python3 perfbench/run.py --workload pages-serial --seed 1 --seconds 60 --trace 0

Builds a seeded synthetic annotation corpus, then drives the real `forge`
pipeline in-process through `docqa_forge.cli.main(argv)`. One closed-loop
client submits one batch job (the workload's chain of CLI steps) at a time,
for `--seconds` seconds after one untimed warm-up job. Outputs are checked
after the timed interval. The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`; a summary goes to stderr.

With `--trace 0` the metrics are the end-to-end ones (medians over the timed
jobs). With `--trace 1` untraced and traced jobs alternate; the traced ones
wrap the public functions of each layer at the module attribute their caller
looks up, and give the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

import synth
from spans import Tracer, tracer_self_times, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
BASELINE = HERE / "baseline.json"

# Corpus sizes keep a job near one second: on a shared host, the median of
# many short jobs spread less from run to run than that of a few long ones
# over the same time (see README.md, "Baseline and bounds"). Page corpora
# are sized in page units (synth.page_units).
PAGE_UNITS = 24
LONG_DOCS = 8

MIN_TIMED_JOBS = 3
MIN_TRACED_JOBS = 2

SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import docqa_forge; "
    "docqa_forge.load_templates(); print('ready', flush=True)"
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _chain(d: Path, seed: int, source: Path, tasks: str, balance_report: bool) -> list[list[str]]:
    s = str(seed)
    balance = ["balance", "--in", str(d / "raw.jsonl"), "--out", str(d / "balanced.jsonl"),
               "--seed", s]
    if balance_report:
        balance += ["--report", str(d / "balance.json")]
    return [
        ["generate", "--in", str(source), "--out", str(d / "raw.jsonl"), "--seed", s,
         "--tasks", tasks, "--workers", "1"],
        balance,
        ["split", "--in", str(d / "balanced.jsonl"), "--out-dir", str(d / "dataset"),
         "--ratios", "0.7,0.1,0.2", "--seed", s],
        ["stats", "--in", str(d / "dataset"), "--out", str(d / "stats.json")],
        ["eval", "--gold", str(d / "dataset" / "test.jsonl"), "--pred", str(d / "preds.jsonl"),
         "--strict", "--out", str(d / "eval.json")],
    ]


def pages_serial_steps(d: Path, seed: int) -> list[list[str]]:
    return _chain(d, seed, d / "corpus", "A,B,C", balance_report=True)


def longdocs_steps(d: Path, seed: int) -> list[list[str]]:
    processed = d / "corpus.processed.json"
    ingest = ["ingest", "--in", str(d / "corpus"), "--out", str(processed)]
    return [ingest] + _chain(d, seed, processed, "C", balance_report=False)


@dataclass(frozen=True)
class Workload:
    corpus: Callable[[int], list[dict]]  # seed -> annotation documents
    steps: Callable[[Path, int], list[list[str]]]  # (work dir, seed) -> forge argvs


WORKLOADS = {
    "pages-serial": Workload(partial(synth.pages_corpus, unit_target=PAGE_UNITS),
                             pages_serial_steps),
    "longdocs-c": Workload(partial(synth.longdocs_corpus, n_docs=LONG_DOCS), longdocs_steps),
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("records_per_s", "rec/s"),
    ("peak_rss_mb", "MiB"),
)

# Layer spans whose self time is reported, named module.function.
SELF_TIMED = (
    "cli.load_corpus",
    "ingest.parse_document", "ingest.preprocess_document",
    "ingest.document_to_processed", "ingest.document_from_processed",
    "ingest.validate_for_generation",
    "graphs.build_graphs",
    "templates.enumerate_bindings", "templates.instantiate",
    "programs.scope_for", "programs.compile_program", "programs.execute",
    "generator.make_qid", "generator.generate_corpus",
    "dataset.write_records_jsonl", "dataset.read_records_jsonl",
    "dataset.split_corpus", "dataset.write_dataset", "dataset.read_dataset",
    "dataset.compute_stats",
    "balance.balance_answers", "balance.balance_parameters", "balance.balance_report",
    "evaluate.read_predictions_jsonl", "evaluate.evaluate",
)

PER_LAYER = tuple((f"{name}.self_s", "s") for name in SELF_TIMED) + (
    ("ingest.elements", "count"),
    ("graphs.spatial_pages", "count"),
    ("graphs.spatial_used_ratio", "ratio"),
    ("templates.enumerate_bindings.calls", "count"),
    ("templates.bindings", "count"),
    ("templates.instantiate.calls", "count"),
    ("programs.compile_program.calls", "count"),
    ("programs.execute.calls", "count"),
    ("programs.execute.raised", "count"),
    ("generator.yield_ratio", "ratio"),
    ("generator.result_bytes", "B"),
    ("dataset.jsonl_bytes", "B"),
    ("balance.kept_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)


def _count_elements(tracer, args, doc):
    tracer.add("ingest.elements", doc.element_count)


def _count_spatial(tracer, args, graphs):
    tracer.add("graphs.spatial_pages", len(graphs.spatial))


def _count_bindings(tracer, args, bindings):
    tracer.add("templates.bindings", len(bindings))
    doc, page = args[1], args[2]
    if page is not None:
        tracer.mark("ab_pages", (doc.doc_id, page.index))


def _count_results(tracer, args, result):
    """Records, and the pickled size of the per-document (doc_id, records,
    exclusions) tuples: what each generation worker ships to the parent."""
    by_doc = {doc.doc_id: ([], []) for doc in args[0]}
    for record in result.records:
        by_doc[record.doc_id][0].append(record)
    for exclusion in result.excluded:
        by_doc[exclusion.doc_id][1].append(exclusion)
    tracer.add("generator.records", len(result.records))
    tracer.add("generator.result_bytes",
               sum(len(pickle.dumps((doc_id, recs, excl)))
                   for doc_id, (recs, excl) in by_doc.items()))


def _count_jsonl(tracer, args, _):
    tracer.add("dataset.jsonl_bytes", os.path.getsize(args[1]))


def _count_balance_in(tracer, args, _):
    tracer.add("balance.in", len(args[0]))


def _count_balance_out(tracer, args, kept):
    tracer.add("balance.out", len(kept))


# (module, attribute the caller looks up, span name, count hook)
TRACE_TARGETS = (
    ("docqa_forge.cli", "load_corpus", "cli.load_corpus", None),
    ("docqa_forge.cli", "parse_document", "ingest.parse_document", None),
    ("docqa_forge.cli", "preprocess_document", "ingest.preprocess_document", _count_elements),
    ("docqa_forge.cli", "document_to_processed", "ingest.document_to_processed", None),
    ("docqa_forge.cli", "document_from_processed", "ingest.document_from_processed",
     _count_elements),
    ("docqa_forge.generator", "validate_for_generation", "ingest.validate_for_generation", None),
    ("docqa_forge.generator", "build_graphs", "graphs.build_graphs", _count_spatial),
    ("docqa_forge.generator", "enumerate_bindings", "templates.enumerate_bindings",
     _count_bindings),
    ("docqa_forge.generator", "instantiate", "templates.instantiate", None),
    ("docqa_forge.generator", "scope_for", "programs.scope_for", None),
    ("docqa_forge.generator", "compile_program", "programs.compile_program", None),
    ("docqa_forge.generator", "execute", "programs.execute", None),
    ("docqa_forge.generator", "make_qid", "generator.make_qid", None),
    ("docqa_forge.cli", "generate_corpus", "generator.generate_corpus", _count_results),
    ("docqa_forge.cli", "write_records_jsonl", "dataset.write_records_jsonl", _count_jsonl),
    ("docqa_forge.dataset", "write_records_jsonl", "dataset.write_records_jsonl", _count_jsonl),
    ("docqa_forge.cli", "read_records_jsonl", "dataset.read_records_jsonl", None),
    ("docqa_forge.dataset", "read_records_jsonl", "dataset.read_records_jsonl", None),
    ("docqa_forge.cli", "split_corpus", "dataset.split_corpus", None),
    ("docqa_forge.cli", "write_dataset", "dataset.write_dataset", None),
    ("docqa_forge.cli", "read_dataset", "dataset.read_dataset", None),
    ("docqa_forge.cli", "compute_stats", "dataset.compute_stats", None),
    ("docqa_forge.cli", "balance_answers", "balance.balance_answers", _count_balance_in),
    ("docqa_forge.cli", "balance_parameters", "balance.balance_parameters", _count_balance_out),
    ("docqa_forge.cli", "balance_report", "balance.balance_report", None),
    ("docqa_forge.cli", "read_predictions_jsonl", "evaluate.read_predictions_jsonl", None),
    ("docqa_forge.cli", "evaluate", "evaluate.evaluate", None),
)


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer values of one traced job (trace.overhead_s excluded)."""
    self_s, calls = tracer_self_times(tracer)
    counts = tracer.counts
    m = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
    for name in ("templates.enumerate_bindings", "templates.instantiate",
                 "programs.compile_program", "programs.execute"):
        m[f"{name}.calls"] = calls[name]
    m["programs.execute.raised"] = counts["programs.execute.raised"]
    for name in ("ingest.elements", "graphs.spatial_pages", "templates.bindings",
                 "generator.result_bytes", "dataset.jsonl_bytes"):
        m[name] = counts[name]
    m["graphs.spatial_used_ratio"] = _ratio(len(tracer.keys.get("ab_pages", ())),
                                            counts["graphs.spatial_pages"])
    m["generator.yield_ratio"] = _ratio(counts["generator.records"], calls["programs.execute"])
    m["balance.kept_ratio"] = _ratio(counts["balance.out"], counts["balance.in"])
    return m


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

class BenchError(Exception):
    pass


class Terminated(BaseException):
    """SIGTERM. A BaseException, so that run_job does not take it for a
    failed step: the run stops, shuts its worker pool down and removes its
    work directory on the way out."""


def _terminate(signum, frame):
    raise Terminated()


def time_setup() -> float:
    """Seconds from starting a fresh interpreter until `import docqa_forge`
    and `load_templates()` have finished, as seen by this process."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children
    (generation workers are reaped when their pool shuts down)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    generate_s: float
    exit_codes: list
    errors: list
    tracer: object = None


def run_job(cli, steps, tracer=None) -> Job:
    """One batch job: every step of the chain, back to back. CLI chatter is
    kept off the benchmark's own output."""
    codes, errors, generate_s = [], [], 0.0
    sink = io.StringIO()
    cpu0 = cpu_seconds()
    t0 = perf_counter()
    for argv in steps:
        ts = perf_counter()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # a crash is a failed step, not a dead benchmark
                code = 1
                errors.append(traceback.format_exc())
        if argv[0] == "generate":
            generate_s = perf_counter() - ts
        codes.append(code)
        if code != 0:
            errors.append(f"forge {argv[0]} exited {code}: {sink.getvalue()[-2000:]}")
        sink.seek(0)
        sink.truncate()
    wall = perf_counter() - t0
    return Job(wall, cpu_seconds() - cpu0, generate_s, codes, errors, tracer)


def load_baseline() -> dict:
    return json.loads(BASELINE.read_text(encoding="utf-8"))


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import checks  # imports docqa_forge, so only once src/ is on the path
    from docqa_forge import cli

    workload = WORKLOADS[workload_name]
    time_setup()  # warms the bytecode and file caches; not counted
    # One setup probe before every job, so that setup_s samples the same
    # stretch of time as the jobs do.
    setup = [time_setup()]

    docs = workload.corpus(seed)
    corpus_sha = synth.write_corpus(docs, work / "corpus")
    steps = workload.steps(work, seed)
    raw = work / "raw.jsonl"
    has_eval = steps[-1][0] == "eval"
    tally = checks.Tally()
    jobs: list[Job] = []

    # Untimed warm-up job: fills caches, and its test split seeds the
    # prediction files the timed jobs score.
    warm = run_job(cli, steps[:-1] if has_eval else steps)
    expected_wrong = expected_gold = None
    test_split = work / "dataset" / "test.jsonl"
    if has_eval and test_split.exists():
        expected_wrong = checks.write_predictions(test_split, work / "preds.jsonl", seed, True)
        expected_gold = checks.write_predictions(test_split, work / "gold_preds.jsonl", seed,
                                                 False)
    raw_sha = checks.sha256_file(raw) if raw.exists() else None

    timed_start = perf_counter()
    while True:
        setup.append(time_setup())
        traced = trace and len(jobs) % 2 == 1
        tracer = None
        if traced:
            tracer = Tracer(f"{workload_name}-seed{seed}-job{len(jobs)}")
            tracer.install(TRACE_TARGETS)
        try:
            job = run_job(cli, steps, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        jobs.append(job)
        tally.check(raw.exists() and checks.sha256_file(raw) == raw_sha,
                    f"job {len(jobs)}: raw JSONL differs from the warm-up job's")
        enough = len(jobs) >= (2 * MIN_TRACED_JOBS if trace else MIN_TIMED_JOBS)
        if enough and perf_counter() - timed_start >= seconds:
            break
    peak_rss = peak_rss_mib()

    # Output checks, outside the timed interval.
    for job in [warm] + jobs:
        for code, argv in zip(job.exit_codes, steps):
            tally.check(code == 0, f"forge {argv[0]} exited {code}")
        tally.messages.extend(job.errors[:2])
    records = count_lines(raw) if raw.exists() else 0
    if raw.exists():
        checks.check_raw(tally, raw, work / "raw.jsonl.manifest.json")
    if expected_wrong is not None:
        checks.check_scores(tally, work / "eval.json", expected_wrong)
        gold_eval = ["eval", "--gold", str(test_split), "--pred",
                     str(work / "gold_preds.jsonl"), "--strict", "--out",
                     str(work / "eval_gold.json")]
        gold_job = run_job(cli, [gold_eval])
        if tally.check(gold_job.exit_codes == [0], "gold-as-prediction eval failed"):
            checks.check_scores(tally, work / "eval_gold.json", expected_gold)
    elif has_eval:
        tally.check(False, "no test split to build predictions from")
    if workload_name == "pages-serial":
        # The process pool must not change the output: 2 workers on the same
        # corpus give the same bytes as the timed 1-worker generate.
        parallel = list(steps[0])
        parallel[parallel.index("--workers") + 1] = "2"
        parallel[parallel.index("--out") + 1] = str(work / "raw_parallel.jsonl")
        parallel_job = run_job(cli, [parallel])
        tally.check(parallel_job.exit_codes == [0] and raw_sha is not None
                    and checks.sha256_file(work / "raw_parallel.jsonl") == raw_sha,
                    "2-worker raw JSONL differs from the 1-worker output")
    golden = load_baseline()["digests"].get(workload_name, {}).get(str(seed))
    if golden is not None:
        tally.check(golden["corpus_sha256"] == corpus_sha,
                    f"corpus sha256 {corpus_sha} differs from the recorded one")
        tally.check(golden["raw_sha256"] == raw_sha,
                    f"raw JSONL sha256 {raw_sha} differs from the recorded one")

    timed = jobs
    if trace:
        timed = [j for j in jobs if j.tracer is None]
        traced_jobs = [j for j in jobs if j.tracer is not None]
        per_job = [layer_metrics(j.tracer) for j in traced_jobs]
        metrics = {name: statistics.median(m[name] for m in per_job)
                   for name, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(j.wall_s for j in traced_jobs)
                                       - statistics.median(j.wall_s for j in timed))
        RUNS.mkdir(exist_ok=True)
        write_spans([j.tracer for j in traced_jobs],
                    RUNS / f"{workload_name}.spans.tsv")
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(j.wall_s for j in timed),
            "cpu_s": statistics.median(j.cpu_s for j in timed),
            "records_per_s": statistics.median(records / j.generate_s for j in timed),
            "peak_rss_mb": peak_rss,
        }
        units = dict(END_TO_END)

    print(f"{workload_name} seed {seed}: {len(docs)} docs, {records} raw records, "
          f"{len(timed)} timed jobs" + (f", {len(jobs) - len(timed)} traced" if trace else ""),
          file=sys.stderr)
    print(f"  corpus sha256 {corpus_sha}\n  raw sha256    {raw_sha}", file=sys.stderr)
    print("  job wall_s: " + " ".join(f"{j.wall_s:.3f}" + ("t" if j.tracer else "")
                                      for j in jobs), file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}", file=sys.stderr)
    print(f"  failed_frac {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}", file=sys.stderr)
    for message in tally.messages:
        print(f"  FAILED: {message}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="docqa-forge pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="corpus and pipeline seed (default: baseline.json default_seed)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "docqa_forge" / "__init__.py").is_file():
        print(f"error: no docqa_forge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import docqa_forge

    if Path(docqa_forge.__file__).resolve().parent != SRC / "docqa_forge":
        print(f"error: imported docqa_forge from {docqa_forge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    seed = args.seed if args.seed is not None else load_baseline()["default_seed"]
    work = RUNS / f"{args.workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args.workload, seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
