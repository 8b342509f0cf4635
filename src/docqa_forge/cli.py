"""forge: single entry point for the dataset pipeline.

Subcommands: ingest, generate, balance, split, stats, eval, inspect,
templates. Exit codes: 0 success, 1 pipeline/validation failure, 2 usage.
Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict
from pathlib import Path

from .balance import BalanceConfig, balance_answers, balance_parameters, balance_report
from .dataset import (
    DatasetSplit,
    _atomic_write,
    atomic_write_json,
    atomic_write_lines,
    check_ratios,
    check_split_names,
    compute_stats,
    json_text,
    read_bytes,
    read_dataset,
    read_records_jsonl,
    split_corpus,
    write_dataset,
    write_records_jsonl,
)
from .errors import (
    BadParameter,
    DuplicateId,
    ForgeError,
    IoFailure,
    MalformedInput,
    UnknownDocument,
    UnknownPage,
)
from .evaluate import breakdown, evaluate, read_predictions_jsonl
from .generator import GenConfig, generate_corpus, resolve_workers
from .graphs import build_graphs
from .ingest import (
    decode_json,
    document_from_processed,
    document_to_processed,
    parse_document,
    preprocess_document,
)
from .model import Document
from .programs import GROUP_PROGRAMS, trace_steps
from .templates import load_templates

_INGEST_HEAD = '{"documents": [\n'  # then one document a line, "," ending all but the last, "]}"


def load_corpus(path) -> list[Document]:
    """Accept a directory of annotation files, one annotation file, or a
    processed corpus file produced by `forge ingest`. Every error names the
    file it comes from, and each doc_id may appear only once."""
    path = Path(path)
    if path.is_dir():
        return list(_unique(_annotation_files(path), {}))
    # a pipe is read once, by read_bytes: the layout's reader would open and drop it
    documents = _ingest_layout_documents(path) if path.is_file() else None
    if documents is None:
        raw = read_bytes(path)
        with _in_file(path):
            data = decode_json(raw)
            del raw  # only the decoded tree is needed from here on
            if isinstance(data, dict) and "documents" in data:
                documents = data["documents"]
                if not isinstance(documents, list):
                    raise MalformedInput("documents must be a list")
                for i, document in enumerate(documents):
                    documents[i] = document_from_processed(document)  # the dict is released
            else:
                documents = [preprocess_document(parse_document(data))]
    return list(_unique(((path, doc) for doc in documents), {}))


def _annotation_files(directory: Path):
    """(file, preprocessed document) for each annotation file under directory, in name
    order, each file read once the pair before it has been used."""
    files = sorted(directory.glob("*.json"))
    if not files:
        raise IoFailure(f"no .json documents under {directory}")
    for child in files:
        raw = read_bytes(child)
        with _in_file(child):
            doc, raw = preprocess_document(parse_document(raw)), None
        yield child, doc
        doc = None  # released before the next file is read


def _unique(loaded, sources: dict):
    """The documents of the (source, document) pairs in loaded, in order, with sources
    mapping each doc_id to its source. A repeated doc_id raises DuplicateId at the end."""
    repeated = None
    for source, doc in loaded:
        if doc.doc_id not in sources:
            sources[doc.doc_id] = source
        elif repeated is None:
            repeated = DuplicateId(f"{source}: document {doc.doc_id!r} was already read "
                                   f"from {sources[doc.doc_id]}")
        yield doc
        doc = None
    if repeated is not None:
        raise repeated


def _ingest_layout_documents(path: Path) -> list[Document] | None:
    """The documents of a file in ingest's layout, each built as its line is read, or None
    where the file leaves the layout or cannot be read (left to read_bytes to report). A
    bad document is raised once the rest of the file has been read in the layout."""
    head = _INGEST_HEAD.encode()
    with suppress(OSError), path.open("rb") as lines, _in_file(path):
        # the tail first, so a file that leaves the layout only there builds nothing twice
        tail_at = lines.seek(max(0, lines.seek(0, 2) - 4096))  # 2: from the end
        tail = lines.read().rstrip(b" \t\n\r")  # JSON whitespace
        lines.seek(0)
        if lines.read(len(head)) != head or not tail.endswith(b"\n]}"):
            return None
        left = tail_at + len(tail) - len("]}") - len(head)  # the bytes of the document lines
        scan = json.JSONDecoder().scan_once
        documents, failure = [], None
        while left:
            line = lines.readline()
            left -= len(line)
            try:
                line = line.decode("utf-8")  # each form of the line is released once used
                value, at = scan(line, 0)
            except (StopIteration, ValueError, RecursionError):  # StopIteration: a missing value
                return None
            if line[at:] != (",\n" if left else "\n"):  # a line ends before "]}"
                return None
            line = None
            if failure is None:
                try:
                    documents.append(document_from_processed(value))
                except ForgeError as exc:
                    failure = exc
            value = None
        if failure is not None:
            raise failure
        return documents


@contextmanager
def _in_file(path: Path):
    """Re-raise a ForgeError with the file name in front, keeping its class."""
    try:
        yield
    except ForgeError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _ratios(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _tasks(text: str) -> tuple[str, ...]:
    return tuple(t.strip().upper() for t in text.split(",") if t.strip())


def _output_json(data, out) -> None:
    """Write data to the file out if given, else print the same bytes to stdout."""
    if out:
        atomic_write_json(out, data)
    else:
        print(json_text(data))


def _cmd_ingest(args) -> int:
    path, sources = Path(args.input), {}
    loaded = _annotation_files(path) if path.is_dir() else ((path, d) for d in load_corpus(path))
    _atomic_write(args.out, _ingest_chunks(_unique(loaded, sources)))  # a directory streams
    print(f"ingested {len(sources)} documents -> {args.out}", file=sys.stderr)
    return 0


def _ingest_chunks(corpus):
    """The processed corpus: a head line, each document's json.dumps(..., sort_keys=True) on
    a line of its own, with "," ending all but the last, then "]}". Each document is encoded
    page by page (in C, which indent would prevent) once the one before it is written."""
    yield _INGEST_HEAD
    sep = ""
    for doc in corpus:
        processed = document_to_processed(doc)
        pages, references = processed.pop("pages"), processed.pop("references")
        # the keys in sorted order: doc_id, mention_index, pages, references
        yield sep + json.dumps(processed, sort_keys=True)[:-1] + ', "pages": ['
        for i, page in enumerate(pages):
            yield from (", " if i else "", json.dumps(page, sort_keys=True))
        yield f'], "references": {json.dumps(references)}}}'
        sep, doc, processed, pages, references = ",\n", None, None, None, None
    yield "\n]}\n" if sep else "]}\n"


def _cmd_generate(args) -> int:
    cfg = GenConfig(seed=args.seed, tasks=args.tasks, na_retention=args.na_rate,
                    per_template_cap=args.template_cap)
    workers = resolve_workers(args.workers)
    corpus = load_corpus(args.input)
    result = generate_corpus(corpus, cfg, max_workers=workers)
    write_records_jsonl(result.records, args.out)
    manifest = {
        "records": str(args.out),
        "excluded": [asdict(e) for e in result.excluded],
        "counts": result.counts,
        "seed": result.seed,
        "config_hash": result.config_hash,
    }
    atomic_write_json(f"{args.out}.manifest.json", manifest)
    if args.trace:
        atomic_write_lines(args.trace, _trace_lines(result.records))
    print(f"generated {len(result.records)} records "
          f"({workers} workers) -> {args.out}", file=sys.stderr)
    return 0


def _trace_lines(records):
    """One line per record, in record order: the steps of the execution that
    produced its answer, as generation recorded them."""
    ops = {tpl.template_id: [op for op, _ in GROUP_PROGRAMS[tpl.group]]
           for tpl in load_templates()}
    # Records of one template share few step-size patterns, so each distinct
    # trace is encoded once; the line equals json.dumps({"qid": .., "trace": ..}).
    traces: dict[tuple, str] = {}
    for r in records:
        key = (r.template_id, r.step_sizes)
        trace = traces.get(key)
        if trace is None:
            trace = traces[key] = json.dumps(trace_steps(ops[r.template_id], r.step_sizes))
        yield f'{{"qid": {json.dumps(r.qid)}, "trace": {trace}}}'


def _cmd_balance(args) -> int:
    cfg = BalanceConfig(seed=args.seed, answer_ratio=args.answer_ratio,
                        param_ratio=args.param_ratio)
    records = read_records_jsonl(args.input)
    after = balance_parameters(balance_answers(records, cfg), cfg)
    write_records_jsonl(after, args.out)
    if args.report:
        atomic_write_json(args.report, balance_report(records, after))
    print(f"balanced {len(records)} -> {len(after)} records", file=sys.stderr)
    return 0


def _cmd_split(args) -> int:
    ratios = check_ratios(args.ratios)
    records = read_records_jsonl(args.input)
    splits = split_corpus(records, ratios, args.seed)
    write_dataset(splits, args.out_dir)
    sizes = ", ".join(f"{s.name}={len(s.records)}" for s in splits)
    print(f"split {len(records)} records: {sizes}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    inputs = [Path(p) for p in args.input]
    if len(inputs) == 1 and inputs[0].is_dir():
        splits = read_dataset(inputs[0])
    else:
        check_split_names(path.stem for path in inputs)  # before any file is read
        splits = [DatasetSplit.of(path.stem, read_records_jsonl(path)) for path in inputs]
    _output_json(compute_stats(splits), args.out)
    return 0


def _cmd_eval(args) -> int:
    gold = read_records_jsonl(args.gold)
    preds = read_predictions_jsonl(args.pred)
    report = evaluate(gold, preds, strict=args.strict, averaging=args.averaging)
    print(breakdown(report))
    if args.out:
        atomic_write_json(args.out, report)
    return 0


def _cmd_inspect(args) -> int:
    corpus = load_corpus(args.input)
    doc = next((d for d in corpus if d.doc_id == args.doc), None)
    if doc is None:
        raise UnknownDocument(f"no document {args.doc!r} in corpus")
    if not 0 <= args.page < len(doc.pages):  # a page's index is its position
        raise UnknownPage(f"document {args.doc!r} has no page {args.page}")
    page = doc.pages[args.page]
    graphs = build_graphs(doc, [page.index])
    spatial = graphs.spatial[page.index]

    if args.format == "json":
        print(json_text(spatial.dump() | graphs.logical.dump()))
        return 0

    print(f"document {doc.doc_id} page {page.index}: {len(page.elements)} elements")
    for el in page.elements:
        text = el.text if len(el.text) <= 40 else el.text[:37] + "..."
        print(f"  [{el.page_reading_index:>2}/{el.doc_reading_index:>3}] "
              f"{el.category.value:<14} {el.id:<12} {text!r}")
    print("spatial edges:")
    for src, dst, rel in sorted(spatial.edge_set()):
        print(f"  {src} -> {dst}: {rel.value}")
    print("parent chains:")
    for el in page.elements:
        chain = graphs.logical.ancestors(el.id)
        print(f"  {el.id}: {' -> '.join(chain) if chain else '(root)'}")
    return 0


def _cmd_templates(args) -> int:
    _output_json(load_templates().dump(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forge",
        description="Generate, balance, split, and score document-structure VQA datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and preprocess annotation JSON")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("generate", help="generate raw QA records")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tasks", type=_tasks, default=("A", "B", "C"))
    p.add_argument("--na-rate", type=float, default=0.1)
    p.add_argument("--template-cap", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="worker count, 0 = auto (default: FORGE_THREADS, else 1)")
    p.add_argument("--trace", default=None, help="write per-question program traces")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("balance", help="answer- and parameter-based down-sampling")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--answer-ratio", type=float, default=1.5)
    p.add_argument("--param-ratio", type=float, default=2.0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("split", help="document-level train/valid/test split")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ratios", type=_ratios, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("stats", help="descriptive dataset statistics")
    p.add_argument("--in", dest="input", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("eval", help="score predictions against a gold file")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--strict", action="store_true",
                   help="require a prediction for every gold qid")
    p.add_argument("--averaging", choices=("macro", "micro"), default="macro")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("inspect", help="dump one page's elements and graphs")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--doc", required=True)
    p.add_argument("--page", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("templates", help="registry export")
    p.add_argument("action", choices=("dump",))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_templates)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BadParameter as exc:
        parser.error(str(exc))  # a usage error, exit 2, as for a flag argparse rejects
    except ForgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
