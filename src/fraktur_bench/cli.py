"""Command line interface.

One executable, one command per invocation:

    normalize   rewrite raw transcriptions into the codec
    eval        CER evaluation of one or more engines against ground truth
    errors      confusion statistics and whitespace error classes
    vote        combine several engines' outputs per line
    prepare     corpus manifests, refinement sampling, training schedules
    report      re-emit a stored JSON report as csv or markdown

Exit codes: 0 success, 1 data error, 2 usage error. All output files are
written atomically (temp file plus rename).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .analytics import (
    DEFAULT_TOP_K,
    DICTIONARY_CORPUS,
    emit_errors_report,
    emit_report,
    report_from_json,
)
from .codec import Codec, codec_coverage_report, default_codec, load_codec
from .errors import ManifestError, ReportError, ToolkitError, VotingError
from .lines import TranscriptionLine, line_id_of
from .manifests import (
    BookEntry,
    CountExpectation,
    TrainingSchedule,
    TrainingStage,
    build_schedule,
    manifest_from_json,
    manifest_to_json,
    refinement_sample,
    scan_corpus,
    schedule_to_json,
    verify_counts,
)
from .normalize import (
    NormalizationRuleSet,
    default_rules,
    load_rules,
    normalize_line,
    parse_unmapped_policy,
    require_replacement_in_codec,
)
from .pipeline import eval_pipeline, load_pred_tree, read_text_file
from .voting import VoterOutput, VotingConfig, vote_line

FORMATS = ("json", "csv", "markdown")


def write_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_input(path: str, error: type[ToolkitError]) -> bytes:
    """Read an input file named on the command line; failure is a data error."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc


def _resolve_codec(spec: str) -> Codec:
    return default_codec() if spec == "default" else load_codec(spec)


def _resolve_rules(spec: str) -> NormalizationRuleSet:
    return default_rules() if spec == "default" else load_rules(spec)


def _engine_trees(args: argparse.Namespace) -> dict[str, Path]:
    """Zip repeated --pred/--engine flags; a single --pred fans out."""
    preds = [Path(p).resolve() for p in args.pred]
    engines = list(args.engine)
    if len(preds) == 1 and len(engines) > 1:
        preds = preds * len(engines)
    if len(preds) != len(engines):
        raise ToolkitError(
            f"{len(args.pred)} --pred path(s) for {len(engines)} --engine id(s); "
            "give one --pred per engine or a single shared tree"
        )
    if len(set(engines)) != len(engines):
        raise ToolkitError("duplicate --engine ids")
    return dict(zip(engines, preds))


def _cmd_normalize(args: argparse.Namespace) -> int:
    codec = _resolve_codec(args.codec)
    rules = _resolve_rules(args.rules)
    rules.require_codec_closed(codec)
    require_replacement_in_codec(args.replacement, codec)
    src = Path(args.input).resolve()
    dst = Path(args.out).resolve()

    def normalized(in_file: Path) -> bytes:
        text = read_text_file(in_file)
        line = TranscriptionLine(in_file.parent.name, line_id_of(in_file.name), text)
        return (normalize_line(line, rules, codec, args.replacement).text + "\n").encode("utf-8")

    if src.is_file():
        write_atomic(dst, normalized(src))
        print(f"normalized 1 file -> {dst}")
        return 0
    if not src.is_dir():
        raise ManifestError(f"input {src} is neither file nor directory")
    files = sorted(src.rglob(args.pattern))
    if not files:
        raise ManifestError(f"no files matching {args.pattern!r} under {src}")
    # Every file is normalized before any is written: a bad line in a later
    # file leaves no partial output tree.
    outputs = [(dst / f.relative_to(src), normalized(f)) for f in files]
    for out_file, data in outputs:
        write_atomic(out_file, data)
    print(f"normalized {len(files)} file(s) -> {dst}")
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    codec = _resolve_codec(args.codec)
    src = Path(args.input).resolve()
    files = sorted(src.rglob(args.pattern))
    if not files:
        raise ManifestError(f"no files matching {args.pattern!r} under {src}")
    lines = [
        TranscriptionLine(f.parent.name, line_id_of(f.name), read_text_file(f)) for f in files
    ]
    report = codec_coverage_report(lines, codec)
    payload = {
        "codec": codec.name,
        "total_chars": report.total_chars,
        "in_codec": [{"char": c, "count": n} for c, n in report.in_codec],
        "out_of_codec": [{"char": c, "count": n} for c, n in report.out_of_codec],
    }
    data = (json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n").encode()
    if args.out:
        write_atomic(Path(args.out).resolve(), data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def _run_eval(args: argparse.Namespace):
    codec = _resolve_codec(args.codec)
    rules = _resolve_rules(args.rules)
    return eval_pipeline(
        Path(args.gt).resolve(),
        _engine_trees(args),
        codec,
        rules,
        raw_pred=args.raw_pred,
        datasets=args.datasets,
        replacement=args.replacement,
        merge_runs=args.merge_runs,
        top_k=args.k,
        seed=args.seed,
        dictionary_corpus=args.dictionary_corpus,
    )


def _cmd_eval(args: argparse.Namespace) -> int:
    report = _run_eval(args)
    write_atomic(Path(args.out).resolve(), emit_report(report, args.format))
    print(f"evaluated {len(report.engines)} engine(s) on {len(report.datasets)} dataset(s) -> {args.out}")
    return 0


def _cmd_errors(args: argparse.Namespace) -> int:
    report = _run_eval(args)
    write_atomic(Path(args.out).resolve(), emit_errors_report(report, args.format))
    print(f"error analytics for {len(report.engines)} engine(s) -> {args.out}")
    return 0


def _load_confidences(conf_path: Path | None, text: str):
    if conf_path is None:
        return None
    tokens = read_text_file(conf_path).split()
    try:
        values = tuple(map(float, tokens))
    except ValueError as exc:
        raise VotingError(f"{conf_path}: malformed confidence value: {exc}") from None
    if len(values) != len(text):
        raise VotingError(
            f"{conf_path}: {len(values)} confidences for {len(text)} characters"
        )
    return values


def _cmd_vote(args: argparse.Namespace) -> int:
    trees = _engine_trees(args)
    config = VotingConfig(
        min_voters=args.min_voters,
        tie_break=args.tie_break,
        pivot=args.pivot,
    )
    per_engine, sidecars = {}, {}
    for eng, tree in trees.items():
        per_engine[eng], sidecars[eng] = load_pred_tree(tree, eng)
    books = sorted({book for tree in per_engine.values() for book in tree})
    if not books:
        raise VotingError("no predictions found for any engine")
    engines = sorted(per_engine)
    # Every check comes before any output: a line short of voters (a
    # thinner ensemble would skew voted-vs-single CER), then a bad sidecar
    # while voting; the voted lines are written only after the last one.
    lines_by_book = {}
    for book in books:
        voter_count: dict[str, int] = {}
        for eng in engines:
            for lid in per_engine[eng].get(book, {}):
                voter_count[lid] = voter_count.get(lid, 0) + 1
        short = sorted(lid for lid, n in voter_count.items() if n < config.min_voters)
        if short:
            raise VotingError(
                f"insufficient voters in book {book!r} on {len(short)} line(s), "
                f"need {config.min_voters}: {', '.join(short[:10])}"
            )
        lines_by_book[book] = sorted(voter_count)
    voted: list[tuple[Path, str]] = []
    out_root = Path(args.out).resolve()
    for book, line_ids in lines_by_book.items():
        for lid in line_ids:
            inputs = []
            for eng in engines:
                text = per_engine[eng].get(book, {}).get(lid)
                if text is not None:
                    conf_path = sidecars[eng].get(book, {}).get(lid)
                    inputs.append((eng, text, _load_confidences(conf_path, text)))
            try:
                voters = [VoterOutput(eng, text, conf) for eng, text, conf in inputs]
                text = vote_line(voters, config).text
            except VotingError as exc:
                raise VotingError(f"book {book!r}, line {lid!r}: {exc}") from None
            voted.append((out_root / book / f"{lid}.pred.voted.txt", text))
    for path, text in voted:
        write_atomic(path, (text + "\n").encode("utf-8"))
    print(f"voted {len(voted)} line(s) across {len(books)} book(s) -> {out_root}")
    return 0


def _cmd_prepare_scan(args: argparse.Namespace) -> int:
    books = scan_corpus(Path(args.root).resolve(), args.corpus)
    write_atomic(Path(args.out).resolve(), manifest_to_json(books))
    total = sum(b.line_count for b in books)
    print(f"scanned {len(books)} book(s), {total} line(s) -> {args.out}")
    return 0


def _load_manifests(paths) -> list[BookEntry]:
    """Every book of every manifest; a book listed twice is a data error,
    because it would be sampled, scheduled and counted twice."""
    books: list[BookEntry] = []
    source: dict[str, str] = {}
    for p in paths:
        for book in manifest_from_json(_read_input(p, ManifestError)):
            if book.book_id in source:
                raise ManifestError(
                    f"book {book.book_id!r} is listed twice: in {source[book.book_id]} and in {p}"
                )
            source[book.book_id] = p
            books.append(book)
    return books


def _cmd_prepare_refine(args: argparse.Namespace) -> int:
    books = _load_manifests(args.manifest)
    refined = [
        BookEntry(
            b.book_id,
            b.corpus_id,
            tuple(refinement_sample(b, args.cap, args.seed)),
            b.century,
            b.language,
        )
        for b in books
    ]
    write_atomic(Path(args.out).resolve(), manifest_to_json(refined))
    total = sum(b.line_count for b in refined)
    print(f"refinement subset: {total} line(s) from {len(refined)} book(s) (cap {args.cap}, seed {args.seed}) -> {args.out}")
    return 0


def _parse_stage_specs(specs, cap: int | None) -> list[TrainingStage]:
    stages = []
    for spec in specs:
        if "=" not in spec:
            raise ToolkitError(f"--stage wants name=corpus[,corpus...], got {spec!r}")
        name, _, corpora = spec.partition("=")
        corpus_ids = tuple(c for c in corpora.split(",") if c)
        if not corpus_ids:
            raise ToolkitError(f"stage {name!r} lists no corpora")
        stages.append(
            TrainingStage(name, corpus_ids, cap_per_book=cap if name == "refinement" else None)
        )
    return stages


def _cmd_prepare_schedule(args: argparse.Namespace) -> int:
    books = _load_manifests(args.manifest)
    schedule = TrainingSchedule(tuple(_parse_stage_specs(args.stage, args.cap)), seed=args.seed)
    expanded = build_schedule(books, schedule)
    write_atomic(Path(args.out).resolve(), schedule_to_json(schedule, expanded))
    counts = ", ".join(f"{s.name}: {len(expanded[s.name])}" for s in schedule.stages)
    print(f"schedule written -> {args.out} ({counts})")
    return 0


def _cmd_prepare_verify(args: argparse.Namespace) -> int:
    books = _load_manifests(args.manifest)
    expected: list[CountExpectation] = []
    try:
        text = _read_input(args.expected, ManifestError).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{args.expected} is not valid UTF-8: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    missing = [c for c in ("corpus_id", "books", "lines") if c not in (reader.fieldnames or ())]
    if missing:
        raise ManifestError(
            f"{args.expected}: header lacks {', '.join(missing)} (want corpus_id,books,lines)"
        )
    for row in reader:
        try:
            expected.append(
                CountExpectation(row["corpus_id"], int(row["books"]), int(row["lines"]))
            )
        except (TypeError, ValueError) as exc:
            raise ManifestError(
                f"{args.expected}:{reader.line_num}: books and lines must be integers, "
                f"got {row['books']!r} and {row['lines']!r}"
            ) from exc
    problems = verify_counts(books, expected)
    payload = [
        {
            "corpus_id": d.corpus_id,
            "field": d.field,
            "expected": d.expected,
            "actual": d.actual,
        }
        for d in problems
    ]
    data = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
    if args.out:
        write_atomic(Path(args.out).resolve(), data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    # With the JSON on stdout, the status line goes to stderr so that stdout parses.
    print(f"{len(problems)} discrepancy(ies)", file=sys.stdout if args.out else sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = report_from_json(_read_input(args.input, ReportError))
    write_atomic(Path(args.out).resolve(), emit_report(report, args.format))
    print(f"re-emitted report as {args.format} -> {args.out}")
    return 0


def _unmapped_policy(spec: str) -> str | None:
    try:
        return parse_unmapped_policy(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _dataset_ids(text: str) -> list[str]:
    """An argparse type: comma-separated dataset ids, none empty or repeated."""
    ids = text.split(",")
    if "" in ids:
        raise argparse.ArgumentTypeError(f"empty dataset id in {text!r}")
    repeated = sorted({ds for ds in ids if ids.count(ds) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(
            f"repeated dataset id(s) {', '.join(repeated)} in {text!r}"
        )
    return ids


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"want an integer >= {low}, got {text!r}")
        return value

    return parse


def _add_codec_rules_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--codec", default="default", help="codec file, or 'default'")
    parser.add_argument("--rules", default="default", help="rules TSV, or 'default'")
    parser.add_argument(
        "--on-unmapped",
        dest="replacement",
        metavar="ON_UNMAPPED",
        type=_unmapped_policy,
        default="fail",
        help="policy for residual non-codec characters: fail, drop or replace=<char>",
    )


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gt", required=True, help="ground-truth tree root")
    parser.add_argument("--pred", action="append", required=True, help="prediction tree root (repeatable)")
    parser.add_argument("--engine", action="append", required=True, help="engine id (repeatable)")
    _add_codec_rules_flags(parser)
    parser.add_argument("--raw-pred", action="store_true", help="do not normalize predictions")
    parser.add_argument(
        "--datasets", type=_dataset_ids, help="comma-separated dataset order (default: sorted)"
    )
    parser.add_argument("--merge-runs", action="store_true", help="merge adjacent insert/delete runs in confusion stats")
    parser.add_argument(
        "--k", type=_int_at_least(1), default=DEFAULT_TOP_K, help="k for top-k error share"
    )
    parser.add_argument(
        "--dictionary-corpus",
        default=DICTIONARY_CORPUS,
        help="corpus excluded from the NOD aggregate",
    )
    parser.add_argument("--out", required=True, help="output file")
    parser.add_argument("--format", choices=FORMATS, default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraktur-bench",
        description="OCR evaluation and corpus tooling for historical prints",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=0, help="seed for all sampling (recorded in outputs)")
    parser.add_argument("--error-json", action="store_true", help="emit errors as JSON on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normalize transcriptions into the codec")
    p.add_argument("--in", dest="input", required=True, help="input file or tree")
    p.add_argument("--out", required=True, help="output file or tree")
    p.add_argument("--pattern", default="*.gt.txt", help="glob for tree mode")
    _add_codec_rules_flags(p)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("coverage", help="codec coverage frequencies over a tree")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--pattern", default="*.gt.txt")
    p.add_argument("--codec", default="default")
    p.add_argument("--out", default="", help="output file (default: stdout)")
    p.set_defaults(handler=_cmd_coverage)

    p = sub.add_parser("eval", help="character error rate evaluation")
    _add_eval_flags(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("errors", help="confusion and whitespace error analytics")
    _add_eval_flags(p)
    p.set_defaults(handler=_cmd_errors)

    p = sub.add_parser("vote", help="combine engine outputs by sequence voting")
    p.add_argument("--pred", action="append", required=True, help="prediction tree root (repeatable)")
    p.add_argument("--engine", action="append", required=True, help="engine id (repeatable)")
    p.add_argument("--out", required=True, help="output tree for voted lines")
    p.add_argument("--min-voters", type=_int_at_least(2), default=2)
    p.add_argument("--tie-break", choices=("first_voter", "confidence", "abstain_to_pivot"), default="first_voter")
    p.add_argument("--pivot", default="longest", help="'longest', 'first', or an engine id")
    p.set_defaults(handler=_cmd_vote)

    p = sub.add_parser("prepare", help="manifests, sampling and schedules")
    prep = p.add_subparsers(dest="prepare_command", required=True)

    q = prep.add_parser("scan", help="scan a line-pair tree into a manifest")
    q.add_argument("--root", required=True)
    q.add_argument("--corpus", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(handler=_cmd_prepare_scan)

    q = prep.add_parser("refine", help="capped per-book refinement subset")
    q.add_argument("--manifest", action="append", required=True)
    q.add_argument("--cap", type=_int_at_least(1), required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(handler=_cmd_prepare_refine)

    q = prep.add_parser("schedule", help="expand the staged training plan")
    q.add_argument("--manifest", action="append", required=True)
    q.add_argument("--stage", action="append", required=True, help="name=corpus[,corpus...] (repeatable)")
    q.add_argument("--cap", type=_int_at_least(1), default=50, help="per-book cap for the refinement stage")
    q.add_argument("--out", required=True)
    q.set_defaults(handler=_cmd_prepare_schedule)

    q = prep.add_parser("verify", help="check manifest counts against expectations")
    q.add_argument("--manifest", action="append", required=True)
    q.add_argument("--expected", required=True, help="CSV with corpus_id,books,lines")
    q.add_argument("--out", default="", help="output file (default: stdout)")
    q.set_defaults(handler=_cmd_prepare_verify)

    p = sub.add_parser("report", help="re-emit a JSON report in another format")
    p.add_argument("--in", dest="input", required=True, help="JSON report file")
    p.add_argument("--format", choices=FORMATS, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_report)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except ToolkitError as exc:
        if args.error_json:
            print(
                json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
                file=sys.stderr,
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
