"""Command line interface.

One executable, one command per invocation:

    normalize   rewrite raw transcriptions into the codec
    coverage    count a tree's characters in and out of the codec
    eval        CER evaluation of one or more engines against ground truth
    errors      confusion statistics and whitespace error classes
    vote        combine several engines' outputs per line
    prepare     corpus manifests, refinement sampling, training schedules
    report      re-emit a stored JSON report as json, csv or markdown

Exit codes: 0 success, 1 data error, 2 usage error. Each command returns
its outputs and run writes them, after every check: each file atomically
(temp file plus rename), standard-output data as bytes.
"""

from __future__ import annotations

import argparse
import io
import itertools
import os
import sys
from collections.abc import Callable
from fnmatch import fnmatchcase

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
from .jsonout import dump_json
from .lines import TranscriptionLine, line_id_of, path_parts, posix_path, pred_suffix, read_utf8
from .manifests import (
    BookEntry,
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
from .pipeline import eval_pipeline, load_pred_trees, read_text_file
from .voting import TIE_BREAKS, VOTED_ENGINE_ID, VotingConfig, vote_lines

FORMATS = ("json", "csv", "markdown")


def _cannot_write(path: str, exc: OSError) -> ToolkitError:
    return ToolkitError(f"cannot write {path}: {exc.strerror or exc}")


def _make_dirs(path: str) -> None:
    """os.makedirs; a symlink loop raises its own error, not EEXIST."""
    try:
        os.makedirs(path, exist_ok=True)
    except FileExistsError:
        os.stat(path)
        raise


_TEMP_NAMES = 100  # temp names tried before a write gives up
_temp_serial = itertools.count()


def write_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Write through a temp file and a rename into an existing directory;
    a path that cannot be written is a data error. The temp file
    .NAME.PID.N.tmp beside the output is made with O_EXCL and mode 0600:
    a file or symlink already there is passed over, never followed."""
    tmp = None
    try:
        head, tail = os.path.split(path)
        for left in range(_TEMP_NAMES, 0, -1):
            name = os.path.join(head, f".{tail}.{os.getpid()}.{next(_temp_serial)}.tmp")
            try:
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
                break
            except FileExistsError:
                if left == 1:
                    raise
        tmp = name
        with open(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
        tmp = None  # renamed: nothing left to remove
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _write_tree(outputs: list[tuple[str, bytes]]) -> None:
    """Write each (path, data) with write_atomic, after making every
    directory they go in, in first-seen order: a directory that cannot be
    made fails the command before any file is written. Its error names the
    first file meant for it, as write_atomic's would."""
    first_file: dict[str, str] = {}
    for path, _ in outputs:
        first_file.setdefault(os.path.dirname(path), path)
    for parent, path in first_file.items():
        try:
            _make_dirs(parent)
        except OSError as exc:
            raise _cannot_write(path, exc) from exc
    for path, data in outputs:
        write_atomic(path, data)


def _resolve_codec(spec: str) -> Codec:
    return default_codec() if spec == "default" else load_codec(spec)


def _resolve_rules(spec: str) -> NormalizationRuleSet:
    return default_rules() if spec == "default" else load_rules(spec)


def _engine_trees(args: argparse.Namespace) -> dict[str, str]:
    """Zip repeated --pred/--engine flags; a single --pred fans out."""
    preds = [os.path.realpath(p) for p in args.pred]
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


def _glob_match(parts: list[str], pats: list[str]) -> bool:
    """Whether path parts match glob parts, a '**' part matching any number."""
    counts = {0}  # the numbers of leading parts that the glob parts so far match
    for pat in pats:
        if pat == "**":
            counts = set(range(min(counts, default=len(parts) + 1), len(parts) + 1))
        else:
            counts = {n + 1 for n in counts if n < len(parts) and fnmatchcase(parts[n], pat)}
    return len(parts) in counts


def _tree_files(src: str, pattern: str) -> list[str]:
    """Files whose path below src matches **/pattern, sorted by parts; no symlinked dir is entered."""
    if os.path.isabs(pattern) or ".." in pattern.split("/"):
        raise ManifestError(f"--pattern {pattern!r} must stay under --in: no absolute path, no '..' part")
    pats, files = ["**", *path_parts(pattern)], []
    if pats[-1] != "**" and not pattern.endswith("/"):  # else only directories match
        prefix = os.path.join(src, "")
        for top, _, names in os.walk(src):
            below = path_parts(top[len(prefix) :])
            files += [os.path.join(top, n) for n in names if _glob_match([*below, n], pats)]
    files.sort(key=lambda path: path.split("/"))
    if not files:
        raise ManifestError(f"no files matching {pattern!r} under {src}")
    return files


def _cmd_normalize(args: argparse.Namespace) -> tuple[list, str | None]:
    codec = _resolve_codec(args.codec)
    rules = _resolve_rules(args.rules)
    rules.require_codec_closed(codec)
    require_replacement_in_codec(args.replacement, codec)
    src = os.path.realpath(args.input)
    dst = os.path.realpath(args.out)

    def normalized(in_file: str) -> bytes:
        text = read_text_file(in_file)
        book_dir, name = os.path.split(in_file)
        line = TranscriptionLine(os.path.basename(book_dir), line_id_of(name), text)
        return (normalize_line(line, rules, codec, args.replacement).text + "\n").encode("utf-8")

    if os.path.isfile(src):
        return [(dst, normalized(src))], f"normalized 1 file -> {dst}"
    if not os.path.isdir(src):
        raise ManifestError(f"input {src} is neither file nor directory")
    files = _tree_files(src, args.pattern)
    outputs = [(os.path.join(dst, os.path.relpath(f, src)), normalized(f)) for f in files]
    return outputs, f"normalized {len(files)} file(s) -> {dst}"


def _cmd_coverage(args: argparse.Namespace) -> tuple[list, str | None]:
    codec = _resolve_codec(args.codec)
    files = _tree_files(os.path.realpath(args.input), args.pattern)
    texts = [read_text_file(f) for f in files]
    in_codec, out_of_codec = codec_coverage_report(texts, codec)
    payload = {
        "codec": codec.name,
        "total_chars": sum(map(len, texts)),
        "in_codec": [{"char": c, "count": n} for c, n in in_codec],
        "out_of_codec": [{"char": c, "count": n} for c, n in out_of_codec],
    }
    return [(os.path.realpath(args.out) if args.out else None, dump_json(payload))], None


def _run_eval(args: argparse.Namespace):
    codec = _resolve_codec(args.codec)
    rules = _resolve_rules(args.rules)
    return eval_pipeline(
        os.path.realpath(args.gt),
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


def _cmd_eval(args: argparse.Namespace) -> tuple[list, str | None]:
    report = _run_eval(args)
    status = f"evaluated {len(report.engines)} engine(s) on {len(report.datasets)} dataset(s) -> {args.out}"
    return [(os.path.realpath(args.out), emit_report(report, args.format))], status


def _cmd_errors(args: argparse.Namespace) -> tuple[list, str | None]:
    report = _run_eval(args)
    status = f"error analytics for {len(report.engines)} engine(s) -> {args.out}"
    return [(os.path.realpath(args.out), emit_errors_report(report, args.format))], status


def _confidence(token: str) -> float:
    """float(token), refusing what float alone takes: 0.5_0 and non-ASCII digits."""
    if "_" in token or not token.isascii():
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def _load_confidences(conf_path: str | None, text: str):
    if conf_path is None:
        return None
    content = read_text_file(conf_path)
    parse = float if content.isascii() and "_" not in content else _confidence
    try:
        values = tuple(map(parse, content.split()))
    except ValueError as exc:
        raise VotingError(f"{conf_path}: malformed confidence value: {exc}") from None
    if len(values) != len(text):
        raise VotingError(f"{conf_path}: {len(values)} confidences for {len(text)} characters")
    return values


def _cmd_vote(args: argparse.Namespace) -> tuple[list, str | None]:
    trees = _engine_trees(args)
    config = VotingConfig(
        min_voters=args.min_voters,
        tie_break=args.tie_break,
        pivot=args.pivot,
    )
    # (book, line id) -> (engine, text, sidecar path or None) of each engine with the line
    found: dict[tuple[str, str], list] = {}
    for eng, texts, sidecars in load_pred_trees(trees):
        for book, lines in texts.items():
            paths = sidecars.get(book, {})
            for lid, text in lines.items():
                found.setdefault((book, lid), []).append((eng, text, paths.get(lid)))
    if not found:
        raise VotingError("no predictions found for any engine")
    keys = sorted(found)
    # Every check comes before any output: a line short of voters (a
    # thinner ensemble would skew voted-vs-single CER), then a bad sidecar.
    short = [key for key in keys if len(found[key]) < config.min_voters]
    if short:
        book = short[0][0]
        line_ids = [lid for b, lid in short if b == book]
        raise VotingError(
            f"insufficient voters in book {book!r} on {len(line_ids)} line(s), "
            f"need {config.min_voters}: {', '.join(line_ids[:10])}"
        )

    # vote_lines builds and checks each line before the next, and aligns
    # none before the last is checked, so the first bad line is reported.
    # Engine ids are distinct, so a line's voters sort by engine.
    lines = (
        [(eng, text, _load_confidences(path, text)) for eng, text, path in sorted(found[key])]
        for key in keys
    )
    try:
        texts = vote_lines(lines, config)
    except VotingError as exc:
        if exc.line is None:
            raise
        book, lid = keys[exc.line]
        raise VotingError(f"book {book!r}, line {lid!r}: {exc}") from None
    out_root = os.path.realpath(args.out)
    voted = [
        (os.path.join(out_root, book, lid + pred_suffix(VOTED_ENGINE_ID)), (text + "\n").encode("utf-8"))
        for (book, lid), text in zip(keys, texts)
    ]
    books = {book for book, _ in keys}
    return voted, f"voted {len(voted)} line(s) across {len(books)} book(s) -> {out_root}"


def _cmd_prepare_scan(args: argparse.Namespace) -> tuple[list, str | None]:
    books = scan_corpus(os.path.realpath(args.root), args.corpus)
    total = sum(b.line_count for b in books)
    status = f"scanned {len(books)} book(s), {total} line(s) -> {args.out}"
    return [(os.path.realpath(args.out), manifest_to_json(books))], status


def _load_manifests(paths) -> list[BookEntry]:
    """Every book of every manifest; a book listed twice is a data error,
    because it would be sampled, scheduled and counted twice."""
    books: list[BookEntry] = []
    source: dict[str, str] = {}
    for p in paths:
        for book in manifest_from_json(read_utf8(posix_path(p), ManifestError)):
            if book.book_id in source:
                raise ManifestError(
                    f"book {book.book_id!r} is listed twice: in {source[book.book_id]} and in {p}"
                )
            source[book.book_id] = p
            books.append(book)
    return books


def _cmd_prepare_refine(args: argparse.Namespace) -> tuple[list, str | None]:
    books = _load_manifests(args.manifest)
    refined = [b._replace(line_ids=tuple(refinement_sample(b, args.cap, args.seed))) for b in books]
    total = sum(b.line_count for b in refined)
    status = f"refinement subset: {total} line(s) from {len(refined)} book(s) (cap {args.cap}, seed {args.seed}) -> {args.out}"
    return [(os.path.realpath(args.out), manifest_to_json(refined))], status


def _parse_stage_specs(specs) -> list[tuple[str, tuple[str, ...]]]:
    """Each name=corpus[,corpus...] spec as a (name, corpus ids) pair, no corpus twice."""
    stages = []
    for spec in specs:
        if "=" not in spec:
            raise ToolkitError(f"--stage wants name=corpus[,corpus...], got {spec!r}")
        name, _, corpora = spec.partition("=")
        corpus_ids = tuple(c for c in corpora.split(",") if c)
        if not corpus_ids:
            raise ToolkitError(f"stage {name!r} lists no corpora")
        repeated = sorted({c for c in corpus_ids if corpus_ids.count(c) > 1})
        if repeated:
            raise ToolkitError(f"stage {name!r} repeats corpus id(s) {', '.join(repeated)}")
        stages.append((name, corpus_ids))
    return stages


def _cmd_prepare_schedule(args: argparse.Namespace) -> tuple[list, str | None]:
    books = _load_manifests(args.manifest)
    stages = _parse_stage_specs(args.stage)
    expanded = build_schedule(books, stages, args.cap, args.seed)
    counts = ", ".join(f"{name}: {len(items)}" for name, items in expanded.items())
    status = f"schedule written -> {args.out} ({counts})"
    return [(os.path.realpath(args.out), schedule_to_json(stages, args.cap, args.seed, expanded))], status


def _cmd_prepare_verify(args: argparse.Namespace) -> tuple[list, str | None]:
    import csv  # here, not at set-up: only verify reads CSV

    books = _load_manifests(args.manifest)
    expected: list[tuple[str, int, int]] = []
    text = read_utf8(posix_path(args.expected), ManifestError)
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        missing = [c for c in ("corpus_id", "books", "lines") if c not in (reader.fieldnames or ())]
        if missing:
            raise ManifestError(
                f"{args.expected}: header lacks {', '.join(missing)} (want corpus_id,books,lines)"
            )
        for row in reader:
            try:
                expected.append((row["corpus_id"], _count(row["books"]), _count(row["lines"])))
            except ValueError as exc:
                raise ManifestError(
                    f"{args.expected}:{reader.line_num}: books and lines must be counts written "
                    f"in the digits 0-9, got {row['books']!r} and {row['lines']!r}"
                ) from exc
    except csv.Error as exc:  # a field over the csv module's size limit
        raise ManifestError(f"{args.expected}:{reader.reader.line_num}: {exc}") from None
    problems = verify_counts(books, expected)
    out = os.path.realpath(args.out) if args.out else None
    return [(out, dump_json(problems, ascii=True))], f"{len(problems)} discrepancy(ies)"


def _cmd_report(args: argparse.Namespace) -> tuple[list, str | None]:
    report = report_from_json(read_utf8(posix_path(args.input), ReportError))
    status = f"re-emitted report as {args.format} -> {args.out}"
    return [(os.path.realpath(args.out), emit_report(report, args.format))], status


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


def _count(text: str | None) -> int:
    """A count written in the digits 0-9, with the whitespace int allows
    around it; anything else, such as '1_0', '-1' or '\u0663', raises ValueError."""
    digits = (text or "").strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a count: {text!r}")
    return int(digits)


def _seed(text: str) -> int:
    """An argparse type: an integer written as an optional sign and the
    digits 0-9, with the whitespace int allows around it."""
    body = text.strip()
    try:
        _count(body[1:] if body[:1] in ("+", "-") else body)
        return int(body)  # int rejects whitespace after the sign
    except ValueError:
        raise argparse.ArgumentTypeError(f"want an integer, got {text!r}") from None


def _int_at_least(low: int):
    """An argparse type: a count no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = _count(text)
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


class _ChosenSubParsers(argparse._SubParsersAction):
    """Sub-commands of which only the chosen one gets a parser: every name
    is registered with its help, and its parser is built and filled with
    its arguments when the command line names it."""

    def add_parser(self, name: str, fill: Callable, handler: Callable | None, help: str) -> None:
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = (fill, handler)

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        chosen = self._name_parser_map[values[0]]
        if isinstance(chosen, tuple):  # a parser that parses twice builds once
            fill, handler = chosen
            chosen = self._parser_class(prog=f"{self._prog_prefix} {values[0]}")
            fill(chosen)
            chosen.set_defaults(handler=handler)
            self._name_parser_map[values[0]] = chosen
        super().__call__(parser, namespace, values, option_string)


def _normalize_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="input", required=True, help="input file or tree")
    p.add_argument("--out", required=True, help="output file or tree")
    p.add_argument("--pattern", default="*.gt.txt", help="glob for tree mode")
    _add_codec_rules_flags(p)


def _coverage_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--pattern", default="*.gt.txt")
    p.add_argument("--codec", default="default")
    p.add_argument("--out", default="", help="output file (default: stdout)")


def _vote_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pred", action="append", required=True, help="prediction tree root (repeatable)")
    p.add_argument("--engine", action="append", required=True, help="engine id (repeatable)")
    p.add_argument("--out", required=True, help="output tree for voted lines")
    p.add_argument("--min-voters", type=_int_at_least(2), default=2)
    p.add_argument("--tie-break", choices=TIE_BREAKS, default="first_voter")
    p.add_argument("--pivot", default="longest", help="'longest', 'first', or an engine id")


def _prepare_args(p: argparse.ArgumentParser) -> None:
    prep = p.add_subparsers(dest="prepare_command", required=True, action=_ChosenSubParsers)
    for name, fill, handler, text in (
        ("scan", _scan_args, _cmd_prepare_scan, "scan a line-pair tree into a manifest"),
        ("refine", _refine_args, _cmd_prepare_refine, "capped per-book refinement subset"),
        ("schedule", _schedule_args, _cmd_prepare_schedule, "expand the staged training plan"),
        ("verify", _verify_args, _cmd_prepare_verify, "check manifest counts against expectations"),
    ):
        prep.add_parser(name, fill, handler, text)


def _scan_args(q: argparse.ArgumentParser) -> None:
    q.add_argument("--root", required=True)
    q.add_argument("--corpus", required=True)
    q.add_argument("--out", required=True)


def _refine_args(q: argparse.ArgumentParser) -> None:
    q.add_argument("--manifest", action="append", required=True)
    q.add_argument("--cap", type=_int_at_least(1), required=True)
    q.add_argument("--out", required=True)


def _schedule_args(q: argparse.ArgumentParser) -> None:
    q.add_argument("--manifest", action="append", required=True)
    q.add_argument("--stage", action="append", required=True, help="name=corpus[,corpus...] (repeatable)")
    q.add_argument("--cap", type=_int_at_least(1), default=50, help="per-book cap for the refinement stage")
    q.add_argument("--out", required=True)


def _verify_args(q: argparse.ArgumentParser) -> None:
    q.add_argument("--manifest", action="append", required=True)
    q.add_argument("--expected", required=True, help="CSV with corpus_id,books,lines")
    q.add_argument("--out", default="", help="output file (default: stdout)")


def _report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="input", required=True, help="JSON report file")
    p.add_argument("--format", choices=FORMATS, required=True)
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraktur-bench",
        description="OCR evaluation and corpus tooling for historical prints",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--seed", type=_seed, default=0, help="seed for all sampling (recorded in outputs)"
    )
    parser.add_argument("--error-json", action="store_true", help="emit errors as JSON on stderr")
    sub = parser.add_subparsers(dest="command", required=True, action=_ChosenSubParsers)
    for name, fill, handler, text in (
        ("normalize", _normalize_args, _cmd_normalize, "normalize transcriptions into the codec"),
        ("coverage", _coverage_args, _cmd_coverage, "codec coverage frequencies over a tree"),
        ("eval", _add_eval_flags, _cmd_eval, "character error rate evaluation"),
        ("errors", _add_eval_flags, _cmd_errors, "confusion and whitespace error analytics"),
        ("vote", _vote_args, _cmd_vote, "combine engine outputs by sequence voting"),
        ("prepare", _prepare_args, None, "manifests, sampling and schedules"),
        ("report", _report_args, _cmd_report, "re-emit a JSON report in another format"),
    ):
        sub.add_parser(name, fill, handler, text)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Run one command line. Its handler returns (outputs, status): outputs
    a list of (path, data), the path None for standard output, and status a
    line or None. run makes every directory and writes every file, then the
    standard-output data, then the status line by its bytes, on stderr when
    stdout holds data."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        outputs, status = args.handler(args)
        _write_tree([(path, data) for path, data in outputs if path is not None])
    except ToolkitError as exc:
        if args.error_json:
            import json  # here, not at set-up: most runs raise no error

            print(
                json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
                file=sys.stderr,
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    data = b"".join(chunk for path, chunk in outputs if path is None)
    sys.stdout.flush()
    sys.stdout.buffer.write(data)
    if status is not None:
        stream = sys.stderr if data else sys.stdout
        stream.flush()
        stream.buffer.write(os.fsencode(status + "\n"))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
