"""Output checks, run after the timed region.

Every check compares what the program wrote with what the generator
knows: the clean ground truth, the predictions and the number of edits
injected into each. A small reference DP, independent of the program,
re-scores a seeded sample of lines.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from corpus import Corpus, LineRecord


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def reference_matrix(a: str, b: str) -> list[list[int]]:
    """Unit-cost Levenshtein matrix, the textbook recurrence."""
    rows = [list(range(len(b) + 1))]
    for i, ca in enumerate(a, 1):
        prev, cur = rows[-1], [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (ca != cb), prev[j] + 1, cur[j - 1] + 1))
        rows.append(cur)
    return rows


def reference_script(a: str, b: str) -> tuple[int, list[tuple[str, str | None, str | None]]]:
    """Distance and edit script; cost ties prefer diagonal, then delete, then insert."""
    D = reference_matrix(a, b)
    ops = []
    i, j = len(a), len(b)
    while i or j:
        if i and j and D[i][j] == D[i - 1][j - 1] + (a[i - 1] != b[j - 1]):
            kind = "match" if a[i - 1] == b[j - 1] else "substitute"
            ops.append((kind, a[i - 1], b[j - 1]))
            i, j = i - 1, j - 1
        elif i and D[i][j] == D[i - 1][j] + 1:
            ops.append(("delete", a[i - 1], None))
            i -= 1
        else:
            ops.append(("insert", None, b[j - 1]))
            j -= 1
    ops.reverse()
    return D[len(a)][len(b)], ops


def reference_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (ca != cb), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


_CAL_RNG = random.Random("fraktur-bench calibration")
_CAL_PAIRS = [
    tuple("".join(_CAL_RNG.choice("abcdefgh ") for _ in range(60)) for _ in range(2))
    for _ in range(20)
]


def calibrate() -> float:
    """Seconds for the reference DP over 20 fixed 60-character pairs."""
    start = time.perf_counter()
    for a, b in _CAL_PAIRS:
        reference_distance(a, b)
    return time.perf_counter() - start


def check_align_sample(corpus: Corpus, align, rng: random.Random, size: int) -> Check:
    """The program's align() agrees with the reference DP on a seeded sample."""
    engines = [e.name for e in corpus.spec.engines]
    bad = []
    for rec in rng.sample(corpus.lines, min(size, len(corpus.lines))):
        engine = rng.choice(engines)
        pred = rec.preds[engine].text
        dist, ops = reference_script(rec.clean, pred)
        got = align(rec.clean, pred)
        got_ops = [(op.kind.value, op.gt, op.pred) for op in got.ops]
        if got.distance != dist or got_ops != ops:
            bad.append(f"{rec.book}/{rec.line_id}/{engine}: {got.distance} vs {dist}")
    return Check("align_matches_reference", not bad, "; ".join(bad[:3]))


def _by_book(corpus: Corpus) -> dict[str, list[LineRecord]]:
    books: dict[str, list[LineRecord]] = {}
    for rec in corpus.lines:
        books.setdefault(rec.book, []).append(rec)
    return books


def _bounds(recs: list[LineRecord], engine: str) -> tuple[int, int]:
    low = sum(abs(len(r.clean) - len(r.preds[engine].text)) for r in recs)
    high = sum(r.preds[engine].edits for r in recs)
    return low, high


def check_eval_report(corpus: Corpus, data: bytes, rng: random.Random) -> list[Check]:
    report = json.loads(data)
    books = _by_book(corpus)
    engines = sorted(e.name for e in corpus.spec.engines)
    checks = [
        Check(
            "report_shape",
            report.get("datasets") == sorted(books) and report.get("engines") == engines,
            f"datasets {len(report.get('datasets', []))}, engines {report.get('engines')}",
        )
    ]
    if not checks[0].ok:
        return checks
    counts, bounds = [], []
    for ds, recs in books.items():
        for eng in engines:
            cell = report["cells"][ds][eng]
            if cell["lines"] != len(recs) or cell["gt_chars"] != sum(len(r.clean) for r in recs):
                counts.append(f"{ds}/{eng}: lines {cell['lines']}, gt_chars {cell['gt_chars']}")
            low, high = _bounds(recs, eng)
            if not low <= cell["distance"] <= high:
                bounds.append(f"{ds}/{eng}: {cell['distance']} not in [{low}, {high}]")
    checks.append(Check("report_counts", not counts, "; ".join(counts[:3])))
    checks.append(Check("distance_bounds", not bounds, "; ".join(bounds[:3])))

    ds = rng.choice(sorted(books))
    eng = rng.choice(engines)
    want = sum(reference_distance(r.clean, r.preds[eng].text) for r in books[ds])
    got = report["cells"][ds][eng]["distance"]
    checks.append(Check("reference_cell", got == want, f"{ds}/{eng}: {got} vs reference {want}"))
    return checks


def _read_line(path: Path) -> str:
    return path.read_bytes().decode("utf-8")[: -len("\n")]


def check_vote(corpus: Corpus, out_dir: Path, rng: random.Random, sample: int) -> list[Check]:
    expected = {f"{r.book}/{r.line_id}.pred.voted.txt" for r in corpus.lines}
    found = {p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file()}
    checks = [
        Check(
            "voted_files",
            found == expected,
            f"{len(found)} file(s), {len(expected)} expected, {len(found ^ expected)} differ",
        )
    ]
    if not checks[0].ok:
        return checks
    recs = rng.sample(corpus.lines, min(sample, len(corpus.lines)))
    gt_chars = sum(len(r.clean) for r in recs)
    voted = sum(
        reference_distance(r.clean, _read_line(out_dir / r.book / f"{r.line_id}.pred.voted.txt"))
        for r in recs
    )
    engines = [e.name for e in corpus.spec.engines]
    single = [sum(reference_distance(r.clean, r.preds[e].text) for r in recs) for e in engines]
    mean_single = sum(single) / len(single)
    checks.append(
        Check(
            "voted_cer_le_mean_single",
            voted <= mean_single,
            f"voted CER {voted / gt_chars:.4f}, mean single CER {mean_single / gt_chars:.4f}",
        )
    )
    return checks


def check_prep(corpus: Corpus, out_dir: Path, cap: int) -> list[Check]:
    books = _by_book(corpus)
    corpora = corpus.spec.corpora
    bad = []
    refined_want = {}
    for c in corpora:
        manifest = json.loads((out_dir / f"{c}.json").read_bytes())
        got = {b["book_id"]: b["lines"] for b in manifest["books"]}
        want = {
            book: [r.line_id for r in recs] for book, recs in books.items() if recs[0].corpus == c
        }
        if got != want:
            bad.append(f"manifest {c}: {len(got)} book(s)")
        refined_want.update({book: min(cap, len(ids)) for book, ids in want.items()})
    checks = [Check("manifest_lines", not bad, "; ".join(bad))]

    refined = json.loads((out_dir / "refined.json").read_bytes())
    bad = [
        b["book_id"]
        for b in refined["books"]
        if len(b["lines"]) != refined_want.get(b["book_id"])
        or not {*b["lines"]} <= {r.line_id for r in books[b["book_id"]]}
    ]
    if len(refined["books"]) != len(refined_want):
        bad.append(f"{len(refined['books'])} refined book(s)")
    checks.append(Check("refine_caps", not bad, "; ".join(bad[:3])))

    schedule = json.loads((out_dir / "schedule.json").read_bytes())
    stages = {s["name"]: s["count"] for s in schedule["stages"]}
    want = {"real": len(corpus.lines), "refinement": sum(refined_want.values())}
    checks.append(Check("schedule_counts", stages == want, f"{stages} vs {want}"))

    verify = json.loads((out_dir / "verify.json").read_bytes())
    checks.append(Check("verify_no_discrepancy", verify == [], f"{verify[:3]}"))
    return checks
