"""The benchmark's workloads: corpus shape, CLI command sequence, checks.

Each workload is one closed-loop client: one process runs its command
sequence through ``fraktur_bench.cli.run``, the next command after the
last returns. ``{out}`` in a command stands for the repetition's empty
output directory. Corpora are sized so that a repetition takes about a
second or less, so a run holds many repetitions.

Why these three:

- eval-lines: the common case, short lines. Alignment dominates; the
  m*n products straddle the switch between the pure-Python and the numpy
  DP, so both paths run. Ground truth normalization and most small-file
  reads.
- vote-lines: star alignment of three engines with confidence sidecars;
  slot resolution and one atomic write per line put writes beside reads.
  Lines are long enough that alignment, not file creation, dominates.
- prep-tree: manifests only: scan three corpus trees, refine, schedule and
  verify. No alignment at all: for an alignment change the prediction
  here is no change. Without it the manifests layer would go unmeasured.
  It writes a handful of JSON files per repetition, not one per line:
  file creation time on the machine the benchmark was built on drifted
  from 0.1 to 1 ms per file under sustained writes, which made a
  normalize-the-whole-tree workload unsteady between runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from corpus import Corpus, CorpusSpec, EngineNoise

# Two engines with different error rates, so the share of identical lines
# differs between them (roughly 2/3 against 1/6 on 60-character lines).
ENGINES = (
    EngineNoise("abbyy", sub=0.004, ins=0.001, dele=0.001, space=0.001),
    EngineNoise("tess", sub=0.018, ins=0.004, dele=0.004, space=0.006),
)
VOTE_ENGINES = ENGINES + (EngineNoise("ocropy", sub=0.010, ins=0.003, dele=0.003, space=0.003),)

REFINE_CAP = 15


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: CorpusSpec
    # units of work per repetition, as counted for lines_per_s
    work_lines: Callable[[CorpusSpec], int]
    commands: Callable[[Corpus], list[list[str]]]
    check: Callable[[Corpus, Path, random.Random], list[checks.Check]]
    align_sample: int


def _engine_flags(corpus: Corpus) -> list[str]:
    flags = ["--pred", str(corpus.pred_root)]
    for e in corpus.spec.engines:
        flags += ["--engine", e.name]
    return flags


def _eval_commands(corpus: Corpus) -> list[list[str]]:
    return [["eval", "--gt", str(corpus.gt_root), *_engine_flags(corpus), "--out", "{out}/report.json"]]


def _vote_commands(corpus: Corpus) -> list[list[str]]:
    return [["vote", "--tie-break", "confidence", *_engine_flags(corpus), "--out", "{out}/voted"]]


def _prep_commands(corpus: Corpus) -> list[list[str]]:
    corpora = corpus.spec.corpora
    manifests = [f for c in corpora for f in ("--manifest", f"{{out}}/{c}.json")]
    stages = ",".join(corpora)
    cmds = [
        ["prepare", "scan", "--root", str(corpus.corpus_root(c)), "--corpus", c, "--out", f"{{out}}/{c}.json"]
        for c in corpora
    ]
    cmds += [
        ["prepare", "refine", *manifests, "--cap", str(REFINE_CAP), "--out", "{out}/refined.json"],
        ["prepare", "schedule", *manifests, "--stage", f"real={stages}",
         "--stage", f"refinement={stages}", "--cap", str(REFINE_CAP), "--out", "{out}/schedule.json"],
        ["prepare", "verify", *manifests, "--expected", str(corpus.root / "counts.csv"),
         "--out", "{out}/verify.json"],
    ]
    return cmds


def _check_eval(corpus, out, rng):
    return checks.check_eval_report(corpus, (out / "report.json").read_bytes(), rng)


def _check_vote(corpus, out, rng):
    return checks.check_vote(corpus, out / "voted", rng, sample=20)


def _check_prep(corpus, out, rng):
    return checks.check_prep(corpus, out, REFINE_CAP)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "eval-lines",
            "eval of 2 engines over short lines in many books: the common case, alignment-bound",
            CorpusSpec("eval", ("N", "O"), 20, 10, (30, 90), ENGINES),
            lambda spec: spec.line_count * len(spec.engines),
            _eval_commands,
            _check_eval,
            align_sample=40,
        ),
        Workload(
            "vote-lines",
            "vote of 3 engines with confidence sidecars: pivot alignment, slot resolution, one write per line",
            CorpusSpec("vote", ("N", "O"), 3, 10, (150, 450), VOTE_ENGINES, conf_sidecars=True),
            lambda spec: spec.line_count,
            _vote_commands,
            _check_vote,
            align_sample=10,
        ),
        Workload(
            "prep-tree",
            "scan, refine, schedule and verify manifests of three corpus trees: no alignment at all",
            CorpusSpec("prep", ("N", "O", "S"), 20, 40, (30, 90)),
            lambda spec: spec.line_count,
            _prep_commands,
            _check_prep,
            align_sample=0,
        ),
    )
}
