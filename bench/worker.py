"""Workload process: runs one command sequence in a closed loop.

Started by run.py as a fresh interpreter, so its peak resident memory is
that of the workload alone. It reads a job description (JSON) naming the
commands, the output root and the time to measure, and writes its result
as JSON. Standard output is the CLI's own and is discarded by run.py.

Untraced (trace 0): one discarded warm-up repetition, then repetitions
until the measuring time is spent. Traced (trace 1): untraced and traced
repetitions alternate, so the tracing overhead is measured side by side.
Outputs are hashed between repetitions, outside the timed region. Output
trees are kept until run.py deletes the work directory, so that no mass
deletion runs between timed repetitions. A fixed calibration loop
(checks.calibrate) is timed before the first and after every untraced
repetition; run.py scales the repetitions by it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Loop:
    def __init__(self, run, commands: list[list[str]], out_root: Path) -> None:
        self.run = run
        self.commands = commands
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.last: Path | None = None

    def rep(self, label: str, tracer=None) -> float:
        out = self.out_root / label
        argvs = [[a.replace("{out}", str(out)) for a in argv] for argv in self.commands]
        codes = []
        start = time.perf_counter()
        for argv in argvs:
            try:
                if tracer is None:
                    codes.append(self.run(argv))
                else:
                    codes.append(tracer.call("cli.run", "cli", self.run, argv))
            except Exception:  # a traceback is a failed operation, not a dead benchmark
                traceback.print_exc()
                codes.append(-1)
        wall = time.perf_counter() - start
        self.attempted += len(codes)
        self.failed += sum(code != 0 for code in codes)
        self.digests.add(tree_digest(out))
        self.last = out
        return wall


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import checks
    import fraktur_bench.cli as cli
    import tracing

    loop = Loop(cli.run, job["commands"], Path(job["out_root"]))
    seconds = job["seconds"]
    result: dict = {"warmup_s": loop.rep("warmup")}
    walls: list[float] = []
    traced: list[float] = []
    spans: list[list[tuple]] = []
    per_rep: list[dict[str, float]] = []
    start = time.perf_counter()
    cals = [checks.calibrate()]
    while time.perf_counter() - start < seconds or len(walls) < 3:
        walls.append(loop.rep(f"rep-{len(walls)}"))
        cals.append(checks.calibrate())
        if job["trace"]:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                wall = loop.rep(f"traced-{len(traced)}", tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            spans.append(tracer.spans)
            per_rep.append(tracing.summarize(tracer.spans, tracer.counters, wall))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        walls=walls,
        calibrations=cals,
        traced_walls=traced,
        attempted=loop.attempted,
        failed=loop.failed,
        digests=sorted(loop.digests),
        last_out=str(loop.last),
    )
    if job["trace"]:
        result["layers"] = {k: sum(m[k] for m in per_rep) / len(per_rep) for k in per_rep[0]}
        tracing.write_spans(job["spans"], spans)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
