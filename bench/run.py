"""Benchmark entry point: seeded corpus, closed-loop CLI runs, output checks.

    python3 bench/run.py --workload eval-lines --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``, nothing needs building. One run generates the
workload's corpus from --seed under ``.bench_work/``, measures set-up
time in fresh interpreters, runs the workload in a worker process for
--seconds, checks the outputs and deletes the corpus again.

With --trace 0 the result carries the end-to-end metrics, with --trace 1
the per-layer metrics of a separate traced run (see tracing.py). The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. ``--workload all`` runs every workload untraced and traced and
prints every metric by name with its unit.

FRAKTUR_BENCH_THREADS is recorded and removed from the environment, so an
inherited setting cannot change the numbers.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from corpus import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREADS_ENV = "FRAKTUR_BENCH_THREADS"
SETUP_PROBES = 7  # the first is discarded: it compiles bytecode into a cold cache
WORKER_TIMEOUT_S = 150
# Seconds of checks.calibrate() on an idle core of the machine the benchmark
# was built on (2-core Xeon VM); see scaled() below.
CALIBRATION_S = 0.022

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("lines_per_s", "lines/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# name, unit; every per-layer metric is better lower
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s") for layer in tracing.LAYERS]
    + [
        ("align.calls", "count"),
        ("align.us_per_call", "us"),
        ("align.cells", "count"),
        ("align.ns_per_cell", "ns"),
        ("align.script_ops", "count"),
        ("align.identical_ratio", "ratio"),
        ("normalize.calls", "count"),
        ("normalize.us_per_line", "us"),
        ("normalize.changed_ratio", "ratio"),
        ("pipeline.read_s", "s"),
        ("pipeline.files_read", "count"),
        ("pipeline.pair_s", "s"),
        ("analytics.confusion_s", "s"),
        ("analytics.confusion_ops", "count"),
        ("analytics.report_s", "s"),
        ("analytics.emit_s", "s"),
        ("analytics.emit_bytes", "bytes"),
        ("voting.calls", "count"),
        ("voting.slots", "count"),
        ("voting.us_per_line", "us"),
        ("cli.writes", "count"),
        ("cli.write_s", "s"),
        ("cli.write_bytes", "bytes"),
        ("manifests.scan_s", "s"),
        ("manifests.scan_lines", "count"),
        ("manifests.sample_s", "s"),
        ("manifests.json_s", "s"),
        ("manifests.verify_s", "s"),
        ("codec.load_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.unattributed_s", "s"),
    ]
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def environment(seed: int, threads: str | None) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": git_commit(ROOT),
        "seed": seed,
        # inherited value; the program always runs with the variable unset
        THREADS_ENV: threads,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)
    return env


def setup_times() -> list[tuple[float, float]]:
    """(set-up, calibration) seconds from fresh interpreters.

    Set-up is importing fraktur_bench.cli and loading the default codec and
    rules; the calibration loop runs right after it in the same process.
    """
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), str(SRC)],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        setup, cal = proc.stdout.split()
        times.append((float(setup), float(cal)))
    return times[1:]


def scaled(pairs: list[tuple[float, float]]) -> float:
    """Median of time / calibration time, in seconds at the calibration's idle speed.

    The machine the benchmark was built on is shared: neighbour load slowed
    everything in it, for seconds to minutes at a time, by up to 2x. Raw
    medians of whole runs moved by 20-40% from run to run, fastest
    repetitions by up to 30%. Each measured time is divided by a fixed
    pure-Python loop (checks.calibrate) timed right next to it in the same
    process, which the load slows alike: over ten runs per workload the
    quartile spread of the scaled median was 0.04-0.10 of its median, that
    of the raw median 0.17-0.28.
    """
    return statistics.median(t / cal for t, cal in pairs) * CALIBRATION_S


def run_worker(job: dict, job_path: Path) -> dict:
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        stdout=subprocess.DEVNULL, env=child_env(),
    )
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One measured run of one workload; returns the full result record."""
    # the package attribute fraktur_bench.align is the function, not the module
    align = importlib.import_module("fraktur_bench.align").align
    codec = importlib.import_module("fraktur_bench.codec")

    workload = WORKLOADS[name]
    threads = os.environ.get(THREADS_ENV)
    env = environment(seed, threads)
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        codec_chars = codec.default_codec().characters
        corpus = generate(workload.spec, seed, work / "corpus", codec_chars)
        setup = [] if trace else setup_times()
        (work / "out").mkdir()
        job = {
            "src": str(SRC),
            "commands": [["--seed", str(seed), *argv] for argv in workload.commands(corpus)],
            "out_root": str(work / "out"),
            "seconds": seconds,
            "trace": int(trace),
            "result": str(work / "worker.json"),
            "spans": str(WORK / f"spans-{name}.tsv"),
        }
        res = run_worker(job, work / "job.json")

        rng = random.Random(f"fraktur-bench checks:{seed}")
        found = [
            checks.Check(
                "outputs_identical_across_reps",
                len(res["digests"]) == 1,
                f"{len(res['digests'])} distinct output tree(s)",
            )
        ]
        try:
            found += workload.check(corpus, Path(res["last_out"]), rng)
        except (OSError, ValueError, KeyError, TypeError) as exc:  # missing or malformed output
            found.append(checks.Check("outputs_readable", False, f"{type(exc).__name__}: {exc}"))
        if workload.align_sample:
            found.append(
                checks.check_align_sample(corpus, align, rng, workload.align_sample)
            )
    finally:
        if work.exists():
            shutil.rmtree(work)

    walls = res["walls"]
    cals = res["calibrations"]
    q1, median, q3 = quartiles(walls)
    # each repetition against the calibrations just before and after it
    wall = scaled([(w, (cals[i] + cals[i + 1]) / 2) for i, w in enumerate(walls)])
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        layers = tracing.derive(dict(res["layers"]))
        # each traced repetition against the untraced one just before it
        layers["trace.overhead_ratio"] = statistics.median(
            t / w for t, w in zip(res["traced_walls"], walls)
        ) - 1
        accounted = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        accounted += layers["trace.unattributed_s"]
        found.append(
            checks.Check(
                "layers_account_for_traced_wall",
                abs(accounted - layers["trace.wall_s"]) <= 1e-6 * layers["trace.wall_s"],
                f"self times + unattributed {accounted:.6f} s, traced wall {layers['trace.wall_s']:.6f} s",
            )
        )
        units = dict(PER_LAYER)
        metrics = {k: (float(layers[k]), units[k]) for k, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "lines_per_s": (workload.work_lines(workload.spec) / wall, "lines/s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
            "setup_s": (scaled(setup), "s"),
        }
    failed_checks = [c for c in found if not c.ok]
    attempted = res["attempted"] + len(found)
    failed = res["failed"] + len(failed_checks)
    return {
        "workload": name,
        "trace": trace,
        "environment": env,
        "corpus": corpus.stats,
        "reps": len(walls),
        "wall_quartiles_s": [q1, median, q3],
        "walls_s": walls,
        "calibrations_s": cals,
        "warmup_s": res["warmup_s"],
        "setup_samples_s": setup,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in found],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
    }


def print_record(rec: dict) -> None:
    mode = "traced" if rec["trace"] else "untraced"
    print(f"== {rec['workload']} ({mode}, {rec['reps']} reps, seed {rec['environment']['seed']})")
    for c in rec["checks"]:
        print(f"   check {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(f"   fail_ratio {rec['fail_ratio']:.4f} ({rec['failed']}/{rec['attempted']})")
    q1, median, q3 = rec["wall_quartiles_s"]
    print(
        f"   raw rep wall median {median:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, n {rec['reps']}); "
        f"calibration median {statistics.median(rec['calibrations_s']):.4f} s"
    )
    for key, (value, unit) in rec["metrics"].items():
        print(f"   {key:<26} {value:>16.6g} {unit}")


def save(rec: dict) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{rec['workload']}-seed{rec['environment']['seed']}-trace{int(rec['trace'])}.json"
    (out / name).write_text(json.dumps(rec, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def final_line(records: list[dict], prefix: bool) -> str:
    metrics = {}
    for rec in records:
        for key, (value, unit) in rec["metrics"].items():
            metrics[f"{rec['workload']}/{key}" if prefix else key] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": all(r["failed"] == 0 for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fraktur_bench" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "all":
            records = [
                run_one(name, args.seed, args.seconds, trace)
                for name in WORKLOADS
                for trace in (False, True)
            ]
        else:
            records = [run_one(args.workload, args.seed, args.seconds, bool(args.trace))]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        save(rec)
        print_record(rec)
    print(final_line(records, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
