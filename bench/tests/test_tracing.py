import importlib
import math
from time import perf_counter

import tracing
from corpus import CorpusSpec, generate
from fraktur_bench import cli
from fraktur_bench.codec import default_codec
from workloads import ENGINES, WORKLOADS

CODEC = default_codec().characters


def _traced(tmp_path, workload, spec):
    corpus = generate(spec, 4, tmp_path / "corpus", CODEC)
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = perf_counter()
        for argv in WORKLOADS[workload].commands(corpus):
            argv = [a.replace("{out}", str(out)) for a in argv]
            assert tracer.call("cli.run", "cli", cli.run, argv) == 0
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    return tracing.derive(tracing.summarize(tracer.spans, tracer.counters, wall)), wall


def test_layer_self_times_add_up_to_the_wall_time(tmp_path):
    spec = CorpusSpec("eval", ("N",), 2, 6, (30, 90), ENGINES)
    m, wall = _traced(tmp_path, "eval-lines", spec)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert math.isclose(layers + m["trace.unattributed_s"], wall, rel_tol=1e-9)
    assert m["align.calls"] == 2 * 12
    assert m["normalize.calls"] == 3 * 12
    assert m["pipeline.files_read"] == 3 * 12
    assert m["cli.writes"] == 1
    assert 0 < m["align.self_s"] < wall


def test_prep_aligns_nothing(tmp_path):
    spec = CorpusSpec("prep", ("N", "O"), 2, 5, (30, 90))
    m, _ = _traced(tmp_path, "prep-tree", spec)
    assert m["align.calls"] == 0
    assert m["manifests.scan_lines"] == 20
    assert m["cli.writes"] == 2 + 3
    assert m["normalize.calls"] == 0


def test_uninstall_restores_every_binding():
    modules = {name: importlib.import_module(f"fraktur_bench.{name}") for name in tracing.BINDINGS}
    before = {(n, a): getattr(m, a, None) for n, m in modules.items() for a in tracing.BINDINGS[n]}
    tracer = tracing.Tracer()
    tracer.install()
    assert modules["pipeline"].align is not before[("pipeline", "align")]
    tracer.uninstall()
    after = {(n, a): getattr(m, a, None) for n, m in modules.items() for a in tracing.BINDINGS[n]}
    assert after == before
