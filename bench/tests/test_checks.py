import importlib
import json
import random

import pytest

import checks
from corpus import CorpusSpec, generate
from fraktur_bench.cli import run
from fraktur_bench.codec import default_codec
from workloads import ENGINES, WORKLOADS

# the package attribute fraktur_bench.align is the function, not the module
ALIGN = importlib.import_module("fraktur_bench.align").align
CODEC = default_codec().characters


@pytest.fixture()
def eval_run(tmp_path):
    spec = CorpusSpec("eval", ("N", "O"), 2, 5, (30, 90), ENGINES)
    corpus = generate(spec, 11, tmp_path / "corpus", CODEC)
    out = tmp_path / "out"
    for argv in WORKLOADS["eval-lines"].commands(corpus):
        assert run([a.replace("{out}", str(out)) for a in argv]) == 0
    return corpus, (out / "report.json").read_bytes()


def _failed(found):
    return [c.name for c in found if not c.ok]


def test_a_correct_report_passes(eval_run):
    corpus, data = eval_run
    assert _failed(checks.check_eval_report(corpus, data, random.Random(1))) == []


@pytest.mark.parametrize(
    "field, delta, check",
    [("lines", 1, "report_counts"), ("gt_chars", -1, "report_counts"), ("distance", 10**6, "distance_bounds")],
)
def test_a_corrupted_report_fails(eval_run, field, delta, check):
    corpus, data = eval_run
    report = json.loads(data)
    for cells in report["cells"].values():
        for cell in cells.values():
            cell[field] += delta
    found = checks.check_eval_report(corpus, json.dumps(report).encode(), random.Random(1))
    assert check in _failed(found)


def test_an_off_by_one_distance_fails_the_reference_cell(eval_run):
    corpus, data = eval_run
    report = json.loads(data)
    for cells in report["cells"].values():
        for cell in cells.values():
            cell["distance"] -= 1
    found = checks.check_eval_report(corpus, json.dumps(report).encode(), random.Random(1))
    assert "reference_cell" in _failed(found)


def test_reference_script_agrees_with_align():
    rng = random.Random(2)
    for _ in range(200):
        a = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 12)))
        dist, ops = checks.reference_script(a, b)
        got = ALIGN(a, b)
        assert got.distance == dist == checks.reference_distance(a, b)
        assert [(op.kind.value, op.gt, op.pred) for op in got.ops] == ops
