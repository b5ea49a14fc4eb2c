import json
from pathlib import Path

import run
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_metrics_match():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, "lower") for name, unit in run.PER_LAYER
    ]
