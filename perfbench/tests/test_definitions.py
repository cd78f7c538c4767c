"""BENCHMARK.json, the metric definitions and the workloads agree."""

import json
import re
from pathlib import Path

from perfbench import metrics
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_name_and_unit_is_well_formed():
    defined = metrics.END_TO_END + metrics.PER_LAYER
    names = [name for name, _, _ in defined]
    assert len(names) == len(set(names))
    for name, unit, better in defined:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
        assert better in ("higher", "lower"), name


def test_benchmark_json_lists_the_defined_metrics():
    doc = benchmark()
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_benchmark_json_lists_the_workloads():
    doc = benchmark()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    for name in WORKLOADS:
        assert NAME.fullmatch(name)
        assert (ROOT / "perfbench" / "reference" / f"{name}.json").is_file()
