"""The committed benchmark records, ``BENCH_parent.json`` and ``BENCH_change.json``.

``tools/bench_record.py LABEL`` writes ``BENCH_<LABEL>.json`` from runs of
``bench/run.py``; this test only reads the committed files, it runs no
benchmark.
"""

import json
import math
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
LABELS = ("parent", "change")


def read(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
        return json.load(handle)


SPEC = read("BENCHMARK.json")
RECORDS = {label: read(f"BENCH_{label}.json") for label in LABELS}


@pytest.mark.parametrize("label", LABELS)
def test_bench_record_schema(label):
    doc = RECORDS[label]
    assert doc["label"] == label
    assert re.fullmatch(r"[0-9a-f]{40}", doc["revision"])
    assert doc["tree_dirty"] is False
    assert doc["command"] == SPEC["command"]
    assert doc["seeds"] == [1, 2, 3]
    assert doc["seconds"] == 20
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert [(run["seed"], run["workload"]) for run in doc["runs"]] == [
        (seed, workload) for seed in doc["seeds"] for workload in workloads
    ]
    units = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    for run in doc["runs"]:
        assert run["seconds"] == doc["seconds"]
        assert run["correct"] is True
        assert type(run["attempted"]) is int and type(run["failed"]) is int
        assert 0 <= run["failed"] <= run["attempted"] == len(run["ops"])
        assert {name: metric["unit"] for name, metric in run["metrics"].items()} == units
        for metric in run["metrics"].values():
            assert math.isfinite(metric["value"]) and metric["value"] > 0
        for op in run["ops"]:
            assert op["id"] and all(op[key] > 0 for key in ("median_s", "q1_s", "q3_s"))
        provenance = run["provenance"]
        assert {"python", "implementation", "nproc", "cpu_model"} <= provenance.keys()
        assert provenance["passes"] >= 2 and provenance["calibration_median_s"] > 0


def test_bench_records_compare_like_with_like():
    parent, change = (RECORDS[label] for label in LABELS)
    assert parent["revision"] != change["revision"]
    for a, b in zip(parent["runs"], change["runs"]):
        assert (a["workload"], a["seed"]) == (b["workload"], b["seed"])
        assert [op["id"] for op in a["ops"]] == [op["id"] for op in b["ops"]]
        for key in ("python", "implementation", "nproc", "cpu_model"):
            assert a["provenance"][key] == b["provenance"][key]
