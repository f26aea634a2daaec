"""Self-test of the benchmark's output checker and its metric lists."""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import run  # noqa: E402

# `gainlab analyze --n 5 --x 9 --y 23 --A 109 --B 1 --k 2 --format json`
GOOD = {
    "solution": {"n": "5", "x": "9", "y": "23", "A": "109", "B": "1", "k": "2",
                 "trivial_x": False},
    "terms": {"C": "6436343", "P": "45126", "radical_P": "15042"},
    "gains": {"G_a": "1.46283", "G_p": "1.11422", "q": "1.62991"},
    "bounds": {"ga_min": "0.609982", "q_min": "0.609982", "gp_max_strong": "3.27879",
               "gp_max_ultra": "2.45909", "k1_q_bound": "2.50000"},
    "checks": {"identity": True, "coprime": True, "thm1_holds": True, "thm5_holds": True},
}


def with_change(section, key, value):
    doc = copy.deepcopy(GOOD)
    doc[section][key] = value
    return doc


def test_only_the_good_row_passes():
    wrong_radical = with_change("terms", "radical_P", "7521")
    broken_identity = with_change("solution", "k", "3")
    assert checker.check_row(GOOD) == []
    assert checker.check_row(wrong_radical) != []
    assert checker.check_row(broken_identity) != []


def test_box_check_catches_order_and_cells():
    box = {"command": "hunt", "n": (5, 5), "x": (9, 9), "y": (23, 23), "A": (109, 109), "B": (1, 1)}
    good = json.dumps({"solutions": [GOOD], "cells_scanned": 1}).encode()
    assert checker.check_box(good, box, seed=0) == ([], 1, 1)
    miscounted = json.dumps({"solutions": [GOOD], "cells_scanned": 2}).encode()
    assert checker.check_box(miscounted, box, seed=0)[0] != []


def test_result_line_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
