"""The summaries `tools/bench_pairs.py` writes, on synthetic run records: the
claim rule, the bound check and the traced medians. Nothing is run."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "ref_run_s", "better": "lower", "bound": 0.25},
    {"name": "ref_docs_per_s", "better": "higher", "bound": 0.25},
]


def _record(side, seed, metrics, trace=0, workload="w"):
    return {
        "side": side, "workload": workload, "seed": seed, "trace": trace,
        "first_in_pair": True, "rss": None,
        "result": {"correct": True, "failed": 0,
                   "metrics": {k: {"value": v} for k, v in metrics.items()}},
    }


def _pairs(parent_s, change_s):
    runs = []
    for seed, (p, c) in enumerate(zip(parent_s, change_s)):
        runs.append(_record("parent", seed, {"ref_run_s": p, "ref_docs_per_s": 100 / p}))
        runs.append(_record("change", seed, {"ref_run_s": c, "ref_docs_per_s": 100 / c}))
    return runs


def _claim(runs):
    return bench_pairs.summarise(runs, METRICS, "w:ref_run_s")["claim"]


PARENT = [20.0, 20.2, 19.8, 20.1, 19.9, 20.3, 19.7, 20.0, 20.1, 19.9]


def test_claim_met_with_every_pair_won_beyond_the_iqr():
    claim = _claim(_pairs(PARENT, [p - 2.0 for p in PARENT]))
    assert claim["met"] is True
    # Exclusive quartiles of PARENT: 19.875 and 20.125.
    assert claim["parent_iqr"] == pytest.approx(0.25)


@pytest.mark.parametrize("lost, met", [(1, True), (2, False)])
def test_claim_needs_nine_of_ten_pairs(lost, met):
    change = [p - 2.0 for p in PARENT]
    for i in range(lost):
        change[i] = PARENT[i] + 0.1
    summary = bench_pairs.summarise(_pairs(PARENT, change), METRICS, "w:ref_run_s")
    assert summary["w"]["ref_run_s"]["change_better_pairs"] == 10 - lost
    assert summary["claim"]["met"] is met


def test_claim_needs_a_median_difference_above_the_parent_iqr():
    # Every pair won, by less than the parent's spread.
    parent = [18.0, 22.0, 19.0, 21.0, 20.0, 18.5, 21.5, 19.5, 20.5, 20.0]
    claim = _claim(_pairs(parent, [p - 0.3 for p in parent]))
    assert claim["parent_iqr"] > 0.3
    assert claim["met"] is False


@pytest.mark.parametrize("factor, lower_ok, higher_ok", [
    (1.20, True, True),    # 20 % slower: run time within 0.25; throughput -16.7 %
    (1.30, False, True),   # 30 % slower: run time beyond; throughput -23.1 %
    (1.40, False, False),  # throughput -28.6 %, beyond its bound too
    (0.50, True, True),    # faster is always within
])
def test_within_bound_by_direction(factor, lower_ok, higher_ok):
    entry = bench_pairs.summarise(_pairs(PARENT, [p * factor for p in PARENT]), METRICS, None)["w"]
    assert entry["ref_run_s"]["within_bound"] is lower_ok
    assert entry["ref_docs_per_s"]["within_bound"] is higher_ok
    assert entry["pairs"] == 10 and entry["all_correct"]


def test_run_counts_per_invocation_flag_sides_that_differ():
    runs = []
    for workload, counts in {"same": [(2, 2), (3, 3)], "apart": [(2, 2), (2, 3)]}.items():
        for seed, pair in enumerate(counts):
            for side, count in zip(("parent", "change"), pair):
                record = _record(side, seed, {"ref_run_s": 1.0, "ref_docs_per_s": 1.0},
                                 workload=workload)
                record["rss"] = {"run_count": count, "runs": [{"maxrss_mb": 1.0}] * count}
                runs.append(record)
    runs.append(_record("parent", 0, {"ref_run_s": 1.0, "ref_docs_per_s": 1.0}, workload="x"))
    runs.append(_record("change", 0, {"ref_run_s": 1.0, "ref_docs_per_s": 1.0}, workload="x"))
    summary = bench_pairs.summarise(runs, METRICS, None)
    assert summary["same"]["run_counts"] == {"parent": [2, 3], "change": [2, 3]}
    assert summary["same"]["run_counts_differ"] is False
    assert summary["apart"]["run_counts"] == {"parent": [2, 2], "change": [2, 3]}
    assert summary["apart"]["run_counts_differ"] is True
    # An invocation without recorded runs counts as None on its side.
    assert summary["x"]["run_counts"] == {"parent": [None], "change": [None]}


def test_traced_medians_per_workload_and_side():
    layers = {
        "parent": [{"fluency.train_s": 1.0, "fluency.score_s": 2.0, "dedup.hash_s": 0},
                   {"fluency.train_s": 3.0, "fluency.score_s": 1.0, "dedup.hash_s": 0},
                   {"fluency.train_s": 2.0, "fluency.score_s": None, "dedup.hash_s": 0}],
        "change": [{"fluency.train_s": 0.5, "fluency.score_s": 1.0, "dedup.hash_s": 0},
                   {"fluency.train_s": 0.4, "fluency.score_s": 0.5, "dedup.hash_s": 0},
                   {"fluency.train_s": 0.6, "fluency.score_s": 0.5, "dedup.hash_s": 0}],
    }
    runs = [_record(side, seed, values, trace=1)
            for side in ("parent", "change") for seed, values in enumerate(layers[side])]
    runs.append(_record("parent", 0, {"fluency.train_s": 9.0}, trace=1, workload="one_side"))
    runs.append(_record("parent", 0, {"fluency.train_s": 9.0}, trace=0))  # untraced: ignored

    medians = bench_pairs.traced_medians(runs)
    assert set(medians) == {"w"}
    assert medians["w"]["runs"] == {"parent": 3, "change": 3}
    got = medians["w"]["layers"]
    assert got["fluency.train_s"] == {"parent": 2.0, "change": 0.5, "median_change": -0.75}
    # The parent's null is left out: median of 2.0 and 1.0.
    assert got["fluency.score_s"] == {"parent": 1.5, "change": 0.5, "median_change": -0.6667}
    assert got["dedup.hash_s"] == {"parent": 0, "change": 0, "median_change": None}


def test_compare_trees_names_each_differing_and_one_sided_file(tmp_path):
    files = {
        "parent": {"same.json": b"{}", "dedup/sig.bin": b"x", "tok/v.json": b"1",
                   "empty": b""},
        "change": {"same.json": b"{}", "tok/v.json": b"2", "tok/new.json": b"n",
                   "empty": b""},
    }
    for side, tree in files.items():
        for rel, data in tree.items():
            (tmp_path / side / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / rel).write_bytes(data)
    (tmp_path / "change" / "only_a_dir").mkdir()
    assert bench_pairs.compare_trees(tmp_path / "parent", tmp_path / "change") == [
        "parent only: dedup/sig.bin",
        "change only: tok/new.json",
        "differs: tok/v.json",
    ]
    assert bench_pairs.compare_trees(tmp_path / "parent", tmp_path / "parent") == []


def test_peaks_table_rows_per_workload_and_stage():
    peaks = {
        "parent": {"w": {bench_pairs.WHOLE_RUN: 88_064, "ingest": 35_840, "dedup": 86_016},
                   "v": {bench_pairs.WHOLE_RUN: 83_968, "tokenizer": 81_920}},
        "change": {"w": {bench_pairs.WHOLE_RUN: 51_200, "ingest": 35_840, "dedup": 49_152}},
    }
    assert bench_pairs.peaks_table(peaks) == [
        "workload           stage      parent MiB change MiB   change",
        "w                  whole run        86.0       50.0   -41.9%",
        "w                  ingest           35.0       35.0    +0.0%",
        "w                  dedup            84.0       48.0   -42.9%",
        "v                  whole run        82.0          -        -",
        "v                  tokenizer        80.0          -        -",
    ]
