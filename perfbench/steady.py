"""Steadiness check: two sets of runs of the same code, compared metric by metric.

    python3 perfbench/steady.py [--out FILE]

Each set runs `run.py --trace 0` once per seed (1-10) and workload of
BENCHMARK.json, with the workloads interleaved (seed 1 of every workload,
then seed 2, ...), and the second set starts 60 s after the first ends. Both
sets use the same seeds, so they differ only in when they ran. For every
workload and end-to-end metric it prints each set's median and quartile
spread ((Q3 - Q1) / median), the change of the second median against the
first in the metric's worse direction, and whether the spreads and the size
of that change stay within the bound in BENCHMARK.json. It also prints the
smallest bound each metric could have: three times the largest spread or
drift seen, so that bounds come from pairs of sets. Raw results go to --out
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
GAP_S = 60  # pause between the two sets


def _one(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_set(label: str, workloads: list[str], seconds: int) -> dict:
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            res = _one(w, seed, seconds)
            results[w].append(res)
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"[{label}] {w} seed {seed}: correct={res['correct']} {shown}", flush=True)
    return results


def _spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def compare(bench: dict, set_a: dict, set_b: dict) -> tuple[bool, list[str]]:
    lines, ok = [], True
    need: dict[str, float] = {}
    for w in set_a:
        fails = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w])
                 for s in (set_a, set_b)]
        wrong = [r for s in (set_a, set_b) for r in s[w] if not r["correct"]]
        if fails[0] != fails[1] or wrong:
            ok = False
            lines.append(f"{w}: failed share {fails}, {len(wrong)} incorrect run(s)")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            med_a, spr_a = _spread([r["metrics"][name]["value"] for r in set_a[w]])
            med_b, spr_b = _spread([r["metrics"][name]["value"] for r in set_b[w]])
            worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
            good = max(spr_a, spr_b, abs(worse)) <= bound
            ok = ok and good
            need[name] = max(need.get(name, 0.0), 3 * max(spr_a, spr_b, abs(worse)))
            lines.append(f"{w:18s} {name:12s} A {med_a:10.4g} ±{spr_a:6.1%}  B {med_b:10.4g} "
                         f"±{spr_b:6.1%}  worse {worse:+6.1%}  bound {bound:.0%}  "
                         f"{'ok' if good else 'OUT OF BOUND'}")
    lines.append("smallest bounds these sets allow (3x largest spread or drift): " +
                 ", ".join(f"{k} {v:.3f}" for k, v in need.items()))
    return ok, lines


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / ".perfbench-work" / "steady.json"))
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    set_a = _run_set("A", workloads, bench["run_seconds"])
    time.sleep(GAP_S)
    set_b = _run_set("B", workloads, bench["run_seconds"])
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"A": set_a, "B": set_b}) + "\n", encoding="utf-8")
    ok, lines = compare(bench, set_a, set_b)
    print("\n".join(lines))
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
