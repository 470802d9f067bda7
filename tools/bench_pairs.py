"""Alternating-pairs runner for perfbench: parent against change, same seeds.

    python3 tools/bench_pairs.py pairs --parent ../parent --change . \\
        --runs greek_tokenize:1-10 --runs pipeline_20k:1-5 --trace greek_tokenize:1 \\
        --claim greek_tokenize:ref_run_s --out BENCH_N.json

Each pair runs `perfbench/run.py` (unchanged) once from each checkout on one
seed; the side that runs first swaps with each pair of a workload. Every
invocation goes through `invoke`, which imports that checkout's run.py and
wraps `run._one_run` to record the run count and each run's `maxrss_mb`.

The results file keeps every invocation under `runs`, in the order made, and
is rewritten after each one, so an interrupted set keeps what it measured. A
later call with the same --out adds its runs to the file's and summarises
them all: per workload and end-to-end metric of BENCHMARK.json, the
quartiles of each side, the relative change of the medians, the pairs the
change won, and whether the change stays within the metric's bound. A claim
holds when the change wins at least 9 of every 10 pairs and the medians
differ in its favour by more than the parent's interquartile range. Each
workload also lists every invocation's run count per side and flags the
workload when the two sides' counts differ pair by pair: the benchmark's
`peak_rss_mb` of a later run reads the high-water mark run.py itself left,
so sides that make different numbers of runs compare inherited marks. The
`--trace 1` runs are summarised by `traced_medians`: per workload and side,
the median of every layer metric, and the change's relative to the parent's.

    python3 tools/bench_pairs.py trees --parent ../parent --change . --work ../trees

`trees` checks that a change leaves the outputs alone. It writes the seed-1
inputs of every workload from the parent's `perfbench/gen.py` and a
20,000-document demo corpus from the parent's `corpus-forge synth`, runs
`corpus-forge run` on each from both checkouts at `--threads` 1 and 2, and
prints each output file that differs and each file present on one side
only. It exits 1 if there is any.

    python3 tools/bench_pairs.py peaks --parent ../parent --change . --work ../peaks

`peaks` places a memory saving. For the seed-1 inputs of every workload it
runs `corpus-forge run` from each checkout, then reruns each configured stage
alone on that tree, all through the checkout's `tests/helpers.py`, and
prints the whole run's peak resident set (VmHWM) and each stage's own, per
side. The traced `stage.<name>_maxrss_mb` cannot: it reads the high-water
mark of the process that spawned the run. Nor do the stages' own peaks make
the whole run's: a stage that runs after others starts on the heap they
leave behind.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
WHOLE_RUN = "whole run"  # the `peaks` row of the whole `corpus-forge run`


def invoke(checkout: Path, rss_path: Path, argv: list[str]) -> int:
    """Run `checkout`'s perfbench/run.py in this process, recording each run's RSS."""
    bench = checkout.resolve() / "perfbench"
    sys.path.insert(0, str(bench))
    import run  # the checkout's perfbench/run.py

    records: list[dict] = []
    one_run = run._one_run

    def recording(work, spec, tag, deadline, trace):
        res = one_run(work, spec, tag, deadline, trace)
        records.append({"tag": tag, "traced": trace, "maxrss_mb": res["maxrss_mb"]})
        return res

    run._one_run = recording
    try:
        return run.main(argv)
    finally:
        rss_path.write_text(json.dumps(records), encoding="utf-8")


def _one(side: str, checkout: Path, workload: str, seed: int, trace: int,
         seconds: float, first: bool) -> dict:
    rss_path = checkout / ".perfbench-work" / f"rss-{workload}-{seed}-{trace}.json"
    rss_path.parent.mkdir(exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "invoke",
                           str(checkout), str(rss_path), "--", *args],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {"side": side, "workload": workload, "seed": seed, "trace": trace,
              "first_in_pair": first, "result": None, "rss": None}
    if proc.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    else:
        record["error"] = proc.stderr[-2000:]
    if rss_path.exists():
        runs = json.loads(rss_path.read_text(encoding="utf-8"))
        record["rss"] = {"run_count": len(runs), "runs": runs}
        rss_path.unlink()
    print(f"{side:<6} {workload} seed {seed} trace {trace}: "
          f"{'ok' if record['result'] else 'FAILED'}", file=sys.stderr)
    return record


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": round(q1, 4), "median": round(statistics.median(values), 4),
            "q3": round(q3, 4)}


def _value(record: dict, metric: str) -> float:
    return record["result"]["metrics"][metric]["value"]


def summarise(runs: list[dict], metrics: list[dict], claim: str | None) -> dict:
    summary: dict = {}
    plain = [r for r in runs if r["trace"] == 0]
    for workload in dict.fromkeys(r["workload"] for r in plain):
        by_seed: dict[int, dict] = {}
        for r in plain:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in by_seed.values() if all(p.get(s) and p[s]["result"] for s in SIDES)]
        counts = {s: [p[s]["rss"]["run_count"] if p[s]["rss"] else None for p in pairs]
                  for s in SIDES}
        entry = {
            "seeds": sorted(by_seed),
            "pairs": len(pairs),
            "all_correct": all(p[s]["result"]["correct"] for p in pairs for s in SIDES),
            "failed_invocations": sum(1 for p in by_seed.values() for s in SIDES
                                      if not (p.get(s) and p[s]["result"])),
            "failed_operations": {s: sum(p[s]["result"]["failed"] for p in pairs)
                                  for s in SIDES},
            "run_counts": counts,
            "run_counts_differ": counts["parent"] != counts["change"],
        }
        for m in metrics if pairs else []:
            name, lower = m["name"], m["better"] == "lower"
            values = {s: [_value(p[s], name) for p in pairs] for s in SIDES}
            q = {s: _quartiles(values[s]) for s in SIDES}
            change = q["change"]["median"] / q["parent"]["median"] - 1
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(values["parent"], values["change"]))
            entry[name] = {
                **q, "median_change": round(change, 4), "change_better_pairs": wins,
                "bound": m["bound"],
                "within_bound": change <= m["bound"] if lower else change >= -m["bound"],
            }
            if claim == f"{workload}:{name}":
                iqr = q["parent"]["q3"] - q["parent"]["q1"]
                diff = q["parent"]["median"] - q["change"]["median"]
                summary["claim"] = {
                    "workload": workload, "metric": name,
                    "rule": "change better in >= 9 of every 10 pairs and the medians "
                            "differ in its favour by more than the parent IQR",
                    "parent_iqr": round(iqr, 4),
                    "met": wins >= math.ceil(0.9 * len(pairs))
                    and (diff if lower else -diff) > iqr,
                }
        summary[workload] = entry
    return summary


def traced(runs: list[dict]) -> dict:
    out: dict = {}
    for r in runs:
        if r["trace"] == 1 and r["result"]:
            out.setdefault(r["workload"], {}).setdefault(r["side"], []).append({
                "seed": r["seed"], "correct": r["result"]["correct"],
                "failed": r["result"]["failed"],
                "layers": {k: v["value"] for k, v in r["result"]["metrics"].items()},
            })
    return out


def traced_medians(runs: list[dict]) -> dict:
    """Per workload, each side's median of every traced layer metric and the
    change's median relative to the parent's. One traced run cannot place a
    saving, since the host's speed drifts within a run; medians over several
    can. A layer a run did not report (null) is left out of that median."""
    by_side = traced(runs)
    out: dict = {}
    for workload, sides in by_side.items():
        if not all(sides.get(s) for s in SIDES):
            continue
        names = dict.fromkeys(k for s in SIDES for rec in sides[s] for k in rec["layers"])
        layers: dict = {}
        for name in names:
            med = {}
            for s in SIDES:
                values = [rec["layers"].get(name) for rec in sides[s]]
                values = [v for v in values if v is not None]
                med[s] = round(statistics.median(values), 4) if values else None
            parent, change = med["parent"], med["change"]
            rel = None if not parent or change is None else round(change / parent - 1, 4)
            layers[name] = {**med, "median_change": rel}
        out[workload] = {"runs": {s: len(sides[s]) for s in SIDES}, "layers": layers}
    return out


def rss_per_run(runs: list[dict]) -> list[dict]:
    return [{"side": r["side"], "workload": r["workload"], "seed": r["seed"],
             "trace": r["trace"], "run_count": r["rss"]["run_count"],
             "maxrss_mb": [round(x["maxrss_mb"], 2) for x in r["rss"]["runs"]],
             "peak_rss_mb": round(_value(r, "peak_rss_mb"), 2) if r["trace"] == 0 else None}
            for r in runs if r["rss"] and r["result"]]


def host() -> dict:
    mem_kb = 0
    with open("/proc/meminfo", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    import numpy

    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(), "memory_gb": round(mem_kb / 1024**2, 1),
            "numba": importlib.util.find_spec("numba") is not None}


def _plan(spec: str) -> tuple[str, list[int]]:
    workload, _, seeds = spec.partition(":")
    lo, _, hi = seeds.partition("-")
    return workload, list(range(int(lo), int(hi or lo) + 1))


def run_pairs(args: argparse.Namespace) -> int:
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    metrics = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("host", host())
    doc["command"] = (f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds} "
                      "--trace 0|1, from each checkout, through tools/bench_pairs.py invoke")
    runs = doc.setdefault("runs", [])

    def save() -> None:
        doc["summary"] = summarise(runs, metrics, args.claim)
        doc["claim"] = doc["summary"].pop("claim", None)
        doc["traced"] = traced(runs)
        doc["traced_medians"] = traced_medians(runs)
        doc["rss_per_run"] = rss_per_run(runs)
        out.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")

    jobs = [(w, s, 0) for w, seeds in map(_plan, args.runs) for s in seeds]
    jobs += [(w, s, 1) for w, seeds in map(_plan, args.trace) for s in seeds]
    started = time.monotonic()
    for k, (workload, seed, trace) in enumerate(jobs):
        done = sum(1 for r in runs if r["workload"] == workload and r["trace"] == trace) // 2
        order = SIDES if (done % 2 == 0) else SIDES[::-1]
        for i, side in enumerate(order):
            runs.append(_one(side, checkouts[side], workload, seed, trace, args.seconds, i == 0))
            save()
        print(f"pair {k + 1}/{len(jobs)} done, {time.monotonic() - started:.0f}s", file=sys.stderr)
    save()
    return 0


def compare_trees(parent: Path, change: Path) -> list[str]:
    """One line per file that differs between two output trees or is in one only."""
    files = [{p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}
             for root in (parent, change)]
    lines = []
    for rel in sorted(files[0].keys() | files[1].keys()):
        found = [side.get(rel) for side in files]
        if found[1] is None:
            lines.append(f"parent only: {rel}")
        elif found[0] is None:
            lines.append(f"change only: {rel}")
        elif found[0].read_bytes() != found[1].read_bytes():
            lines.append(f"differs: {rel}")
    return lines


def _cli(checkout: Path, argv: list[str], helper: Path | None = None,
         peak: Path | None = None) -> None:
    """`corpus-forge ARGV...` from `checkout`'s source tree; through `helper`
    (a tests/helpers.py), which writes the process's VmHWM to `peak`."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    head = [str(helper), str(peak)] if helper else ["-m", "corpus_forge.cli"]
    proc = subprocess.run([sys.executable, *head, *argv],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: corpus-forge {' '.join(argv)}\n{proc.stderr}")


def run_trees(args: argparse.Namespace) -> int:
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    work = Path(args.work).resolve()
    configs = _workload_configs(checkouts["parent"], work)
    synth_dir = work / "inputs" / "synth_20k"
    _cli(checkouts["parent"], ["synth", "--docs", "20000", "--out", str(synth_dir)])
    configs["synth_20k"] = synth_dir / "config.json"
    differences = 0
    for name, config in configs.items():
        for threads in (1, 2):
            trees = {}
            for side, checkout in checkouts.items():
                trees[side] = work / "trees" / side / f"{name}-t{threads}"
                shutil.rmtree(trees[side], ignore_errors=True)
                _cli(checkout, ["run", "--config", str(config), "--threads", str(threads),
                                "--out", str(trees[side])])
            lines = compare_trees(trees["parent"], trees["change"])
            for line in lines:
                print(f"{name} threads {threads}: {line}")
            print(f"{name} threads {threads}: {len(lines)} differences", file=sys.stderr)
            differences += len(lines)
    return 1 if differences else 0


def _workload_configs(parent: Path, work: Path) -> dict[str, Path]:
    """The seed-1 config of every workload, written by the parent's perfbench/gen.py."""
    spec = importlib.util.spec_from_file_location("parent_gen", parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return {w: gen.generate(w, 1, work / "inputs" / w)["config"] for w in gen.WORKLOADS}


def peaks_table(peaks: dict[str, dict[str, dict[str, int]]]) -> list[str]:
    """Lines of `peaks` (side -> workload -> stage -> VmHWM kB, the whole
    run under WHOLE_RUN): one row per workload and stage with each side's
    MiB and the change's relative to the parent's; a stage one side lacks
    shows `-`."""
    lines = [f"{'workload':<18} {'stage':<10} {'parent MiB':>10} {'change MiB':>10} {'change':>8}"]
    workloads = dict.fromkeys(w for side in SIDES for w in peaks.get(side, {}))
    for workload in workloads:
        sides = [peaks.get(side, {}).get(workload, {}) for side in SIDES]
        for stage in dict.fromkeys(s for side in sides for s in side):
            kb = [side.get(stage) for side in sides]
            mib = [f"{k / 1024:.1f}" if k is not None else "-" for k in kb]
            rel = f"{kb[1] / kb[0] - 1:+.1%}" if None not in kb else "-"
            lines.append(f"{workload:<18} {stage:<10} {mib[0]:>10} {mib[1]:>10} {rel:>8}")
    return lines


def run_peaks(args: argparse.Namespace) -> int:
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    work = Path(args.work).resolve()
    configs = _workload_configs(checkouts["parent"], work)
    peaks: dict[str, dict[str, dict[str, int]]] = {side: {} for side in SIDES}
    peak = work / "peak.kb"
    for name, config in configs.items():
        payload = json.loads(config.read_text(encoding="utf-8"))
        for side, checkout in checkouts.items():
            tree = work / "trees" / side / name
            shutil.rmtree(tree, ignore_errors=True)
            runs = [(WHOLE_RUN, config)]
            for stage in payload["stages"]:
                # Beside the original, so its relative paths still resolve.
                alone = config.with_name(f"{config.stem}.{stage}.json")
                alone.write_text(json.dumps({**payload, "stages": [stage]}), encoding="utf-8")
                runs.append((stage, alone))
            for stage, run_config in runs:
                _cli(checkout, ["run", "--config", str(run_config), "--out", str(tree)],
                     helper=checkout / "tests" / "helpers.py", peak=peak)
                peaks[side].setdefault(name, {})[stage] = int(peak.read_text(encoding="ascii"))
                print(f"{side} {name} {stage}: {peaks[side][name][stage]} kB", file=sys.stderr)
    print("\n".join(peaks_table(peaks)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="alternate parent and change on the same seeds")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--runs", action="append", default=[], metavar="WORKLOAD:LO-HI")
    p.add_argument("--trace", action="append", default=[], metavar="WORKLOAD:LO-HI")
    p.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--out", required=True, help="results file, extended if it exists")
    t = sub.add_parser("trees", help="compare parent and change output trees, file by file")
    t.add_argument("--parent", required=True, help="checkout of the parent commit")
    t.add_argument("--change", required=True, help="checkout of the change")
    t.add_argument("--work", required=True, help="directory for the inputs and the trees")
    k = sub.add_parser("peaks", help="the whole run's and each stage's own peak RSS, per side")
    k.add_argument("--parent", required=True, help="checkout of the parent commit")
    k.add_argument("--change", required=True, help="checkout of the change")
    k.add_argument("--work", required=True, help="directory for the inputs and the trees")
    i = sub.add_parser("invoke", help="one perfbench/run.py invocation with RSS per run")
    i.add_argument("checkout")
    i.add_argument("rss_out")
    i.add_argument("run_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.command == "invoke":
        run_args = args.run_args[1:] if args.run_args[:1] == ["--"] else args.run_args
        return invoke(Path(args.checkout), Path(args.rss_out), run_args)
    commands = {"trees": run_trees, "peaks": run_peaks, "pairs": run_pairs}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
