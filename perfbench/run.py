"""Pipeline benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload pipeline_20k --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from the seed (outside the timed region),
then starts `corpus-forge run` in fresh processes until --seconds have
passed (at least one run), checks the first run's output tree against the
ground truth and every run's tree digest against the first, and prints one
JSON object as the last line of standard output.

--trace 0 reports the end-to-end metrics (medians over the runs; set-up is
also sampled by processes that stop after validating the config, half of
them before the runs and half after). The run's times are reported at the
host's reference speed (see `ref_seconds`), because the host's own speed
changes by up to 1.8x from minute to minute. Every workload runs longer than
BENCHMARK.json's run_seconds, so such an invocation makes one run and its
digest comparison has nothing to compare.
--trace 1 makes one untraced and one traced run, compares their tree
digests, and reports the per-layer metrics of the traced one, the raw wall
and CPU times of the untraced one, and the tracing overhead. An operation is
one configured stage of one run. Scratch files live under .perfbench-work/
in the repository root and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402

DEADLINE_S = 170  # a whole invocation must end within 180 s
SETUP_SAMPLES = 11  # the first run's own set-up, plus 5 before the runs and 5 after
REF_PROBE_S = 200e-6  # CPU time of child._probe_work at the reference speed


class BenchError(RuntimeError):
    pass


def _spawn(work: Path, config: Path, tag: str, flags: list[str], deadline: float) -> dict:
    """One fresh child process; returns its result with parent-side timings."""
    result_path = work / f"{tag}.json"
    log_path = work / f"{tag}.log"
    result_path.unlink(missing_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {tag}")
    spawn = time.monotonic()
    with open(log_path, "wb") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(result_path), str(config), *flags],
                stdout=log, stderr=subprocess.STDOUT, timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag} timed out") from exc
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{tag} exited with {proc.returncode}:\n{tail}")
    res = json.loads(result_path.read_text(encoding="utf-8"))
    res["setup_s"] = res["setup_end"] - spawn
    res["run_s"] = res["end"] - res["setup_end"]
    if res["probe"] is not None:
        res["ref_run_s"] = ref_seconds(res)
        res["ref_cpu_s"] = res["cpu_s"] * res["ref_run_s"] / res["run_s"]
    return res


def ref_seconds(res: dict) -> float:
    """The run's wall time at the reference speed.

    The child times a fixed slice of work (`child._probe_work`) on its main
    thread every 50 ms. Each stretch of wall time between two probes is
    scaled by REF_PROBE_S / that probe's CPU time, so a stretch run while the
    host was 1.5x slower counts 1/1.5 of its length. The stretch after the
    last probe takes the median probe."""
    probes = res["probe"]
    if not probes:
        raise BenchError("the run ended before its first speed probe")
    total, last = 0.0, res["setup_end"]
    for t, cost in probes:
        total += (t - last) * REF_PROBE_S / cost
        last = t
    median_cost = statistics.median(cost for _, cost in probes)
    return total + (res["end"] - last) * REF_PROBE_S / median_cost


def _one_run(work: Path, spec: dict, tag: str, deadline: float, trace: bool) -> dict:
    out = spec["config"].parent / spec["config_data"]["output_dir"]
    shutil.rmtree(out, ignore_errors=True)
    res = _spawn(work, spec["config"], tag, ["--trace"] if trace else [], deadline)
    completed = [name for name, _, _ in res["stages"]]
    res["failed"] = len(spec["stages"]) - len(completed) if res["rc"] == 2 else 0
    if res["rc"] not in (0, 2) or (res["rc"] == 0 and completed != spec["stages"]):
        raise BenchError(f"{tag}: exit code {res['rc']}, stages completed {completed}")
    res["digest"] = checks.tree_digest(out) if res["rc"] == 0 else None
    res["out"] = out
    return res


def _stage_metrics(res: dict, stages: list[str]) -> dict:
    """stage.<name>_s from consecutive stage log records; RSS at each record."""
    out = {}
    start = res["setup_end"]
    seen = {}
    for name, t, rss in res["stages"]:
        seen[name] = (t - start, rss)
        start = t
    for name in gen.ALL_STAGES:
        wall, rss = seen.get(name, (0, 0))
        if name in stages and name not in seen:
            wall = rss = None
        out[f"stage.{name}_s"] = {"value": wall, "unit": "s"}
        out[f"stage.{name}_maxrss_mb"] = {"value": rss, "unit": "MiB"}
    return out


def _setup_sample(work: Path, spec: dict, index: int, deadline: float) -> float:
    """Set-up time of a process that stops after validating the config."""
    return _spawn(work, spec["config"], f"setup{index}", ["--validate-only"], deadline)["setup_s"]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    work = ROOT / ".perfbench-work" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = gen.generate(workload, seed, work)
        problems: list[str] = []
        setups = []
        if not trace:
            setups = [_setup_sample(work, spec, i, deadline) for i in range(SETUP_SAMPLES // 2)]
        runs = []
        begun = time.monotonic()
        while not runs or (not trace and time.monotonic() - begun < seconds):
            run = _one_run(work, spec, f"run{len(runs)}", deadline, trace=False)
            if not runs and run["digest"] is not None:
                problems += checks.check_all(run["out"], spec["config_data"], spec["truth"])
            runs.append(run)
        if trace:
            traced = _one_run(work, spec, "traced", deadline, trace=True)
            runs.append(traced)
        digests = {r["digest"] for r in runs if r["digest"] is not None}
        if len(digests) > 1:
            problems.append(f"output trees differ between runs of one seed: {sorted(digests)}")
        attempted = len(spec["stages"]) * len(runs)
        failed = sum(r["failed"] for r in runs)

        if trace:
            cfg = spec["config_data"]
            trains = cfg["fluency"].get("enabled", False) and not cfg["fluency"].get("model_path")
            metrics = _stage_metrics(traced, spec["stages"])
            metrics.update(layers.layer_metrics(traced["layers"], spec["stages"], trains))
            report = json.loads((traced["out"] / "run_report.json").read_text(encoding="utf-8"))
            removed = sum(s["dropped"] for s in report["stages"] if s["name"] == "dedup")
            pairs = metrics["dedup.candidate_pairs"]["value"] or 0
            metrics["dedup.removed"] = {"value": removed, "unit": "count"}
            metrics["dedup.removed_per_pair"] = _metric(removed / pairs if pairs else 0, "ratio")
            plain = runs[0]
            metrics["run_s"] = _metric(plain["run_s"], "s")
            metrics["docs_per_s"] = _metric(spec["docs"] / plain["run_s"], "docs/s")
            metrics["cpu_s"] = _metric(plain["cpu_s"], "s")
            metrics["host.probe_us"] = _metric(
                statistics.median(cost for _, cost in plain["probe"]) * 1e6, "us")
            metrics["trace.overhead_s"] = _metric(traced["ref_run_s"] - plain["ref_run_s"], "s")
            for name in traced["gone"]:
                print(f"layer function for {name} not found; reported as missing", file=sys.stderr)
        else:
            setups += [r["setup_s"] for r in runs]
            while len(setups) < SETUP_SAMPLES:
                setups.append(_setup_sample(work, spec, len(setups), deadline))
            ok = [r for r in runs if r["rc"] == 0]
            if not ok:
                raise BenchError("every run failed")
            metrics = {
                "ref_run_s": _metric(statistics.median(r["ref_run_s"] for r in ok), "s"),
                "ref_docs_per_s": _metric(
                    statistics.median(spec["docs"] / r["ref_run_s"] for r in ok), "docs/s"),
                "ref_cpu_s": _metric(statistics.median(r["ref_cpu_s"] for r in ok), "s"),
                "peak_rss_mb": _metric(statistics.median(r["maxrss_mb"] for r in ok), "MiB"),
                "setup_s": _metric(statistics.median(setups), "s"),
            }
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        print(f"{workload} seed {seed}: {len(runs)} run(s), {len(spec['truth'])} labelled docs, "
              f"{time.monotonic() - started:.1f}s in all", file=sys.stderr)
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ImportError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
