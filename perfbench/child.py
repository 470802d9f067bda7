"""One `corpus-forge run` in a fresh process, observed from inside it.

    python3 perfbench/child.py RESULT.json CONFIG.json [--trace] [--validate-only]

Runs the same entry point as the `corpus-forge` console script and writes
RESULT.json with time.monotonic() marks (CLOCK_MONOTONIC, which every process
on the host shares), so the parent can subtract its own spawn time:

- `setup_end`: return of the last `validate_config` call, i.e. the start of
  the first stage;
- `end`: return of the command, after `run_report.json` is written;
- `stages`: [name, time, RSS high-water MiB] at each per-stage log record;
- `cpu_s`: user+sys CPU of all threads between `setup_end` and `end`;
- `layers` (with --trace): per-span self time and counts;
- `probe`: [time, CPU s] of each speed probe between `setup_end` and `end`.

With --validate-only the command stops after loading and validating the
config, which is the set-up a run pays before its first stage.
"""

from __future__ import annotations

import json
import logging
import re
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402  (the benchmark's own module, beside this file)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


PROBE_EVERY_S = 0.05
_PROBE_TEXT = " ".join(f"λέξη{i % 97} word{i % 31}" for i in range(120))


def _probe_work() -> int:
    """A fixed slice of interpreter work: split, count, join."""
    counts: dict[str, int] = {}
    for _ in range(3):
        for token in _PROBE_TEXT.split():
            counts[token] = counts.get(token, 0) + len(token)
    return len("".join(sorted(counts)))


class _SpeedProbe:
    """Times `_probe_work` on the main thread every PROBE_EVERY_S of wall time
    (SIGALRM), so the host's momentary speed is sampled where the run runs."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []

    def _tick(self, signum, frame) -> None:
        c0 = time.thread_time()
        _probe_work()
        self.samples.append([time.monotonic(), time.thread_time() - c0])

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class _StageLog(logging.Handler):
    """Timestamps the pipeline's `stage <name> ...` record at each stage end."""

    _STAGE = re.compile(r"stage (\S+)")

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.stages: list[list] = []

    def emit(self, record: logging.LogRecord) -> None:
        match = self._STAGE.match(record.getMessage())
        if match:
            self.stages.append([match.group(1), time.monotonic(), _maxrss_mb()])


def main(argv: list[str]) -> int:
    result_path, config = argv[0], argv[1]
    trace = "--trace" in argv
    validate_only = "--validate-only" in argv

    from corpus_forge import cli

    marks: dict[str, float] = {}
    probe = None if validate_only else _SpeedProbe()

    def mark_setup_end(validate):
        def wrapper(*args, **kwargs):
            issues = validate(*args, **kwargs)
            marks["setup_end"] = time.monotonic()
            marks["cpu0"] = _cpu_s()
            if probe is not None:
                probe.start()
            return issues
        return wrapper

    if not layers.rebind("corpus_forge.pipeline", "validate_config", mark_setup_end):
        raise SystemExit("corpus_forge.pipeline.validate_config not found")
    stage_log = _StageLog()
    pipeline_log = logging.getLogger("corpus_forge.pipeline")
    pipeline_log.addHandler(stage_log)
    pipeline_log.setLevel(logging.INFO)

    tracer = layers.Tracer() if trace else None
    gone = layers.install(tracer) if trace else []

    argv_cli = ["run", "--config", config] + (["--validate-only"] if validate_only else [])
    rc = cli.main(argv_cli)
    end = time.monotonic()
    cpu_end = _cpu_s()
    if probe is not None:
        probe.stop()
    if "setup_end" not in marks:
        raise SystemExit("validate_config was never called")
    result = {
        "rc": rc,
        "setup_end": marks["setup_end"],
        "end": end,
        "cpu_s": cpu_end - marks["cpu0"],
        "maxrss_mb": _maxrss_mb(),
        "stages": stage_log.stages,
        "layers": layers.snapshot(tracer) if trace else None,
        "gone": gone,
        "probe": probe.samples if probe is not None else None,
    }
    Path(result_path).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
