"""The per-stage memory contract: a document stage rerun alone on a finished
tree peaks (VmHWM, read by `helpers.cli_with_peak`) at a level that grows
with the corpus only by what the stage is built to hold.

- dedup holds, per input document, its id, an empty flag and one 128-bit
  digest per LSH band: 250 B a document;
- the tokenizer holds the segment counts of its training documents and the
  fertility sample, a fixed number of documents: 1.5 KiB a distinct segment
  of the Greek training documents, for the count and BPE training's state.

Each bound adds 1 MiB for the allocator's own growth. Corpora of 5,000 and
10,000 documents keep the test short; a design that held its documents
would grow by a few KiB a document and fail."""

import json
import subprocess
from collections import Counter

import pytest
from helpers import cli_with_peak

from corpus_forge import synth
from corpus_forge.documents import read_documents, segment_counts
from corpus_forge.pipeline import PipelineConfig, _greek_datasets, _input_path, run_pipeline

DEDUP_BYTES_PER_DOC = 250
TOKENIZER_BYTES_PER_SEGMENT = 1536
ALLOCATOR_SLACK = 1 << 20


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """n -> config path of a finished tree of an n-document demo corpus,
    with the default `max_train_docs: null`."""
    out = {}
    for n in (5_000, 10_000):
        root = tmp_path_factory.mktemp(f"synth{n}")
        config_path = synth.write_demo_corpus(root, n_docs=n, seed=11)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["tokenizer"]["max_train_docs"] = None
        config["stages"] = ["ingest", "filter", "fluency", "dedup", "tokenizer"]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        run_pipeline(PipelineConfig.load(config_path))
        out[n] = config_path
    return out


def _alone(config_path, stage) -> tuple[int, PipelineConfig]:
    """VmHWM bytes of `stage` rerun alone on the tree, and its config."""
    config = json.loads(config_path.read_text(encoding="utf-8"))
    alone = config_path.with_name(f"config.{stage}.json")
    alone.write_text(json.dumps({**config, "stages": [stage]}), encoding="utf-8")
    peak = config_path.with_name(f"{stage}.peak")
    proc = subprocess.run(cli_with_peak(peak, "run", "--config", str(alone)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return int(peak.read_text(encoding="ascii")) * 1024, PipelineConfig.load(alone)


def _stage_input(cfg: PipelineConfig, stage: str) -> int:
    report = json.loads((cfg.output_dir / "run_report.json").read_text(encoding="utf-8"))
    return next(s["input"] for s in report["stages"] if s["name"] == stage)


@pytest.mark.slow
def test_dedup_peak_grows_by_its_per_document_budget(trees):
    (small, small_cfg), (large, large_cfg) = (_alone(trees[n], "dedup") for n in sorted(trees))
    docs = _stage_input(large_cfg, "dedup") - _stage_input(small_cfg, "dedup")
    assert docs > 4_000
    slack = DEDUP_BYTES_PER_DOC * docs + ALLOCATOR_SLACK
    assert large - small < slack, (large - small, slack)


def _distinct_segments(cfg: PipelineConfig) -> int:
    counts: Counter[str] = Counter()
    for ds in _greek_datasets(cfg):
        segment_counts((d.text for d in read_documents(_input_path(cfg, "tokenizer", ds))),
                       counts)
    return len(counts)


@pytest.mark.slow
def test_tokenizer_peak_grows_by_its_segment_counts(trees):
    (small, small_cfg), (large, large_cfg) = (_alone(trees[n], "tokenizer") for n in sorted(trees))
    assert large_cfg.tokenizer.max_train_docs is None
    segments = _distinct_segments(large_cfg) - _distinct_segments(small_cfg)
    assert segments > 0
    slack = TOKENIZER_BYTES_PER_SEGMENT * segments + ALLOCATOR_SLACK
    assert large - small < slack, (large - small, slack)
