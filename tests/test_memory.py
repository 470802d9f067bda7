"""The per-stage memory contract: a document stage rerun alone on a finished
tree peaks (VmHWM, read by `helpers.cli_with_peak`) at a level that grows
with the corpus only by what the stage is built to hold.

- dedup holds, per input document, its id, an empty flag and one 128-bit
  digest per LSH band: 250 B a document;
- the tokenizer holds the segment counts of its training documents and the
  fertility sample, a fixed number of documents: 896 B a distinct segment
  of the Greek training documents, for the count and BPE training's state
  (measured: 693 B);
- fluency holds its model, which `max_train_chars` bounds, with the training
  text and its counting, and a batch of documents while it scores: 160 B a
  model gram, rerun at two values of `max_train_chars` (measured: 117 B);
- ingest, filter and stats hold one document at a time: flat.

Each bound adds 1 MiB for the allocator's own growth. Corpora of 5,000 and
10,000 documents keep the test short; a design that held its documents
would grow by a few KiB a document and fail."""

import json
import shutil
import subprocess
from collections import Counter

import pytest
from helpers import cli_with_peak

from corpus_forge import synth
from corpus_forge.documents import read_documents, segment_counts
from corpus_forge.fluency import read_model
from corpus_forge.pipeline import PipelineConfig, _greek_datasets, _input_path, run_pipeline

DEDUP_BYTES_PER_DOC = 250
TOKENIZER_BYTES_PER_SEGMENT = 896
FLUENCY_BYTES_PER_GRAM = 160
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
        config["stages"] = ["ingest", "filter", "fluency", "dedup", "tokenizer", "stats"]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        run_pipeline(PipelineConfig.load(config_path))
        out[n] = config_path
    return out


def _alone(config_path, stage, tag="", **changes) -> tuple[int, PipelineConfig]:
    """VmHWM bytes of `stage` rerun alone on the tree, and its config, whose
    top-level keys `changes` replaces; `tag` names its files apart."""
    config = json.loads(config_path.read_text(encoding="utf-8"))
    alone = config_path.with_name(f"config.{stage}{tag}.json")
    alone.write_text(json.dumps({**config, **changes, "stages": [stage]}), encoding="utf-8")
    peak = config_path.with_name(f"{stage}{tag}.peak")
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


@pytest.mark.slow
@pytest.mark.parametrize("stage", ["ingest", "filter", "stats"])
def test_flat_stage_peak_does_not_grow_with_the_corpus(trees, stage):
    (small, _), (large, _) = (_alone(trees[n], stage) for n in sorted(trees))
    assert large - small < ALLOCATOR_SLACK, (large - small, ALLOCATOR_SLACK)


@pytest.mark.slow
def test_fluency_peak_grows_by_its_per_gram_budget(trees, tmp_path):
    # On a copy of the tree, so that the other tests read the fluency output
    # the tree was made with.
    config_path = trees[10_000]
    config = json.loads(config_path.read_text(encoding="utf-8"))
    tree = tmp_path / "tree"
    shutil.copytree(PipelineConfig.load(config_path).output_dir, tree)
    peaks, grams = [], []
    for chars in (50_000, 400_000):
        peak, cfg = _alone(config_path, "fluency", f".{chars}", output_dir=str(tree),
                           fluency={**config["fluency"], "max_train_chars": chars})
        peaks.append(peak)
        grams.append(sum(map(len, read_model(cfg.output_dir / "fluency" / "model.nglm").keys)))
    assert grams[1] - grams[0] > 10_000
    slack = FLUENCY_BYTES_PER_GRAM * (grams[1] - grams[0]) + ALLOCATOR_SLACK
    assert peaks[1] - peaks[0] < slack, (peaks[1] - peaks[0], slack)
