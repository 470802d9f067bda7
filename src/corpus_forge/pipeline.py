"""Declarative pipeline: config parsing/validation and staged execution.

Every stage reads its inputs from files and writes its outputs to files under
the run's output directory, so any stage can be rerun independently and two
runs with the same seed are byte-identical. A stage that reads documents takes
each dataset from the latest earlier document stage (see `_input_path`).
Outputs are written with a .partial suffix and renamed only when the stage
succeeds.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Any, Iterator

from . import alignment as align_mod
from . import bpe, dedup, embeddings, fluency, parallel, schedule
from .alignment import AlignmentConfig
from .bpe import TokenizerConfig
from .config import ConfigValidationError, Issue, load_section, path_values
from .dedup import DedupConfig
from .documents import (
    Document,
    DocumentFile,
    Extraction,
    canonicalize,
    corpus_stats,
    read_documents,
    write_documents,
    write_json,
)
from .embeddings import EmbeddingConfig
from .filters import FilterConfig, filter_documents, write_drop_report
from .fluency import FluencyConfig
from .parallel import ParallelFilterConfig

log = logging.getLogger(__name__)

# Stages that write one <dataset>.jsonl per dataset for the stages after them.
DOC_STAGES = ("ingest", "filter", "fluency", "dedup")


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass(frozen=True)
class DatasetSpec:
    """One `datasets` entry."""

    name: str
    path: Path
    language: str = ""
    pre_deduplicated: bool = False
    extraction: Extraction = Extraction.WEB


@dataclass(frozen=True)
class StatsConfig:
    """The `stats` config section: every `sample_every`-th document is counted."""

    sample_every: int = 1

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError("sample_every must be at least 1")


@dataclass
class PipelineConfig:
    """A whole config file: top-level keys and one typed section per stage."""

    seed: int = 0
    threads: int = 1  # accepted and validated; every stage runs on one thread
    output_dir: Path = Path("out")
    datasets: list[DatasetSpec] = field(default_factory=list)
    filters: FilterConfig = field(default_factory=FilterConfig)
    fluency: FluencyConfig = field(default_factory=FluencyConfig)
    dedup: DedupConfig = field(default_factory=DedupConfig)
    parallel: ParallelFilterConfig = field(default_factory=ParallelFilterConfig)
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    alignment: AlignmentConfig = field(default_factory=AlignmentConfig)
    stats: StatsConfig = field(default_factory=StatsConfig)
    stages: list[str] = field(default_factory=lambda: list(STAGE_NAMES))

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if len({d.name for d in self.datasets}) != len(self.datasets):
            raise ValueError("duplicate dataset names")

    @classmethod
    def load(cls, path: str | Path, overrides: dict[str, Any] | None = None) -> "PipelineConfig":
        """Parse a config file, with `overrides` in place of its top-level
        keys; raises ConfigValidationError as `load_section` does."""
        path = Path(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(payload, dict):
            payload.update(overrides or {})
        return load_section(cls, payload, "", path.parent.resolve())


def validate_config(cfg: PipelineConfig) -> list[Issue]:
    """Cross-section and filesystem checks; error-level issues block
    execution. Each section checks its own values when it is built."""
    issues: list[Issue] = []

    def error(msg: str) -> None:
        issues.append(Issue("error", msg))

    def warning(msg: str) -> None:
        issues.append(Issue("warning", msg))

    stages = set(cfg.stages)
    for name in cfg.stages:
        if name not in STAGE_NAMES:
            error(f"unknown stage {name!r}")
    # A stage that succeeds deletes every file in its directory it did not write.
    cleared = {(cfg.output_dir / s).resolve(): s for s in STAGE_NAMES if s in stages}
    for key, path in path_values(cfg):
        if key != "output_dir" and (stage := cleared.get(path.parent.resolve())):
            error(f"{key}: input file {path} is in the directory that the {stage} stage clears")
    if not cfg.datasets and stages & {"ingest", "filter", "fluency", "dedup",
                                      "tokenizer", "stats"}:
        error("empty input dataset list")
    names = [d.name for d in cfg.datasets]
    for ds in cfg.datasets:
        if "ingest" in stages and not ds.path.exists():
            error(f"dataset {ds.name!r}: missing file {ds.path}")
    readers = {"filter", "dedup", "tokenizer", "stats"}
    if cfg.fluency.enabled:
        readers.add("fluency")
    for stage in [s for s in STAGE_NAMES if s in stages & readers]:
        for ds in cfg.datasets:
            if _input_path(cfg, stage, ds) is None:
                error(f"{stage} stage has no input for dataset {ds.name!r}: no earlier "
                      f"document stage runs or left {ds.name}.jsonl under {cfg.output_dir}")

    f = cfg.filters
    if f.bad_word_threshold > 0 and f.bad_words_path is None:
        warning("bad-word rule enabled but no bad_words_path given; rule is inert")
    missing = [p for p in (f.bad_words_path, f.url_blacklist_path) if p and not p.exists()]
    for path in missing:
        error(f"filters: word list file missing: {path}")
    if not missing:
        try:
            f.with_wordlists()
        except (ValueError, OSError) as exc:
            error(f"filters: {exc}")

    fl = cfg.fluency
    if fl.enabled and "fluency" in stages:
        if fl.model_path is not None:
            if not fl.model_path.exists():
                error(f"fluency model file missing: {fl.model_path}")
        elif fl.train_dataset not in names:
            error(f"fluency training dataset {fl.train_dataset!r} is not a configured dataset")
    elif f.fluency_applies_to and "filter" in stages and not fl.enabled:
        warning(
            "fluency rule applies to some extraction kinds but the fluency stage is "
            "disabled; only precomputed scores will be honored"
        )

    t = cfg.tokenizer
    if "tokenizer" in stages:
        if t.base_vocab_path is not None:
            if not t.base_vocab_path.exists():
                error(f"base vocabulary file missing: {t.base_vocab_path}")
        elif t.base_dataset not in names:
            error(f"tokenizer base_dataset {t.base_dataset!r} is not configured")
    for name, vocabs in (("embedding", ("base_vocab.json", "extended_vocab.json")),
                         ("stats", ("extended_vocab.json",))):
        if name in stages and "tokenizer" not in stages:
            missing = [v for v in vocabs if not (cfg.output_dir / "tokenizer" / v).exists()]
            if missing:
                error(f"{name} stage requires the tokenizer stage or "
                      f"{', '.join(missing)} under {cfg.output_dir / 'tokenizer'}")
    e = cfg.embedding
    if e.base_matrix_path is not None and not e.base_matrix_path.exists():
        error(f"embedding base matrix missing: {e.base_matrix_path}")

    a = cfg.alignment
    if "alignment" in stages:
        if a.preferences_path is None or not a.preferences_path.exists():
            error(f"preference data file missing: {a.preferences_path}")
        if a.system_messages_path is None or not a.system_messages_path.exists():
            error(f"system messages file missing: {a.system_messages_path}")
    if "parallel" in stages and (cfg.parallel.path is None or not cfg.parallel.path.exists()):
        error(f"parallel pairs file missing: {cfg.parallel.path}")
    return issues


@dataclass
class StageResult:
    name: str
    input: int
    kept: int
    dropped: int
    outputs: list[str]


@dataclass
class RunReport:
    """Written as run_report.json. Thread count is deliberately not recorded:
    outputs are independent of it, and the report should be too."""

    seed: int
    stages: list[StageResult] = field(default_factory=list)


class _StageDir:
    """One stage's output directory, made and finalized by `run_pipeline`.
    The stage writes each output to `path(name)`, a .partial file renamed on
    success so failures leave partials behind. On success every other file in
    the directory is deleted, so it holds this run's outputs."""

    def __init__(self, out_dir: Path, stage: str):
        self.dir = out_dir / stage
        self.dir.mkdir(parents=True, exist_ok=True)
        self._pending: list[tuple[Path, Path]] = []

    def path(self, name: str) -> Path:
        final = self.dir / name
        tmp = self.dir / (name + ".partial")
        self._pending.append((tmp, final))
        return tmp

    def finalize(self) -> list[Path]:
        finals = []
        for tmp, final in self._pending:
            os.replace(tmp, final)
            finals.append(final)
        for path in self.dir.iterdir():
            if path.is_file() and path not in finals:
                path.unlink()
        return finals


# What a stage function returns: its (input, kept, dropped) counts.
Counts = tuple[int, int, int]


def _scores_fluency(cfg: PipelineConfig, ds: DatasetSpec) -> bool:
    return cfg.fluency.enabled and ds.extraction in cfg.filters.fluency_applies_to


def _input_path(cfg: PipelineConfig, stage: str, ds: DatasetSpec) -> Path | None:
    """The file `stage` reads dataset `ds` from: that of the latest document
    stage before it that either runs in this invocation or precedes its first
    stage and left the file on disk. Fluency counts only for the datasets it
    scores. None when there is no such file."""
    order = STAGE_NAMES.index
    first = min((order(s) for s in cfg.stages if s in STAGE_NAMES), default=order(stage))
    for st in reversed(DOC_STAGES):
        if order(st) >= order(stage) or (st == "fluency" and not _scores_fluency(cfg, ds)):
            continue
        path = cfg.output_dir / st / f"{ds.name}.jsonl"
        if st in cfg.stages or (order(st) < first and path.exists()):
            return path
    return None


def _docs(cfg: PipelineConfig, stage: str, ds: DatasetSpec) -> Iterator[Document]:
    return read_documents(_input_path(cfg, stage, ds))


def _stage_ingest(cfg: PipelineConfig, out: _StageDir) -> Counts:
    total = 0
    for ds in cfg.datasets:
        docs = canonicalize(read_documents(ds.path), ds.name, ds.language, ds.extraction)
        total += write_documents(out.path(f"{ds.name}.jsonl"), docs)
    return total, total, 0


def _stage_filter(cfg: PipelineConfig, out: _StageDir) -> Counts:
    fcfg = cfg.filters.with_wordlists()
    kept_n = 0
    dropped: list[tuple[str, tuple[str, ...]]] = []
    for ds in cfg.datasets:
        survivors = filter_documents(_docs(cfg, "filter", ds), fcfg, dropped)
        kept_n += write_documents(out.path(f"{ds.name}.jsonl"), survivors)
    write_drop_report(out.path("drop_report.jsonl"), dropped)
    return kept_n + len(dropped), kept_n, len(dropped)


def _stage_fluency(cfg: PipelineConfig, out: _StageDir) -> Counts:
    fl = cfg.fluency
    if not fl.enabled:
        return 0, 0, 0

    if fl.model_path is not None:
        lm = fluency.read_model(fl.model_path)
    else:
        train_ds = next(ds for ds in cfg.datasets if ds.name == fl.train_dataset)

        def train_docs() -> Iterator[Document]:
            """The training dataset up to the document that reaches max_train_chars."""
            chars = 0
            for doc in _docs(cfg, "fluency", train_ds):
                yield doc
                chars += len(doc.text)
                if chars >= fl.max_train_chars:
                    return

        lm = fluency.train_ngram_lm(
            train_docs(), order=fl.order, holdout_fraction=fl.holdout_fraction, seed=cfg.seed
        )
        fluency.write_model(lm, out.path("model.nglm"))

    threshold = cfg.filters.fluency_threshold
    kept_n = 0
    dropped: list[tuple[str, tuple[str, ...]]] = []
    for ds in cfg.datasets:
        if not _scores_fluency(cfg, ds):
            continue
        survivors = fluency.drop_disfluent(lm, _docs(cfg, "fluency", ds), threshold, dropped)
        kept_n += write_documents(out.path(f"{ds.name}.jsonl"), survivors)
    write_drop_report(out.path("drop_report.jsonl"), dropped)
    return kept_n + len(dropped), kept_n, len(dropped)


def _stage_dedup(cfg: PipelineConfig, out: _StageDir) -> Counts:
    dcfg = replace(cfg.dedup, seed=cfg.seed)
    datasets = [(ds.name, DocumentFile(_input_path(cfg, "dedup", ds))) for ds in cfg.datasets]
    skip = [ds.name for ds in cfg.datasets if ds.pre_deduplicated]
    result = dedup.dedup_corpus(datasets, dcfg, skip_intra=skip)
    dedup.write_dedup_outputs(out.path, result)

    # A survivor lands in the file of the dataset its `dataset` field names,
    # in ingestion order; each input is read again for each dataset it holds.
    names = {ds.name for ds in cfg.datasets}
    unknown = set().union(*(f.datasets for _, f in datasets)) - names
    if unknown:
        raise ValueError(f"dedup inputs hold documents of unconfigured datasets {sorted(unknown)}")
    removed = result.removed_indices()
    for ds in cfg.datasets:
        survivors = (
            doc
            for (_, f), start in zip(datasets, result.bounds)
            if ds.name in f.datasets
            for i, doc in enumerate(f, start)
            if i not in removed and doc.dataset == ds.name
        )
        write_documents(out.path(f"{ds.name}.jsonl"), survivors)
    summary = {st: rep.summary() for st, rep in result.reports.items()}
    write_json(out.path("summary.json"), summary)
    total = len(result.ids)
    return total, total - len(removed), len(removed)


def _stage_parallel(cfg: PipelineConfig, out: _StageDir) -> Counts:
    pcfg = cfg.parallel
    pairs = list(parallel.read_pairs(pcfg.path))
    total = len(pairs)
    if pcfg.order == "filter-then-dedup":
        pairs = parallel.threshold_filter(pairs, pcfg)
        filtered = len(pairs)
        pairs, dedup_report = parallel.dedup_parallel(pairs)
    else:
        pairs, dedup_report = parallel.dedup_parallel(pairs)
        filtered = len(pairs)
        pairs = parallel.threshold_filter(pairs, pcfg)
    parallel.write_pairs(out.path("pairs.jsonl"), pairs)
    write_json(
        out.path("report.json"),
        {
            "order": pcfg.order,
            "input": total,
            "after_first_step": filtered,
            "kept": len(pairs),
            "dedup": dedup_report,
        },
    )
    return total, len(pairs), total - len(pairs)


def _datasets_docs(cfg: PipelineConfig, stage: str,
                   datasets: list[DatasetSpec]) -> Iterator[Document]:
    for ds in datasets:
        yield from _docs(cfg, stage, ds)


def _greek_datasets(cfg: PipelineConfig) -> list[DatasetSpec]:
    return [ds for ds in cfg.datasets if ds.language == "el"] or cfg.datasets


def _stage_tokenizer(cfg: PipelineConfig, out: _StageDir) -> Counts:
    t = cfg.tokenizer
    if t.base_vocab_path is not None:
        base = bpe.load_vocab(t.base_vocab_path)
        if isinstance(base, bpe.ExtendedVocab):
            raise ValueError("base_vocab_path must point to a base vocabulary")
    else:
        base_ds = [ds for ds in cfg.datasets if ds.name == t.base_dataset]
        base_docs = islice(_datasets_docs(cfg, "tokenizer", base_ds), t.max_train_docs)
        base = bpe.train_bpe(base_docs, t.base_target_tokens)

    # One read serves both limits: training streams its documents, and the
    # fertility sample, a prefix of the same ones, is kept on the way.
    limits = (t.max_train_docs, t.fertility_sample_docs)
    greek = _datasets_docs(cfg, "tokenizer", _greek_datasets(cfg))
    sample: list[Document] = []
    trained = 0

    def train_docs() -> Iterator[Document]:
        nonlocal trained
        for i, doc in enumerate(islice(greek, None if None in limits else max(limits))):
            if t.fertility_sample_docs is None or i < t.fertility_sample_docs:
                sample.append(doc)
            if t.max_train_docs is None or i < t.max_train_docs:
                trained += 1
                yield doc

    learned = bpe.train_bpe(train_docs(), t.new_target_tokens)
    ext = bpe.extend_vocab(base, learned)

    bpe.save_vocab(base, out.path("base_vocab.json"))
    bpe.save_vocab(ext, out.path("extended_vocab.json"))

    (base_tokens, ext_tokens), words = bpe.fertility_counts([base, ext], sample)
    write_json(
        out.path("fertility.json"),
        {
            "sample_docs": len(sample),
            "sample_words": words,
            "base": {"tokens": base_tokens, "fertility": base_tokens / words},
            "extended": {"tokens": ext_tokens, "fertility": ext_tokens / words},
            "base_vocab_size": len(base.tokens),
            "extended_vocab_size": ext.total_size,
        },
    )
    return trained, trained, 0


def _stage_embedding(cfg: PipelineConfig, out: _StageDir) -> Counts:
    e = cfg.embedding
    base_vocab = bpe.load_vocab(cfg.output_dir / "tokenizer" / "base_vocab.json")
    ext = bpe.load_vocab(cfg.output_dir / "tokenizer" / "extended_vocab.json")
    role = embeddings.MatrixRole

    if e.base_matrix_path is not None:
        base_input = embeddings.read_matrix(e.base_matrix_path)
    else:
        base_input = embeddings.synthetic_base_matrix(
            len(base_vocab.tokens), e.dims, cfg.seed, role.INPUT_EMBEDDINGS
        )
    grown = embeddings.init_new_embeddings(base_input, base_vocab, ext)
    padded = embeddings.pad_to_multiple(grown, e.pad_multiple)
    embeddings.write_matrix(padded, out.path("input_embeddings.emb"))
    info = {"input_embeddings": embeddings.matrix_info(padded), "tie_lm_head": e.tie_lm_head}

    if not e.tie_lm_head:
        if e.base_matrix_path is not None:
            base_head = embeddings.EmbeddingMatrix(base_input.data.copy(), role.LM_HEAD)
        else:
            base_head = embeddings.synthetic_base_matrix(
                len(base_vocab.tokens), e.dims, cfg.seed + 1, role.LM_HEAD
            )
        head = embeddings.pad_to_multiple(
            embeddings.init_new_embeddings(base_head, base_vocab, ext), e.pad_multiple
        )
        embeddings.write_matrix(head, out.path("lm_head.emb"))
        info["lm_head"] = embeddings.matrix_info(head)
    write_json(out.path("info.json"), info)
    return padded.rows, padded.rows, 0


def _stage_plan(cfg: PipelineConfig, out: _StageDir) -> Counts:
    plans = schedule.builtin_plans()
    for name, plan in plans.items():
        schedule.export_plan_json(plan, out.path(f"{name}.json"))
        schedule.export_plan_csv(plan, out.path(f"{name}.csv"))
    return len(plans), len(plans), 0


def _stage_alignment(cfg: PipelineConfig, out: _StageDir) -> Counts:
    a = cfg.alignment
    examples = align_mod.read_preferences(a.preferences_path)
    kept, report = align_mod.curate_preferences(
        examples, min_rating=a.min_rating, max_foreign_ratio=a.max_foreign_ratio
    )
    pool = align_mod.load_system_messages(a.system_messages_path)
    assigned = [align_mod.assign_system_message(ex, pool, seed=cfg.seed) for ex in kept]
    align_mod.write_preferences(out.path("curated.jsonl"), assigned)
    align_mod.write_rendered(out.path("rendered.jsonl"), assigned)
    write_json(out.path("report.json"), report)
    return report["input"], report["kept"], report["dropped"]


def _stage_stats(cfg: PipelineConfig, out: _StageDir) -> Counts:
    vocab = bpe.load_vocab(cfg.output_dir / "tokenizer" / "extended_vocab.json")
    every = cfg.stats.sample_every

    def sampled() -> Iterator[Document]:
        for ds in cfg.datasets:
            for i, doc in enumerate(_docs(cfg, "stats", ds)):
                if i % every == 0:
                    yield doc

    stats = corpus_stats(sampled(), vocab)
    write_json(
        out.path("corpus_stats.json"),
        {
            "sample_every": every,
            **stats.as_dict(),
            "percentages_rounded_pp": stats.rounded_percentages(),
        },
    )
    return stats.total_tokens, stats.total_tokens, 0


_STAGE_FUNCS = {
    "ingest": _stage_ingest,
    "filter": _stage_filter,
    "fluency": _stage_fluency,
    "dedup": _stage_dedup,
    "parallel": _stage_parallel,
    "tokenizer": _stage_tokenizer,
    "embedding": _stage_embedding,
    "plan": _stage_plan,
    "alignment": _stage_alignment,
    "stats": _stage_stats,
}
STAGE_NAMES = tuple(_STAGE_FUNCS)  # in run order


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """Execute the enabled stages in order; abort on the first failure.

    Raises ConfigValidationError before touching the output directory when
    validation reports errors, and StageError (partial outputs retained with
    a .partial suffix) when a stage fails.
    """
    issues = validate_config(cfg)
    errors = [i for i in issues if i.level == "error"]
    for issue in issues:
        (log.error if issue.level == "error" else log.warning)("%s", issue.message)
    if errors:
        raise ConfigValidationError(errors)

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(seed=cfg.seed)
    for name in cfg.stages:
        started = time.perf_counter()
        try:
            out = _StageDir(cfg.output_dir, name)
            counts = _STAGE_FUNCS[name](cfg, out)
            finals = out.finalize()
        except Exception as exc:
            raise StageError(name, exc) from exc
        result = StageResult(name, *counts, [str(p.relative_to(cfg.output_dir)) for p in finals])
        log.info(
            "stage %-10s input=%-8d kept=%-8d dropped=%-6d (%.1fs)",
            name, result.input, result.kept, result.dropped,
            time.perf_counter() - started,
        )
        report.stages.append(result)
    write_json(cfg.output_dir / "run_report.json", asdict(report))
    return report
