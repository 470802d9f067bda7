"""corpus-forge: corpus preparation and LLM-adaptation toolkit.

Covers quality filtering, n-gram fluency scoring, two-stage MinHashLSH
near-deduplication, bitext curation, BPE vocabulary extension with fertility
measurement, embedding-matrix surgery, training-schedule math, and
preference-data preparation.
"""

from .documents import (
    CorpusStats,
    Document,
    DocumentFile,
    Extraction,
    corpus_stats,
    parse_document,
    read_documents,
    serialize_document,
    write_documents,
)
from .filters import FilterConfig, Verdict, clean_pdf_artifacts, filter_document, url_blacklisted
from .fluency import NGramLM, train_ngram_lm
from .dedup import (
    DedupConfig,
    DedupReport,
    Signature,
    dedup_corpus,
    estimate_jaccard,
    kept_documents,
    minhash_signature,
    optimal_bands,
    shingle,
)
from .parallel import (
    ParallelFilterConfig,
    SentencePair,
    dedup_parallel,
    normalize_sentence,
    threshold_filter,
)
from .bpe import ExtendedVocab, Vocab, encode, extend_vocab, fertility, train_bpe
from .embeddings import EmbeddingMatrix, MatrixRole, init_new_embeddings, pad_to_multiple
from .schedule import OptimizerConfig, ScheduleConfig, StagePlan, builtin_plans, lr_at, token_budget
from .alignment import (
    ChatTemplate,
    PreferenceExample,
    assign_system_message,
    curate_preferences,
    orpo_loss,
    render_chat,
)
from .pipeline import PipelineConfig, run_pipeline, validate_config

__version__ = "0.1.0"

__all__ = [
    "CorpusStats",
    "Document",
    "DocumentFile",
    "Extraction",
    "corpus_stats",
    "parse_document",
    "read_documents",
    "serialize_document",
    "write_documents",
    "FilterConfig",
    "Verdict",
    "clean_pdf_artifacts",
    "filter_document",
    "url_blacklisted",
    "NGramLM",
    "train_ngram_lm",
    "DedupConfig",
    "DedupReport",
    "Signature",
    "dedup_corpus",
    "estimate_jaccard",
    "kept_documents",
    "minhash_signature",
    "optimal_bands",
    "shingle",
    "ParallelFilterConfig",
    "SentencePair",
    "dedup_parallel",
    "normalize_sentence",
    "threshold_filter",
    "ExtendedVocab",
    "Vocab",
    "encode",
    "extend_vocab",
    "fertility",
    "train_bpe",
    "EmbeddingMatrix",
    "MatrixRole",
    "init_new_embeddings",
    "pad_to_multiple",
    "OptimizerConfig",
    "ScheduleConfig",
    "StagePlan",
    "builtin_plans",
    "lr_at",
    "token_budget",
    "ChatTemplate",
    "PreferenceExample",
    "assign_system_message",
    "curate_preferences",
    "orpo_loss",
    "render_chat",
    "PipelineConfig",
    "run_pipeline",
    "validate_config",
    "__version__",
]
