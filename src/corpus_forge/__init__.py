"""corpus-forge: corpus preparation and LLM-adaptation toolkit.

Covers quality filtering, n-gram fluency scoring, two-stage MinHashLSH
near-deduplication, bitext curation, BPE vocabulary extension with fertility
measurement, embedding-matrix surgery, training-schedule math, and
preference-data preparation.
"""
