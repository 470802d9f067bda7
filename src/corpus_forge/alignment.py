"""Preference-data curation, chat-template rendering, deterministic system
message assignment, and the odds-ratio preference loss as a pure function."""

from __future__ import annotations

import hashlib
import json
import re
import unicodedata
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .documents import SchemaError, check_field_types, read_jsonl, write_jsonl


class Category(str, Enum):
    GENERAL = "general"
    RAG = "rag"
    COT = "cot"
    MATH = "math"
    CODE = "code"


@dataclass(frozen=True)
class PreferenceExample:
    prompt: str
    chosen: str
    rejected: str
    system: str | None = None
    chosen_rating: float | None = None
    rejected_rating: float | None = None
    category: Category = Category.GENERAL
    language: str = "el"
    id: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.category, Category):
            object.__setattr__(self, "category", Category(self.category))
        if not self.id:
            digest = hashlib.blake2b(
                "\x1f".join((self.prompt, self.chosen, self.rejected)).encode("utf-8"),
                digest_size=8,
            ).hexdigest()
            object.__setattr__(self, "id", digest)


@dataclass(frozen=True)
class ChatTemplate:
    system_marker: str = "<|system|>\n"
    user_marker: str = "<|user|>\n"
    assistant_marker: str = "<|assistant|>\n"
    terminator: str = "<|end|>\n"

    def __post_init__(self) -> None:
        markers = (self.system_marker, self.user_marker, self.assistant_marker)
        if len(set(markers)) != 3 or not all(markers) or not self.terminator:
            raise ValueError("role markers must be distinct and non-empty")


_MANY_BLANK = re.compile(r"\n{3,}")
_TRAIL_WS = re.compile(r"[ \t]+\n")

# Characters counted as in-distribution for Greek preference data: ASCII,
# the Greek blocks, and common typographic punctuation.
_EXTRA_ALLOWED = set("«»€·’‘“”–—…΄΅ͺ")


def _allowed_char(ch: str) -> bool:
    cp = ord(ch)
    if cp < 0x80:
        return True
    if 0x0370 <= cp <= 0x03FF or 0x1F00 <= cp <= 0x1FFF:
        return True
    return ch in _EXTRA_ALLOWED


def foreign_ratio(text: str) -> float:
    """Fraction of characters outside the allowed Greek/Latin repertoire."""
    if not text:
        return 0.0
    bad = sum(1 for ch in text if not _allowed_char(ch))
    return bad / len(text)


def _dominant_script(text: str) -> str | None:
    greek = latin = 0
    for ch in text:
        if not ch.isalpha():
            continue
        cp = ord(ch)
        if 0x0370 <= cp <= 0x03FF or 0x1F00 <= cp <= 0x1FFF:
            greek += 1
        elif cp < 0x250:
            latin += 1
    if greek == latin:
        return None
    return "greek" if greek > latin else "latin"


def normalize_formatting(text: str) -> str:
    """NFC, LF endings, no trailing spaces, at most one blank line in a row."""
    text = unicodedata.normalize("NFC", text).replace("\r\n", "\n").replace("\r", "\n")
    text = _TRAIL_WS.sub("\n", text)
    text = _MANY_BLANK.sub("\n\n", text)
    return text.strip()


DROP_TIE = "rating_tie"
DROP_ORDER = "rating_order"
DROP_LOW = "low_rating"
DROP_UNICODE = "excessive_unicode"
DROP_SCRIPT = "script_mismatch"
DROP_IDENTICAL = "identical_responses"


@dataclass(frozen=True)
class AlignmentConfig:
    """The `alignment` config section: input files and curation thresholds."""

    preferences_path: Path | None = None
    system_messages_path: Path | None = None
    min_rating: float = 0.0
    max_foreign_ratio: float = 0.05


def curate_preferences(
    examples: Iterable[PreferenceExample],
    min_rating: float = AlignmentConfig.min_rating,
    max_foreign_ratio: float = AlignmentConfig.max_foreign_ratio,
) -> tuple[list[PreferenceExample], dict]:
    """Drop ties, low/misordered ratings, off-repertoire responses, and
    cross-script pairs; normalize formatting on everything kept."""
    kept: list[PreferenceExample] = []
    drops: dict[str, int] = {}

    def drop(reason: str) -> None:
        drops[reason] = drops.get(reason, 0) + 1

    n_in = 0
    for ex in examples:
        n_in += 1
        chosen = normalize_formatting(ex.chosen)
        rejected = normalize_formatting(ex.rejected)
        if chosen == rejected:
            drop(DROP_IDENTICAL)
            continue
        if ex.chosen_rating is not None and ex.rejected_rating is not None:
            if ex.chosen_rating == ex.rejected_rating:
                drop(DROP_TIE)
                continue
            if ex.chosen_rating < ex.rejected_rating:
                drop(DROP_ORDER)
                continue
        if ex.chosen_rating is not None and ex.chosen_rating < min_rating:
            drop(DROP_LOW)
            continue
        if max(foreign_ratio(chosen), foreign_ratio(rejected)) > max_foreign_ratio:
            drop(DROP_UNICODE)
            continue
        scripts = (_dominant_script(chosen), _dominant_script(rejected))
        if scripts[0] and scripts[1] and scripts[0] != scripts[1]:
            drop(DROP_SCRIPT)
            continue
        kept.append(
            replace(
                ex,
                prompt=normalize_formatting(ex.prompt),
                chosen=chosen,
                rejected=rejected,
                system=normalize_formatting(ex.system) if ex.system else ex.system,
            )
        )
    report = {"input": n_in, "kept": len(kept), "dropped": n_in - len(kept), "reasons": drops}
    return kept, report


def assign_system_message(
    ex: PreferenceExample, pool: dict[Category, Sequence[str]], seed: int
) -> PreferenceExample:
    """Fill a missing system message from the category pool.

    The pick is keyed by (seed, example id), so adding or removing other
    examples never shifts an assignment. Existing messages are untouched.
    """
    if ex.system is not None:
        return ex
    messages = pool.get(ex.category) or ()
    if not messages:
        raise ValueError(f"no system messages configured for category {ex.category.value!r}")
    digest = hashlib.blake2b(
        f"{seed}:{ex.id}".encode(), digest_size=8, key=b"system-msg"
    ).digest()
    return replace(ex, system=messages[int.from_bytes(digest, "little") % len(messages)])


def render_chat(ex: PreferenceExample, tpl: ChatTemplate | None = None) -> dict[str, str]:
    """system -> user -> assistant concatenation; the two renderings differ
    only in the assistant span."""
    if ex.system is None:
        raise ValueError("render_chat requires an assigned system message")
    tpl = tpl or ChatTemplate()
    prefix = (
        f"{tpl.system_marker}{ex.system}{tpl.terminator}"
        f"{tpl.user_marker}{ex.prompt}{tpl.terminator}{tpl.assistant_marker}"
    )
    return {
        "chosen_text": f"{prefix}{ex.chosen}{tpl.terminator}",
        "rejected_text": f"{prefix}{ex.rejected}{tpl.terminator}",
    }


def _log_odds(mean_logp: float) -> float:
    # log odds of exp(m): m - log(1 - e^m), stable for m < 0.
    return mean_logp - np.log(-np.expm1(mean_logp))


def orpo_loss(
    logp_chosen: Sequence[float], logp_rejected: Sequence[float], lam: float
) -> dict[str, float]:
    """Odds-ratio preference loss over length-normalized sequence likelihoods.

    loss = -mean(logp_chosen) + lam * softplus(-(log odds_chosen - log odds_rejected))
    """
    c = np.asarray(logp_chosen, dtype=np.float64)
    r = np.asarray(logp_rejected, dtype=np.float64)
    if c.size == 0 or r.size == 0:
        raise ValueError("log-prob sequences must be non-empty")
    if (c > 0).any() or (r > 0).any():
        raise ValueError("log-probabilities must be <= 0")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    mean_c = float(c.mean())
    mean_r = float(r.mean())
    ceiling = np.log1p(-1e-12)
    if mean_c >= ceiling or mean_r >= ceiling:
        raise ValueError("sequence probability too close to 1: odds undefined")
    log_odds_ratio = _log_odds(mean_c) - _log_odds(mean_r)
    or_term = float(np.logaddexp(0.0, -log_odds_ratio))
    nll_term = -mean_c
    return {
        "loss": nll_term + lam * or_term,
        "nll_term": nll_term,
        "or_term": or_term,
        "log_odds_ratio": float(log_odds_ratio),
    }


def orpo_loss_with_grad(
    logp_chosen: Sequence[float], logp_rejected: Sequence[float], lam: float
) -> tuple[dict[str, float], np.ndarray, np.ndarray]:
    """Loss plus analytic gradients w.r.t. each per-token log-probability."""
    result = orpo_loss(logp_chosen, logp_rejected, lam)
    c = np.asarray(logp_chosen, dtype=np.float64)
    r = np.asarray(logp_rejected, dtype=np.float64)
    p_c = float(np.exp(c.mean()))
    p_r = float(np.exp(r.mean()))
    g = result["log_odds_ratio"]
    sig_neg_g = float(np.exp(-np.logaddexp(0.0, g)))  # sigmoid(-g)
    # d or_term / d mean_c = -sigmoid(-g) / (1 - P_c); mean spreads 1/n per token.
    grad_c = np.full(c.size, -1.0 / c.size) + lam * (-sig_neg_g / (1.0 - p_c)) / c.size
    grad_r = np.full(r.size, lam * (sig_neg_g / (1.0 - p_r)) / r.size)
    return result, grad_c, grad_r


def orpo_gradient_error(trials: int, seed: int = 0) -> float:
    """Worst relative error of orpo_loss_with_grad against central finite
    differences, over `trials` random instances."""
    rng = np.random.Generator(np.random.PCG64(seed))
    h = 1e-6
    worst = 0.0
    for _ in range(trials):
        n, m = int(rng.integers(1, 24)), int(rng.integers(1, 24))
        chosen = -rng.uniform(0.05, 4.0, n)
        rejected = -rng.uniform(0.05, 4.0, m)
        lam = float(rng.uniform(0.0, 2.0))
        _, grad_c, grad_r = orpo_loss_with_grad(chosen, rejected, lam)
        for side, grad in enumerate((grad_c, grad_r)):
            for i in range(grad.size):
                f = []
                for step in (h, -h):
                    args = [chosen, rejected]
                    args[side] = args[side].copy()
                    args[side][i] += step
                    f.append(orpo_loss(*args, lam)["loss"])
                fd = (f[0] - f[1]) / (2 * h)
                worst = max(worst, abs(fd - grad[i]) / max(abs(grad[i]), 1e-9))
    return worst


_PREFERENCE_FIELDS = {
    "prompt": ((str,), "a string"),
    "chosen": ((str,), "a string"),
    "rejected": ((str,), "a string"),
    "system": ((str, type(None)), "a string or null"),
    "chosen_rating": ((int, float, type(None)), "a number or null"),
    "rejected_rating": ((int, float, type(None)), "a number or null"),
}


def read_preferences(path: str | Path) -> list[PreferenceExample]:
    out = []
    for line_no, obj in read_jsonl(path):
        check_field_types(obj, f"{path}:{line_no}", _PREFERENCE_FIELDS)
        try:
            out.append(
                PreferenceExample(
                    prompt=obj["prompt"],
                    chosen=obj["chosen"],
                    rejected=obj["rejected"],
                    system=obj.get("system"),
                    chosen_rating=obj.get("chosen_rating"),
                    rejected_rating=obj.get("rejected_rating"),
                    category=Category(obj.get("category", "general")),
                    language=obj.get("language", "el"),
                    id=str(obj.get("id", "")),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}:{line_no}: bad preference record: {exc}") from exc
    return out


def _preference_record(ex: PreferenceExample) -> dict:
    record = {
        "id": ex.id,
        "prompt": ex.prompt,
        "chosen": ex.chosen,
        "rejected": ex.rejected,
        "category": ex.category.value,
        "language": ex.language,
    }
    if ex.system is not None:
        record["system"] = ex.system
    if ex.chosen_rating is not None:
        record["chosen_rating"] = ex.chosen_rating
    if ex.rejected_rating is not None:
        record["rejected_rating"] = ex.rejected_rating
    return record


def write_preferences(path: str | Path, examples: Iterable[PreferenceExample]) -> int:
    return write_jsonl(path, map(_preference_record, examples))


def write_rendered(
    path: str | Path, examples: Iterable[PreferenceExample], tpl: ChatTemplate | None = None
) -> int:
    return write_jsonl(path, (render_chat(ex, tpl) for ex in examples))


def load_system_messages(path: str | Path) -> dict[Category, list[str]]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {Category(k): list(v) for k, v in payload.items()}
