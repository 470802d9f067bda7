import math
import re
import time
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_forge.alignment import (
    Category,
    ChatTemplate,
    PreferenceExample,
    assign_system_message,
    curate_preferences,
    foreign_ratio,
    load_system_messages,
    normalize_formatting,
    orpo_loss,
    orpo_loss_with_grad,
    read_preferences,
    render_chat,
    write_preferences,
    write_rendered,
)

GREEK = "Η απάντηση είναι σωστή και πλήρης με αναλυτική τεκμηρίωση εδώ."
GREEK2 = "Μια λιγότερο καλή απάντηση χωρίς λεπτομέρειες."


def _ex(**kw):
    defaults = dict(
        prompt="Ποια είναι η πρωτεύουσα της Γαλλίας;",
        chosen=GREEK,
        rejected=GREEK2,
        chosen_rating=9.0,
        rejected_rating=3.0,
        category=Category.GENERAL,
    )
    defaults.update(kw)
    return PreferenceExample(**defaults)


def test_clean_example_kept_unchanged():
    kept, report = curate_preferences([_ex()], min_rating=5.0)
    assert len(kept) == 1
    assert kept[0].chosen == GREEK
    assert report == {"input": 1, "kept": 1, "dropped": 0, "reasons": {}}


def test_tie_dropped():
    kept, report = curate_preferences([_ex(rejected_rating=9.0)])
    assert not kept
    assert report["reasons"] == {"rating_tie": 1}


def test_misordered_ratings_dropped():
    kept, report = curate_preferences([_ex(chosen_rating=2.0, rejected_rating=8.0)])
    assert not kept
    assert report["reasons"] == {"rating_order": 1}


def test_low_rating_dropped():
    kept, _ = curate_preferences([_ex(chosen_rating=4.0, rejected_rating=1.0)], min_rating=5.0)
    assert not kept


def test_excessive_unicode_dropped():
    noisy = GREEK + " " + "漢字の雑音がここにたくさん入る" * 3
    assert foreign_ratio(noisy) > 0.05
    kept, report = curate_preferences([_ex(chosen=noisy)])
    assert not kept
    assert report["reasons"] == {"excessive_unicode": 1}


def test_twenty_percent_foreign_blocks():
    text = "α" * 80 + "海" * 20
    assert foreign_ratio(text) == pytest.approx(0.2)
    kept, _ = curate_preferences([_ex(chosen=GREEK + " " + text)])
    assert not kept


def test_script_mismatch_dropped():
    kept, report = curate_preferences(
        [_ex(rejected="This answer is written in English entirely.")]
    )
    assert not kept
    assert report["reasons"] == {"script_mismatch": 1}


def test_identical_responses_dropped():
    kept, report = curate_preferences([_ex(rejected=GREEK)])
    assert not kept
    assert report["reasons"] == {"identical_responses": 1}


def test_missing_ratings_pass_rating_rules():
    kept, _ = curate_preferences([_ex(chosen_rating=None, rejected_rating=None)])
    assert len(kept) == 1


def test_normalization_and_idempotence():
    messy = _ex(chosen="Καλή   απάντηση.  \r\nΜε νέα γραμμή.\n\n\n\nΤέλος.")
    kept, _ = curate_preferences([messy])
    assert "\r" not in kept[0].chosen
    assert "\n\n\n" not in kept[0].chosen
    twice, _ = curate_preferences(kept)
    assert twice == kept


def test_normalize_formatting_rules():
    assert normalize_formatting("a  \nb") == "a\nb"
    assert normalize_formatting("a\r\nb") == "a\nb"
    assert normalize_formatting("a\n\n\n\nb") == "a\n\nb"
    assert normalize_formatting("  a  ") == "a"


def _normalize_by_regex(text: str) -> str:
    """The reference: trailing blanks removed by `[ \t]+\n`."""
    text = unicodedata.normalize("NFC", text).replace("\r\n", "\n").replace("\r", "\n")
    text = re.sub(r"[ \t]+\n", "\n", text)
    text = re.sub(r"\n{3,}", "\n\n", text)
    return text.strip()


_LAYOUT = st.sampled_from([" ", "\t", "\n", "\r", "\r\n", "\x0c", "\xa0", "\u2028",
                           "a", "Ω", "e\u0301"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_LAYOUT | st.characters(), max_size=40).map("".join))
def test_normalize_formatting_matches_the_regex_reference(text):
    assert normalize_formatting(text) == _normalize_by_regex(text)


def test_normalize_formatting_is_linear_in_a_run_of_spaces():
    text = "a" + " " * 1_000_000 + "b"
    start = time.perf_counter()
    assert normalize_formatting(text) == text
    assert time.perf_counter() - start < 1.0


# assign_system_message -------------------------------------------------------

POOL = {
    Category.GENERAL: ["Γενικό μήνυμα."],
    Category.MATH: ["Μαθηματικό Α.", "Μαθηματικό Β.", "Μαθηματικό Γ."],
}


def test_existing_system_untouched():
    ex = _ex(system="Υπάρχον μήνυμα.")
    assert assign_system_message(ex, POOL, seed=1) is ex


def test_assignment_deterministic_per_seed():
    ex = _ex(category=Category.MATH, id="pref-7")
    first = assign_system_message(ex, POOL, seed=5).system
    again = assign_system_message(ex, POOL, seed=5).system
    other_seed = assign_system_message(ex, POOL, seed=6).system
    assert first == again
    assert first in POOL[Category.MATH]
    assert other_seed in POOL[Category.MATH]


def test_assignment_independent_of_other_examples():
    a = _ex(category=Category.MATH, id="a")
    b = _ex(category=Category.MATH, id="b")
    alone = assign_system_message(a, POOL, seed=3).system
    with_b = [assign_system_message(x, POOL, seed=3).system for x in (b, a)]
    assert with_b[1] == alone


def test_singleton_pool_always_chosen():
    ex = _ex(category=Category.GENERAL, id="x")
    assert assign_system_message(ex, POOL, seed=9).system == "Γενικό μήνυμα."


def test_empty_pool_is_config_error():
    ex = _ex(category=Category.CODE)
    with pytest.raises(ValueError):
        assign_system_message(ex, POOL, seed=1)


def test_bundled_pool_loads():
    from pathlib import Path

    import corpus_forge

    path = Path(corpus_forge.__file__).parent / "data" / "system_messages_el.json"
    pool = load_system_messages(path)
    assert set(pool) == set(Category)
    assert all(pool[c] for c in Category)


# render_chat -----------------------------------------------------------------


def test_render_golden():
    tpl = ChatTemplate()
    ex = _ex(system="Σύστημα.", prompt="Ερώτηση;", chosen="Ναι.", rejected="Όχι.")
    rendered = render_chat(ex, tpl)
    golden_chosen = (
        "<|system|>\nΣύστημα.<|end|>\n"
        "<|user|>\nΕρώτηση;<|end|>\n"
        "<|assistant|>\nΝαι.<|end|>\n"
    )
    assert rendered["chosen_text"] == golden_chosen
    assert rendered["rejected_text"] == golden_chosen.replace("Ναι.", "Όχι.")


def test_render_structure_counts():
    tpl = ChatTemplate()
    rendered = render_chat(_ex(system="Σ"), tpl)
    for marker in (tpl.system_marker, tpl.user_marker, tpl.assistant_marker):
        assert rendered["chosen_text"].count(marker) == 1
    assert rendered["chosen_text"].count(tpl.terminator) == 3


def test_render_length_is_sum_of_parts():
    tpl = ChatTemplate()
    ex = _ex(system="ΑΒΓ")
    rendered = render_chat(ex, tpl)
    expected = (
        len(tpl.system_marker) + len(ex.system) + len(tpl.terminator)
        + len(tpl.user_marker) + len(ex.prompt) + len(tpl.terminator)
        + len(tpl.assistant_marker) + len(ex.chosen) + len(tpl.terminator)
    )
    assert len(rendered["chosen_text"]) == expected


def test_render_empty_assistant_span():
    rendered = render_chat(_ex(system="Σ", chosen="", rejected="x"))
    assert rendered["chosen_text"].endswith("<|assistant|>\n<|end|>\n")


def test_render_requires_system():
    with pytest.raises(ValueError):
        render_chat(_ex(system=None))


def test_template_validation():
    with pytest.raises(ValueError):
        ChatTemplate(system_marker="<|x|>", user_marker="<|x|>")
    with pytest.raises(ValueError):
        ChatTemplate(terminator="")


# orpo_loss -------------------------------------------------------------------


def test_orpo_scalar_example():
    result = orpo_loss([math.log(0.9)], [math.log(0.5)], lam=0.0)
    assert result["loss"] == pytest.approx(-math.log(0.9), abs=1e-12)
    assert result["nll_term"] == pytest.approx(0.1053605156578263, abs=1e-12)


def test_orpo_symmetric_inputs():
    result = orpo_loss([-0.4, -1.2], [-0.4, -1.2], lam=1.0)
    assert result["log_odds_ratio"] == 0.0
    assert result["or_term"] == pytest.approx(math.log(2), rel=1e-15)


def test_orpo_or_term_positive_and_vanishing():
    strong = orpo_loss([-0.01], [-8.0], lam=1.0)
    weak = orpo_loss([-3.0], [-0.05], lam=1.0)
    assert 0 < strong["or_term"] < weak["or_term"]


def test_orpo_domain_errors():
    with pytest.raises(ValueError):
        orpo_loss([], [-1.0], 0.5)
    with pytest.raises(ValueError):
        orpo_loss([0.1], [-1.0], 0.5)
    with pytest.raises(ValueError):
        orpo_loss([-1.0], [-1.0], -0.1)
    with pytest.raises(ValueError):
        orpo_loss([0.0, 0.0], [-1.0], 0.5)  # probability 1: odds singular


def test_orpo_monotonicity():
    base = orpo_loss([-1.0, -2.0], [-1.5], lam=0.7)["loss"]
    better_chosen = orpo_loss([-0.9, -2.0], [-1.5], lam=0.7)["loss"]
    worse_rejected = orpo_loss([-1.0, -2.0], [-1.6], lam=0.7)["loss"]
    assert better_chosen < base
    assert worse_rejected <= base


def test_orpo_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(12))
    h = 1e-6
    for _ in range(25):
        n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        chosen = -rng.uniform(0.05, 3.5, n)
        rejected = -rng.uniform(0.05, 3.5, m)
        lam = float(rng.uniform(0.0, 2.0))
        _, grad_c, grad_r = orpo_loss_with_grad(chosen, rejected, lam)
        for i in range(n):
            hi, lo = chosen.copy(), chosen.copy()
            hi[i] += h
            lo[i] -= h
            fd = (orpo_loss(hi, rejected, lam)["loss"] - orpo_loss(lo, rejected, lam)["loss"]) / (2 * h)
            assert fd == pytest.approx(grad_c[i], rel=1e-5, abs=1e-10)
        for j in range(m):
            hi, lo = rejected.copy(), rejected.copy()
            hi[j] += h
            lo[j] -= h
            fd = (orpo_loss(chosen, hi, lam)["loss"] - orpo_loss(chosen, lo, lam)["loss"]) / (2 * h)
            assert fd == pytest.approx(grad_r[j], rel=1e-5, abs=1e-10)


def test_orpo_gradient_signs():
    _, grad_c, grad_r = orpo_loss_with_grad([-1.0, -0.5], [-2.0, -0.7], lam=1.5)
    assert (grad_c < 0).all()
    assert (grad_r >= 0).all()


# file I/O ---------------------------------------------------------------------


def test_preference_file_roundtrip(tmp_path):
    examples = [
        _ex(id="p1"),
        _ex(id="p2", system="Δικό μου.", category=Category.MATH),
    ]
    path = tmp_path / "prefs.jsonl"
    write_preferences(path, examples)
    assert read_preferences(path) == examples


def test_rendered_file(tmp_path):
    path = tmp_path / "rendered.jsonl"
    n = write_rendered(path, [_ex(system="Σ")])
    assert n == 1
    import json

    record = json.loads(path.read_text().strip())
    assert set(record) == {"chosen_text", "rejected_text"}
