import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_forge.documents import Document, Extraction
from corpus_forge.filters import (
    FilterConfig,
    Verdict,
    clean_pdf_artifacts,
    count_bad_words,
    filter_document,
    read_wordlist,
    url_blacklisted,
)


def _doc(text, **kw):
    return Document(id=kw.pop("id", "d"), text=text, **kw)


BASE = FilterConfig(bad_words=("βλάκας", "παλιό σκουπίδι"), url_blacklist=frozenset({"bad.example.gr"}))


def test_min_chars_boundary():
    filler = "α" * 5
    words = [filler] * 50  # 50 words, 6 chars each incl. separator
    text_299 = " ".join(words)[:299]
    text_300 = (" ".join(words) + "α" * 10)[:300]
    assert len(text_299) == 299 and len(text_300) == 300
    v = filter_document(_doc(text_299), BASE)
    assert not v.keep and v.reasons == ("min_chars",)
    assert filter_document(_doc(text_300), BASE).keep


def test_min_words_boundary():
    five = "αββββ ββββα βαβαβ ββααβ βββββ" * 12  # long enough, but 5 words
    five = " ".join(five.split()[:5]) + "α" * 280
    assert len(five) >= 300 and len(five.split()) == 5
    v = filter_document(_doc(five), BASE)
    assert "min_words" in v.reasons
    six = " ".join(["α" * 60] * 6)
    assert filter_document(_doc(six), BASE).keep


def test_max_word_len_boundary():
    ok = " ".join(["α" * 60] * 6)
    v = filter_document(_doc(ok), BASE)
    assert v.keep
    bad = " ".join(["α" * 61] + ["α" * 60] * 5)
    v = filter_document(_doc(bad), BASE)
    assert "max_word_len" in v.reasons


def test_bad_word_threshold():
    filler = " ".join(["καλημέρα"] * 40)
    one = filler + " βλάκας"
    two = filler + " βλάκας και πάλι βλάκας"
    assert filter_document(_doc(one), BASE).keep
    v = filter_document(_doc(two), BASE)
    assert "bad_words" in v.reasons


def test_bad_word_matching_rules():
    entries = ("βλάκας", "παλιό σκουπίδι")
    assert count_bad_words("ΒΛΆΚΑΣ", entries) == 1  # case-insensitive
    assert count_bad_words("ξεβλάκας", entries) == 0  # whole word only
    assert count_bad_words("είναι παλιό σκουπίδι αυτό", entries) == 1  # phrase
    assert count_bad_words("παλιό  σκουπίδι", entries) == 0  # double space: no match
    assert count_bad_words("βλάκας βλάκας βλάκας", entries) == 3  # occurrences


def test_forbidden_substring():
    filler = " ".join(["κανονικό"] * 40)
    v = filter_document(_doc(filler + " Lorem Ipsum dolor"), BASE)
    assert "forbidden_substring" in v.reasons


def test_all_rules_reported_no_short_circuit():
    text = "βλάκας βλάκας lorem ipsum"
    v = filter_document(_doc(text, source_url="http://bad.example.gr/x"), BASE)
    assert set(v.reasons) >= {
        "min_chars", "min_words", "bad_words", "forbidden_substring", "url_blacklist",
    }


def test_disabling_rules_removes_reasons():
    text = "βλάκας βλάκας lorem ipsum"
    relaxed = FilterConfig(
        min_chars=0, min_words=0, max_word_len=None, bad_words=(),
        forbidden_substrings=(), url_blacklist=frozenset(),
    )
    v = filter_document(_doc(text, source_url="http://bad.example.gr/x"), relaxed)
    assert v.keep and v.reasons == ()


def test_monotonicity_min_chars():
    text = " ".join(["λέξη"] * 80)
    for low, high in ((100, 300), (300, 1000)):
        v_low = filter_document(_doc(text), FilterConfig(min_chars=low, bad_words=()))
        v_high = filter_document(_doc(text), FilterConfig(min_chars=high, bad_words=()))
        if not v_low.keep:
            assert not v_high.keep


def test_verdict_invariant():
    with pytest.raises(ValueError):
        Verdict(keep=True, reasons=("min_chars",))


def test_determinism():
    doc = _doc(" ".join(["κείμενο"] * 60))
    assert filter_document(doc, BASE) == filter_document(doc, BASE)


# url_blacklisted ------------------------------------------------------------

BLACKLIST = {"bad.example.gr"}


def test_url_exact_host():
    assert url_blacklisted("http://bad.example.gr/x", BLACKLIST)


def test_url_subdomain():
    assert url_blacklisted("http://sub.bad.example.gr", BLACKLIST)


def test_url_suffix_boundary_oracle():
    # Label-wise suffix oracle: host equals the domain or ends with "." + domain.
    def oracle(host, domain):
        labels_h, labels_d = host.split("."), domain.split(".")
        return labels_h[-len(labels_d):] == labels_d

    cases = [
        ("notbad.example.gr", False),
        ("bad.example.gr", True),
        ("a.b.bad.example.gr", True),
        ("example.gr", False),
        ("bad.example.gr.evil.com", False),
    ]
    for host, expected in cases:
        assert oracle(host, "bad.example.gr") is expected
        assert url_blacklisted(f"http://{host}/p", BLACKLIST) is expected


def _scan_oracle(url, blacklist):
    """The old lookup: every blacklisted domain compared with the host."""
    host = url.partition("//")[2].partition("/")[0].lower().strip(".")
    return any(host == d or host.endswith("." + d) for d in blacklist)


_labels = st.lists(st.sampled_from(["a", "b", "ab", "x-y", "Gr", "com", ""]), min_size=1,
                   max_size=4).map(".".join)


@settings(max_examples=300, deadline=None)
@given(host=_labels.filter(lambda h: h.strip(".")), domains=st.lists(_labels, max_size=5))
def test_url_suffix_lookup_matches_the_scan(host, domains):
    blacklist = FilterConfig(url_blacklist=frozenset(domains)).url_blacklist
    url = f"http://{host}/p"
    assert url_blacklisted(url, blacklist) is _scan_oracle(url, blacklist)


def test_url_lookup_does_not_scan_the_blacklist():
    blacklist = frozenset(f"d{i}.example.gr" for i in range(1_000_000))
    urls = [f"http://www.s{i}.d{i * 1997}.example.gr/p" for i in range(1_000)]
    started = time.perf_counter()
    hits = sum(url_blacklisted(url, blacklist) for url in urls)
    assert time.perf_counter() - started < 0.5
    assert hits == 501  # i * 1997 < 1_000_000


def test_url_edge_cases():
    assert not url_blacklisted(None, BLACKLIST)
    assert not url_blacklisted("", BLACKLIST)
    assert not url_blacklisted("http://[badbracket/", BLACKLIST)
    assert url_blacklisted("bad.example.gr/path-without-scheme", BLACKLIST)
    assert url_blacklisted("http://BAD.Example.GR:8080/x", BLACKLIST)


# clean_pdf_artifacts --------------------------------------------------------


def test_single_char_run_removed():
    assert clean_pdf_artifacts("α β γ δ ε ζ\nκανονική πρόταση") == "κανονική πρόταση"


def test_four_singles_kept_five_removed():
    assert clean_pdf_artifacts("α β γ δ") == "α β γ δ"
    assert clean_pdf_artifacts("α β γ δ ε") == ""


def test_glued_word_removed():
    glued = "x" * 61
    text = f"καλή γραμμή\n{glued} στο τέλος\nάλλη γραμμή"
    assert clean_pdf_artifacts(text) == "καλή γραμμή\nάλλη γραμμή"
    kept = "x" * 60
    assert clean_pdf_artifacts(f"{kept} εδώ") == f"{kept} εδώ"


def test_clean_identity_and_idempotence():
    text = "πρώτη γραμμή κειμένου\nδεύτερη γραμμή εδώ"
    assert clean_pdf_artifacts(text) == text
    noisy = "α β γ δ ε ζ\nκαλό κείμενο\n" + "y" * 80
    once = clean_pdf_artifacts(noisy)
    assert clean_pdf_artifacts(once) == once


def test_digits_do_not_count_as_single_alpha_run():
    assert clean_pdf_artifacts("1 2 3 4 5 6 7") == "1 2 3 4 5 6 7"


def test_pdf_document_cleaned_before_rules():
    body = " ".join(["κανονική"] * 60)
    noisy = "α β γ δ ε ζ\n" + body
    v = filter_document(_doc(noisy, extraction=Extraction.PDF), BASE)
    assert v.keep
    assert v.cleaned_text == body


def test_fluency_rule_uses_precomputed_score():
    body = " ".join(["κείμενο"] * 60)
    doc = _doc(body, extraction=Extraction.PDF, scores={"fluency": 0.69})
    v = filter_document(doc, BASE)
    assert "fluency" in v.reasons
    doc_ok = _doc(body, extraction=Extraction.PDF, scores={"fluency": 0.70})
    assert filter_document(doc_ok, BASE).keep  # inclusive keep at the threshold
    web = _doc(body, scores={"fluency": 0.1})
    assert filter_document(web, BASE).keep  # rule scoped to pdf extraction


def test_wordlist_reader(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("# comment\nβλάκας\n\n  ηλίθιος  \n", encoding="utf-8")
    assert read_wordlist(path) == ["βλάκας", "ηλίθιος"]
