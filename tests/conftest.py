import pytest
from helpers import sample_documents

from corpus_forge import synth
from corpus_forge.documents import Document
from corpus_forge.fluency import train_ngram_lm


@pytest.fixture(scope="session")
def greek_docs():
    """~20k words of synthetic Greek split into documents."""
    return sample_documents(
        synth.greek_text(20_000, seed=501), "gdoc", "el_sample", "el"
    )


@pytest.fixture(scope="session")
def greek_lm(greek_docs):
    """Order-5 character model over the shared Greek sample."""
    return train_ngram_lm(greek_docs, order=5, holdout_fraction=0.1, seed=3)


@pytest.fixture(scope="session")
def demo_dir(tmp_path_factory):
    """A small demo corpus with its pipeline config."""
    out = tmp_path_factory.mktemp("demo")
    synth.write_demo_corpus(out, n_docs=800, seed=42)
    return out


@pytest.fixture
def tiny_docs():
    return [
        Document(id="t1", text="ένα δύο τρία τέσσερα πέντε έξι επτά οκτώ"),
        Document(id="t2", text="alpha beta gamma delta"),
    ]
