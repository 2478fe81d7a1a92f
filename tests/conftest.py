import tracemalloc

import pytest

from varieties.corpus import AnnotatedSentence, Corpus, Token
from varieties.lexicons import default_resources


@pytest.fixture(scope="session")
def resources():
    return default_resources()


def make_sentence(words, variety="N", pos=None, lemma=None, country=None):
    tokens = tuple(
        Token(
            surface=w,
            pos=pos[i] if pos is not None else None,
            lemma=lemma[i] if lemma is not None else None,
        )
        for i, w in enumerate(words)
    )
    return AnnotatedSentence(tokens=tokens, variety=variety, country=country)


def make_corpus(sentences, provenance="test"):
    return Corpus(sentences=tuple(sentences), provenance=provenance)


def make_chunk(sentences):
    return Corpus(sentences=tuple(sentences), provenance="chunk")


@pytest.fixture
def sentence_factory():
    return make_sentence


@pytest.fixture
def corpus_factory():
    return make_corpus


@pytest.fixture
def chunk_factory():
    return make_chunk


def traced(fn):
    """``fn()``'s result, the most tracemalloc saw allocated during the call
    beyond what was held before it, and what the call left held, in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - before, held - before
