"""The column readers against the object reader they replace
(``oracles.reference_ingest``): equal corpora on valid files, and the same
first error, message and line, on invalid ones; ``write_jsonl`` round trips;
and no pipeline stage building sentence objects."""

import dataclasses
import importlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_sentence
from oracles import reference_ingest, reference_write_jsonl
from varieties import corpus as corpus_module
from varieties.config import load_config
from varieties.corpus import (
    FAMILY_LABELS,
    AnnotatedSentence,
    Columns,
    Corpus,
    CorpusFormatError,
    Token,
    family_of,
    ingest,
    tokenize_raw,
    write_jsonl,
)
from varieties.pipeline import run_stage

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def assert_same_corpus(got: Corpus, want: Corpus) -> None:
    assert got == want
    assert got.sentences == want.sentences
    assert (len(got), got.token_count) == (len(want), want.token_count)
    assert got.varieties() == want.varieties()
    assert {s.country for s in got.sentences} == {s.country for s in want.sentences}
    for field in dataclasses.fields(Columns):
        mine, theirs = getattr(got.columns, field.name), getattr(want.columns, field.name)
        if isinstance(theirs, np.ndarray):
            assert mine.dtype == theirs.dtype, field.name
            np.testing.assert_array_equal(mine, theirs, err_msg=field.name)
        else:
            assert mine == theirs, field.name


def read(reader, path, fmt, default_variety):
    try:
        return reader(path, fmt, default_variety), None
    except CorpusFormatError as exc:
        return None, (str(exc), exc.line)


def assert_same_outcome(path, fmt="jsonl", default_variety=None):
    """``ingest`` and the reference read ``path`` to equal corpora or raise
    the same error; returns that error as (message, line), or None."""
    got, got_error = read(ingest, path, fmt, default_variety)
    want, want_error = read(reference_ingest, path, fmt, default_variety)
    assert got_error == want_error
    if want is not None:
        assert_same_corpus(got, want)
    return want_error


VALID_RECORDS = [
    {"tokens": ["The", "Cats", "RAN"], "pos": ["DT", "NNS", "VBD"],
     "lemma": ["The", "Cat", None], "variety": "N", "country": "GB"},
    {"text": "We , AGREE .", "variety": "NN", "country": "DE"},
    {"tokens": ["ja", "Gut"], "lemma": ["JA", "gut"], "variety": "NN", "family": "Germanic"},
    {"tokens": ["oui"], "pos": [None], "variety": "T", "country": "FR", "family": "Romance"},
    {"tokens": ["a", "b"], "pos": ["DT", None], "lemma": [None, None]},
    {"tokens": ["é", "\U0001d518", "İ"], "pos": ["X", "Y", "Z"], "lemma": ["İ", None, "a b"],
     "variety": "T", "country": "XX"},
    {"tokens": ["cats", "the"], "pos": ["NNS", "DT"], "lemma": ["cat", "the"], "variety": "N"},
]


@pytest.mark.parametrize("default_variety", [None, "T"])
def test_valid_jsonl_reads_as_the_reference(tmp_path, default_variety):
    path = tmp_path / "c.jsonl"
    lines = [json.dumps(r, ensure_ascii=False) for r in VALID_RECORDS]
    path.write_text("\n \n".join(lines[:3]) + "\n\n\t" + "\n".join(lines[3:]) + "\n\n")
    error = assert_same_outcome(path, "jsonl", default_variety)
    # the one record without a variety needs the default
    assert (error is None) == (default_variety is not None)


VALID_VERTICAL = (
    "#variety=NN\n#country=DE\n"
    "The\tDT\tThe\nCats\tNNS\nran\n\n"
    "#variety=T\n#country=\n#family=Romance\n"
    "oui\t\tOUI\nnon\n\n\n"
    "#country=FR\n"
    "x\tX\t\n"
    "#variety=N\n"
    "ÉtÉ\tNN\tÉTÉ\n"
)


def test_valid_vertical_reads_as_the_reference(tmp_path):
    path = tmp_path / "c.vert"
    path.write_text(VALID_VERTICAL)
    assert assert_same_outcome(path, "vertical") is None
    assert len(ingest(path, "vertical")) == 4


@pytest.mark.parametrize(
    "line",
    [
        "{nope",
        '{"tokens":["a"]} x',
        "5",
        "[]",
        '"tokens"',
        "null",
        '{"variety":"N"}',
        '{"tokens":null,"variety":"N"}',
        '{"tokens":"ab","variety":"N"}',
        '{"tokens":["a",5],"variety":"N"}',
        '{"tokens":[],"variety":"N"}',
        '{"text":5}',
        '{"text":", .","variety":"N"}',
        '{"tokens":["a b"],"variety":"N"}',
        '{"tokens":[""],"variety":"N"}',
        '{"tokens":["　"],"variety":"N"}',
        '{"tokens":["a"],"pos":[""],"variety":"N"}',
        '{"tokens":["a"],"lemma":[""],"variety":"N"}',
        '{"tokens":["a","b"],"pos":["DT"],"variety":"N"}',
        '{"tokens":["a"],"pos":"DT","variety":"N"}',
        '{"tokens":["a"],"pos":[5],"variety":"N"}',
        '{"tokens":["a"],"lemma":[true],"variety":"N"}',
        '{"tokens":["a"],"lemma":[["a"]],"variety":"N"}',
        '{"tokens":["a"],"variety":"N","country":5}',
        '{"tokens":["a"],"variety":"N","family":["Germanic"]}',
        '{"tokens":["a"],"variety":"X"}',
        '{"tokens":["a"]}',
        '{"tokens":["a"],"variety":null}',
        '{"tokens":["a"],"variety":["N"]}',
        '{"tokens":["a"],"variety":"N","country":"DE","family":"Romance"}',
        '{"tokens":["a"],"variety":"N","family":"Slavic"}',
        # two faults: the first in the reference order is reported
        '{"tokens":["a b"],"pos":[""],"variety":"X"}',
        '{"tokens":["a"],"variety":"X","country":5}',
        '{"tokens":["a"],"pos":["DT",""],"variety":"X"}',
        '{"tokens":["ok","a b"],"lemma":["",null],"variety":"N"}',
        '{"tokens":["A"],"pos":[5],"country":5}',
        '{"tokens":["a b"],"variety":"N","country":"DE","family":"Romance"}',
        '{"tokens":[["x"]],"variety":["N"]}',
        '{"tokens":["a"],"pos":["DT"],"lemma":["a","b"],"country":["DE"]}',
    ],
)
def test_invalid_jsonl_raises_as_the_reference(tmp_path, line):
    path = tmp_path / "c.jsonl"
    # the first record interns the values the second one reuses
    path.write_text(f'{{"tokens":["a","A"],"pos":["DT",null],"variety":"N"}}\n\n{line}\n')
    message, line_no = assert_same_outcome(path)
    assert line_no == 3


def test_bom_raises_as_the_reference(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'\xef\xbb\xbf{"tokens":["a"],"variety":"N"}\n')
    assert assert_same_outcome(path) == (
        f"{path}:1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)", 1
    )


@pytest.mark.parametrize(
    "text",
    [
        "#speaker=x\na\n",
        "a\tb\tc\td\n",
        "a\n \tNN\n",
        "#variety=X\n\na\nb\n",
        "#country=DE\n#family=Romance\na\n",
        "#family=Slavic\na\n",
        # a token fault comes before its sentence's metadata fault
        "#variety=X\na\nb c\n",
        "a\n\n#variety=T\n#country=DE\n#family=Other\nb\n",
    ],
)
def test_invalid_vertical_raises_as_the_reference(tmp_path, text):
    path = tmp_path / "c.vert"
    path.write_text(text)
    assert assert_same_outcome(path, "vertical", default_variety="N") is not None


WORDS = st.sampled_from(["a", "The", "CATS", "é", "İ", "x"])
BAD_WORDS = st.sampled_from(["", "a b", " ", "　", 5, None, ["a"]])
ENTRIES = st.sampled_from(["DT", "Run", "x", None])
BAD_ENTRIES = st.sampled_from(["", 7, True, ["DT"]])
FAULTS = ("tokens", "pos", "lemma", "align", "variety", "country", "family", "shape")


@st.composite
def records(draw):
    """One record in four with one or two kinds of fault from ``FAULTS``,
    the others valid (given a default variety where they have none)."""
    faults = set()
    if draw(st.integers(0, 3)) == 0:
        faults = draw(st.sets(st.sampled_from(FAULTS), min_size=1, max_size=2))
    n = draw(st.integers(1, 4))
    words = WORDS | BAD_WORDS if "tokens" in faults else WORDS
    record = {}
    if draw(st.integers(0, 3)):
        record["tokens"] = draw(st.lists(words, min_size=n, max_size=n))
    else:
        record["text"] = draw(st.text(alphabet=" aB,.", min_size=1, max_size=8))
        n = len(tokenize_raw(record["text"]))
    if "shape" in faults:
        shape = draw(st.sampled_from(["none", "null", "empty", "both"]))
        record.pop("tokens", None)
        if shape != "none":
            record["tokens"] = {"null": None, "empty": [], "both": ["a"] * n}[shape]
        if shape == "both":
            record["text"] = "ignored"
    for key in ("pos", "lemma"):
        if key in faults or draw(st.booleans()):
            entries = ENTRIES | BAD_ENTRIES if key in faults else ENTRIES
            record[key] = draw(st.lists(entries, min_size=n, max_size=n))
    if "align" in faults:
        key = draw(st.sampled_from(["pos", "lemma"]))
        record[key] = draw(st.sampled_from(["DT", 5]) | st.lists(ENTRIES, max_size=5))
    if "variety" in faults:
        record["variety"] = draw(st.sampled_from(["X", None, 1, ["N"]]))
    elif draw(st.integers(0, 3)):
        record["variety"] = draw(st.sampled_from(["N", "NN", "T"]))
    if "country" in faults:
        record["country"] = draw(st.sampled_from([2, ["DE"]]))
    elif draw(st.booleans()):
        record["country"] = draw(st.sampled_from(["DE", "FR", "GB"]))
    if "family" in faults:
        mismatch = "Romance" if record.get("country") == "DE" else "Germanic"
        record["family"] = draw(st.sampled_from(["Slavic", 3, mismatch]))
    elif draw(st.booleans()):
        country = record.get("country")
        if isinstance(country, str):
            record["family"] = family_of(country)
        else:
            record["family"] = draw(st.sampled_from(FAMILY_LABELS))
    return record


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        # one line in eight blank or not a record
        st.integers(0, 7).flatmap(
            lambda i: st.sampled_from(["", "5", "[1]", "{"]) if i == 0 else records()
        ),
        min_size=1,
        max_size=4,
    ),
    default_variety=st.sampled_from([None, "N", "T"]),
)
def test_random_jsonl_reads_as_the_reference(lines, default_variety):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_text(
            "\n".join(line if isinstance(line, str) else json.dumps(line) for line in lines) + "\n"
        )
        assert_same_outcome(path, "jsonl", default_variety)


# one line in six is bad or can make its sentence bad
VERTICAL_LINES = st.integers(0, 5).flatmap(
    lambda i: st.sampled_from(
        ["#variety=X", "#variety=", "#speaker=x", " \tX", "a\tb\tc\td", "x　y", "\t",
         "#family=Romance", "#family=Slavic"]
    )
    if i == 0
    else st.sampled_from(
        ["", "#variety=N", "#country=DE", "#country=", "#family=", "#family=Germanic",
         "a\tDT", "The\tNN\tThe", "b", "A\t\tLEMMA", "c\tDT\t", "É\tX\tÉ"]
    )
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(VERTICAL_LINES, max_size=10),
    default_variety=st.sampled_from([None, "NN"]),
)
def test_random_vertical_reads_as_the_reference(lines, default_variety):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.vert"
        path.write_text("\n".join(lines) + "\n")
        assert_same_outcome(path, "vertical", default_variety)


# ---------------------------------------------------------------------------
# round trips


def test_canonical_files_round_trip_byte_for_byte(tmp_path):
    source = tmp_path / "source.jsonl"
    source.write_text("\n".join(json.dumps(r) for r in VALID_RECORDS) + "\n")
    canonical = tmp_path / "canonical.jsonl"
    write_jsonl(ingest(source, default_variety="T"), canonical)
    expected = tmp_path / "expected.jsonl"
    reference_write_jsonl(reference_ingest(source, default_variety="T"), expected)
    assert canonical.read_bytes() == expected.read_bytes()
    # missing pos, null and partial lemmas and a "text" record, now as tokens
    assert b'"lemma": ["the", "cat", null]' in expected.read_bytes()
    again = tmp_path / "again.jsonl"
    write_jsonl(ingest(canonical), again)
    assert again.read_bytes() == canonical.read_bytes()


@pytest.mark.parametrize("workload", ["classify_cv", "metrics_bootstrap", "lm_kn"])
def test_benchmark_inputs_round_trip_byte_for_byte(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workloads.generate(workload, 17, tmp_path)
    for path in sorted(tmp_path.glob("*.jsonl")):
        write_jsonl(ingest(path), tmp_path / "again.out")
        assert (tmp_path / "again.out").read_bytes() == path.read_bytes(), path.name


def test_corpus_from_sentences_equals_the_corpus_read_back(tmp_path):
    sentences = [
        make_sentence(["We", "agree"], variety="N", pos=["PRP", "VBP"], lemma=["we", None]),
        make_sentence(["oui"], variety="T", country="FR"),
        AnnotatedSentence((Token("Ja", lemma="JA"), Token("gut", "JJ")), "NN", family="Germanic"),
    ]
    path = tmp_path / "c.jsonl"
    write_jsonl(Corpus(sentences), path)
    back = ingest(path)
    assert Corpus(sentences, provenance=str(path)) == back
    assert back.sentences == tuple(sentences)
    assert Corpus(sentences) != back  # provenance differs
    assert Corpus(sentences[:2], provenance=str(path)) != back


# ---------------------------------------------------------------------------
# stages run on the columns alone


def test_no_stage_builds_sentence_objects(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    runs = [("lm_kn", ("ingest", "lm")), ("classify_cv", ("classify", "cluster")),
            ("metrics_bootstrap", ("metrics",))]
    configs = []
    for name, stages in runs:
        inputs = tmp_path / name
        workloads.generate(name, 17, inputs)
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(workloads.config_text(name, 17, inputs))
        configs.append((load_config(cfg, overrides={"out": str(tmp_path / "out")}, env={}), stages))

    def materialize(columns):
        raise AssertionError("a stage built sentence objects")

    monkeypatch.setattr(corpus_module, "_materialize", materialize)
    for config, stages in configs:
        for stage in stages:
            run_stage(stage, config)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert sorted(manifest["stages"]) == ["classify", "cluster", "ingest", "lm", "metrics"]
