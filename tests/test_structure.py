"""Structure guard: ``corpus`` is the only module that reads token fields
or counts keys with ``collections.Counter``, and ``lexicons`` the only one
that matches phrases.

Every other module sees sentence content through ``Corpus.columns``, so
how a sentence stores its tokens can change inside ``corpus.py`` alone;
``features``, ``metrics`` and ``pipeline`` read it through ``Corpus.columns``
only, and ``pipeline`` never asks a corpus for its sentence objects.
Count tables have one home too: other modules count keys per row through
``corpus.KeyCounts``. Phrase matching has one: the ``_index`` of phrase
prefixes and the greedy scan over token positions live in ``lexicons.py``,
and a module that uses phrase lists calls ``lexicons.match_phrases`` instead
of looping over positions itself. scipy has one door: ``bootstrap`` imports
``scipy.special.betainc`` and nothing else, so replacing that one function
drops the dependency.
"""

import ast
from pathlib import Path

import varieties

TOKEN_FIELDS = {"surface", "pos", "lemma", "lemma_or_surface"}
FORBIDDEN_NAMES = {"Chunk", "Counter"}
# sentence readers these modules may not call: they read Corpus.columns
SENTENCE_READERS = {"surfaces", "lemmas", "tags"}
COLUMN_READERS = {"features.py", "metrics.py", "pipeline.py"}
PACKAGE = Path(varieties.__file__).parent


def _offences(path: Path) -> list[str]:
    found = []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses_lexicons = any(
        isinstance(node, ast.ImportFrom) and node.module == "lexicons"
        for node in ast.walk(tree)
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in TOKEN_FIELDS:
            found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        for name in FORBIDDEN_NAMES.intersection(names):
            found.append(f"{path.name}:{getattr(node, 'lineno', '?')} names {name}")
        if path.name != "lexicons.py":
            if "_index" in names:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} names _index")
            if uses_lexicons and isinstance(node, ast.While):
                found.append(f"{path.name}:{node.lineno} scans positions")
        if (
            path.name in COLUMN_READERS
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SENTENCE_READERS
        ):
            found.append(f"{path.name}:{node.lineno} calls .{node.func.attr}()")
        if path.name == "pipeline.py" and isinstance(node, ast.Attribute) and node.attr == "sentences":
            found.append(f"{path.name}:{node.lineno} reads .sentences")
    return found


def _scipy_imports(path: Path) -> list[str]:
    """Each name ``path`` imports from scipy, as ``module.name``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found += [f"{node.module}.{alias.name}" for alias in node.names]
    return found


def test_only_bootstrap_imports_scipy_and_only_betainc():
    imports = {path.name: _scipy_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in imports.items() if found} == {
        "bootstrap.py": ["scipy.special.betainc"]
    }


def test_the_scipy_guard_sees_every_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import scipy\n"
        "import scipy.stats as st\n"
        "from scipy.special import betainc, gammaln\n"
        "from scipy import linalg\n"
        "import numpy\n"
        "from .scipy_like import x\n"
    )
    assert _scipy_imports(path) == [
        "scipy",
        "scipy.stats",
        "scipy.special.betainc",
        "scipy.special.gammaln",
        "scipy.linalg",
    ]


def test_only_corpus_reads_token_fields():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "corpus.py" in modules
    offences = [
        offence
        for path in modules
        if path.name != "corpus.py"
        for offence in _offences(path)
    ]
    assert offences == []


def test_the_guard_sees_what_it_forbids(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import collections\n"
        "from collections import Counter\n"
        "from .corpus import Chunk\n"
        "def f(tok, c: Chunk):\n"
        "    return tok.surface, tok.pos, tok.lemma, tok.lemma_or_surface\n"
        "def g():\n"
        "    return collections.Counter()\n"
    )
    assert len(_offences(path)) == 8
    metrics = tmp_path / "metrics.py"
    metrics.write_text(
        "from .lexicons import PhraseList\n"
        "def h(corpus, sent, phrases: PhraseList):\n"
        "    index = phrases._index\n"
        "    i = 0\n"
        "    while i < len(sent.surfaces()):\n"
        "        i += 1\n"
        "    return corpus.tags(), sent.lemmas(), corpus.columns, index\n"
    )
    assert sorted(offence.split(" ", 1)[1] for offence in _offences(metrics)) == [
        "calls .lemmas()",
        "calls .surfaces()",
        "calls .tags()",
        "names _index",
        "scans positions",
    ]
    features = tmp_path / "features.py"
    features.write_text(
        "def k(chunk):\n"
        "    for sent in chunk.sentences:\n"
        "        yield sent.surfaces(), sent.lemmas()\n"
        "    yield from chunk.tags()\n"
        "    yield chunk.columns\n"
    )
    assert sorted(offence.split(" ", 1)[1] for offence in _offences(features)) == [
        "calls .lemmas()",
        "calls .surfaces()",
        "calls .tags()",
    ]
    pipeline = tmp_path / "pipeline.py"
    pipeline.write_text(
        "def stage(corpus):\n"
        "    first = corpus.sentences[0]\n"
        "    return first.surfaces(), corpus.tags(), corpus.columns.ptr, len(corpus)\n"
    )
    assert sorted(offence.split(" ", 1)[1] for offence in _offences(pipeline)) == [
        "calls .surfaces()",
        "calls .tags()",
        "reads .sentences",
    ]
