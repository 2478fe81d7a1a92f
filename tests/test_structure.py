"""Structure guard: ``corpus`` is the only module that reads token fields
or counts keys with ``collections.Counter``.

Every other module sees sentence content through
``AnnotatedSentence.surfaces()``/``lemmas()`` and ``Corpus.tags()``, so how a
sentence stores its tokens can change inside ``corpus.py`` alone. Count
tables have one home too: other modules count keys per row through
``corpus.KeyCounts``.
"""

import ast
from pathlib import Path

import varieties

TOKEN_FIELDS = {"surface", "pos", "lemma", "lemma_or_surface"}
FORBIDDEN_NAMES = {"Chunk", "Counter"}
PACKAGE = Path(varieties.__file__).parent


def _offences(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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
    return found


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
