"""The README's library example runs as printed, on synthetic corpora."""

import re
from pathlib import Path

from synthdata import variety_corpus
from varieties.corpus import write_jsonl

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "data").mkdir()
    for variety in ("N", "NN", "T"):
        write_jsonl(variety_corpus(variety, 1200, seed=4), tmp_path / "data" / f"{variety}.jsonl")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    # each plan's line starts with its families; the confusion matrix it
    # prints runs over the lines that follow
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("(")]
    assert len(printed) == 2
    assert printed[0].startswith("('FW',) ")
    assert printed[1].startswith("('FW', 'POS3') ")
