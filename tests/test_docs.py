"""The README's library quickstart and the docstring examples run as written."""

import doctest
import re
from pathlib import Path

from ordpat import extract_pattern
from ordpat.cli import write_csv
from ordpat.synth import gaussian_walk_pair

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    spx, vix = gaussian_walk_pair(600, 12)
    write_csv(spx, tmp_path / "spx.csv", "date", "close")
    write_csv(vix, tmp_path / "vix.csv", "date", "close")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    # One line for analyze_pair, five for the delays -2..2, one for rolling.
    assert len(capsys.readouterr().out.splitlines()) == 7


def test_extract_pattern_docstring_examples():
    (test,) = doctest.DocTestFinder().find(extract_pattern, globs={"extract_pattern": extract_pattern})
    assert doctest.DocTestRunner().run(test) == (0, 2)
