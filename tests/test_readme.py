"""The README's library tour runs as written, so an API change that leaves it
stale fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)  # the tour writes t.csv and borel.csv
    exec(compile(blocks[0], str(README), "exec"), {})
    assert (tmp_path / "t.csv").exists() and (tmp_path / "borel.csv").exists()
