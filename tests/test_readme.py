"""README's "Library quickstart" block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs_as_written(capsys):
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no python block under 'Library quickstart'"
    exec(compile(block.group(1), str(README), "exec"), {})
    # The block prints the four deltas' count changes at stride 10.
    assert capsys.readouterr().out.splitlines() == ["0.1305 7 -> 5", "0.2225 5 -> 3", "0.5655 3 -> 1"]
