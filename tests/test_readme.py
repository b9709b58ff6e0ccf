"""The README's library example and CLI examples run against the current code."""

import contextlib
import io
import json
import re
import shlex
import shutil
from pathlib import Path

from bayent.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden"


def test_library_example_prints_its_stated_result():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    assert "# True 1" in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == "True 1\n"


def test_cli_examples_run_and_give_a_verdict(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)[1].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("bayent ")]
    for name, saved in [("world.json", "world.json"), ("scenario.json", "scenario.json"),
                        ("structure_ab.json", "order.json")]:
        shutil.copy(GOLDEN / name, tmp_path / saved)
    monkeypatch.chdir(tmp_path)
    codes = []
    for argv in commands:
        codes.append(main(argv[1:]))
        captured = capsys.readouterr()
        assert captured.err == ""
        json.loads(captured.out)
    assert codes == [0, 0, 1, 1, 1, 1, 1, 0, 0, 1]
