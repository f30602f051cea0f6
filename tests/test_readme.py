"""The README's documented library usage and CLI walkthrough run as
written."""

import re
from pathlib import Path

from prekem.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library use)", "exec"), {})


def test_walkthrough_params_block(tmp_path, capsys):
    section = README.read_text().split("## CLI walkthrough", 1)[1]
    config = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    shown = re.search(r"```text\n\$ prekem params [^\n]*\n(.*?)```",
                      section, re.S).group(1)
    path = tmp_path / "config.json"
    path.write_text(config)
    assert main(["params", "--config", str(path), "--mode", "cea"]) == 0
    assert capsys.readouterr().out.splitlines() == shown.splitlines()


def test_game_harness_block(tmp_path, capsys):
    section = README.read_text().split("## The game harness", 1)[1]
    config = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    shown = re.search(r"```text\n\$ prekem game [^\n]*--seed 2a\n(.*?)```",
                      section, re.S).group(1)
    path = tmp_path / "games.json"
    path.write_text(config)
    assert main(["game", "--config", str(path), "--seed", "2a"]) == 0
    assert capsys.readouterr().out.splitlines() == shown.splitlines()
