"""README's examples run as written against the package, so the
documented API and commands cannot drift from the code."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

from slanc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, language: str) -> str:
    match = re.search(rf"^## {heading}\n.*?^```{language}\n(.*?)^```",
                      README.read_text("utf-8"), flags=re.DOTALL | re.MULTILINE)
    assert match, f"README has no {language} block under '## {heading}'"
    return match.group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_block("Library", "python"), str(README), "exec"), namespace)
    assert list(namespace["result"].audit) == namespace["model"].norm_ids


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [line.strip() for line in _block("Command line", "sh").replace("\\\n", " ")
             .splitlines()]
    commands = [shlex.split(line) for line in lines if line and not line.startswith("#")]
    assert [argv[:2] for argv in commands] == [
        ["slanc", "gen-model"], ["slanc", "scales"], ["slanc", "audit"],
        ["slanc", "audit"], ["slanc", "compare"]]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    compare = capsys.readouterr().out.splitlines()[-3:]
    # Layer 0's MLP-side norm overflows on every token; its inf sum then
    # zeroes every later norm's input.
    plain = json.loads((tmp_path / "plain.json").read_text())["norms"]
    assert [n["overflow_count"] for n in plain] == [0, 512, 0, 0, 0, 0, 0, 0]
    assert [n["histogram"]["below"] for n in plain[2:]] == [512] * 6
    scaled = json.loads((tmp_path / "scaled.json").read_text())["norms"]
    assert all(n["overflow_count"] == n["underflow_count"] == 0 for n in scaled)
    assert [row.split()[0] for row in compare] == ["FP64", "FP16", "FP16+SLaNC"]
    _, median, _, overflows, _ = compare[1].split()
    assert (round(float(median), 3), int(overflows)) == (0.678, 512)
    _, median, _, overflows, _ = compare[2].split()
    assert (round(float(median), 5), int(overflows)) == (0.00189, 0)
