"""The README's command lines, config example and library example run as
written."""

import json
import shlex
from pathlib import Path

from geonorm.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang):
    """The first ``lang`` code block after a README heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_config_example_runs(tmp_path) -> None:
    cfg = tmp_path / "exp.json"
    cfg.write_text(_block("### Config format", "json"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    tasks = json.loads(cfg.read_text())["tasks"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{i:03d}_{t['op']}.{'csv' if t['op'] == 'energy' else 'json'}"
         for i, t in enumerate(tasks)] + ["report.json"])


def test_command_line_examples_run(tmp_path, monkeypatch) -> None:
    # each line of the block runs in a directory holding the config
    # example as exp.json
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.json").write_text(_block("### Config format", "json"))
    lines = _block("## Command line", "sh").splitlines()
    assert len(lines) == 5
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "geonorm"
        assert main(argv[1:]) == 0, line


def test_library_example_gives_its_commented_values() -> None:
    # a line that is an expression followed by a comment states its value
    # at the start of the comment
    scope, checked = {}, 0
    for line in _block("## Library example", "python").splitlines():
        code, _, comment = line.partition("  # ")
        try:
            expr = compile(code, "README", "eval")
        except SyntaxError:
            exec(code, scope)
            continue
        assert comment.startswith(repr(eval(expr, scope))), line
        checked += 1
    assert checked == 2
