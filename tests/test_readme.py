"""The README's examples, run: every `crpencils` command of its shell blocks
through cli.main, and its Python block as a doctest, so that a README that
drifts from the code fails here.  CI runs the same commands, picked by the
same rule, through the installed `crpencils` script."""

import doctest
import re
import shlex
from pathlib import Path

from crpencils import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(language: str) -> list[str]:
    """The fenced code blocks of the README in one language, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    commands = [shlex.split(line, comments=True)[1:] for block in blocks("sh")
                for line in block.splitlines() if line.startswith("crpencils ")]
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = cli.main(argv)
        assert code == 0, f"crpencils {shlex.join(argv)} exited {code}: {capsys.readouterr().err}"
        capsys.readouterr()


def test_readme_library_example_shows_what_it_computes():
    (block,) = blocks("python")
    lines = block.splitlines()
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    # every line is an example or the value it shows
    assert lines[0].startswith(">>> ")
    assert sum(e.source.count("\n") + e.want.count("\n") for e in test.examples) == len(lines)
    report = []
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
