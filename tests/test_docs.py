"""The README's command transcript and the demo scripts, run as written."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from uns import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(cli.__file__).resolve().parent.parent)


def _transcript():
    """(command line, expected stdout) for each `$ uns ...` line of the
    README: the output is the lines below it, up to the next command or the
    end of its code block."""
    examples, command = [], None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("$ uns "):
            command = line[2:]
            examples.append((command, []))
        elif line.startswith("```"):
            command = None
        elif command is not None:
            examples[-1][1].append(line)
    return [(command, "".join(out + "\n" for out in lines)) for command, lines in examples]


EXAMPLES = _transcript()


def test_the_readme_shows_every_example():
    assert len(EXAMPLES) == 13


@pytest.mark.parametrize("command, out", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_each_readme_example_prints_what_it_shows(capsys, command, out):
    cli.run(shlex.split(command)[1:])
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem)
def test_each_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-s", str(demo)], capture_output=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
