import contextlib
import io
import re
from pathlib import Path

import pytest

from qgas.cli import CliConfig, run_command
from qgas.protocol import execute, parse

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# (language, body) of every fenced block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]
PROTOCOLS = [body for _, body in BLOCKS if body.startswith("space ")]
SAMPLE_RECORDS = [line for lang, body in BLOCKS if not lang
                  for line in body.splitlines()
                  if line.startswith(("event ", "verdict "))]


def test_readme_has_examples():
    assert PYTHON
    assert len(SAMPLE_RECORDS) == 2
    assert PROTOCOLS


@pytest.mark.parametrize("body", PYTHON, ids=lambda b: f"{len(b.splitlines())}-lines")
def test_python_block_runs_and_prints_what_it_says(body):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(body, "README.md", "exec"), {})
    # a print's trailing "# value..." comment is a prefix of the line it prints
    promised = re.findall(r"^print\(.*\)\s*#\s*(\S+?)(?:\.\.\.)?$", body, re.MULTILINE)
    printed = out.getvalue().splitlines()
    assert len(printed) == len(promised)
    for line, prefix in zip(printed, promised):
        assert line.startswith(prefix)


@pytest.mark.parametrize("body", PROTOCOLS, ids=lambda b: f"{len(b.splitlines())}-lines")
def test_protocol_block_parses_and_executes(body):
    execute(parse(body))


def test_sample_records_are_real_output():
    code, out, err = run_command(CliConfig("demo", "peres-tatiana", "records"))
    assert code == 0, err
    lines = out.splitlines()
    for record in SAMPLE_RECORDS:
        assert record in lines
