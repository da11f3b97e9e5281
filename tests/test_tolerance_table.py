"""Every numerical threshold of qgas is a named entry of the one tolerance
table at the top of ``linalg.py``: no other line of the package writes a
float literal with a negative exponent."""

import re
import tokenize
from pathlib import Path

import qgas

PACKAGE = Path(qgas.__file__).parent
NEGATIVE_EXPONENT = re.compile(r"[eE]-")


def table_block() -> tuple[int, int]:
    """First and last line of the table in linalg.py (0, 0 if it is gone)."""
    lines = (PACKAGE / "linalg.py").read_text(encoding="utf-8").splitlines()
    start = next((i for i, line in enumerate(lines, 1)
                  if line.startswith("# Tolerances")), 0)
    end = next((i for i, line in enumerate(lines, 1)
                if line.startswith("MAX_TOL =")), 0)
    return start, end


def test_thresholds_live_only_in_the_linalg_table():
    start, end = table_block()
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        with tokenize.open(path) as source:
            for tok in tokenize.generate_tokens(source.readline):
                if tok.type != tokenize.NUMBER or not NEGATIVE_EXPONENT.search(tok.string):
                    continue
                if path.name == "linalg.py" and start <= tok.start[0] <= end:
                    continue
                offenders.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not offenders, (
        "thresholds outside the tolerance table in linalg.py:\n" + "\n".join(offenders)
    )
