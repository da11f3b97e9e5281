import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# what each walkthrough prints, one text file per demo
PINNED = Path(__file__).resolve().parent / "demo_output"


def test_demos_found():
    assert len(DEMOS) >= 6
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_script_runs(path):
    # the walkthroughs use the public API; a removal that breaks one, or a
    # change to what it prints, fails here
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue() == (PINNED / f"{path.stem}.txt").read_text(encoding="utf-8")
