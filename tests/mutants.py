"""Mutation check of the chamber core: tier-1 must fail on every mutant.

Each entry of MUTANTS is (file under src/qgas, exact old text, new text,
the invariant the mutant breaks).  For each one the runner copies ``src/``
to a temporary directory, replaces the old text, which must occur exactly
once, and runs the tier-1 suite (``pytest -x -q``) against that copy.  It
exits 1 if a mutant survives, that is if the suite still passes, or if an
old text does not match exactly once.  It first runs the suite on an
unmutated copy and exits 1 if that fails, since no kill would then mean
anything.  pytest does not collect this file; run it from the repository
root:

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    ("thermo.py",
     "m = sum((moles / n) * rho.matrix for moles, rho in parts)",
     "m = sum((moles / n) * rho.matrix\n"
     "            for (moles, _), (_, rho) in zip(parts, parts[::-1]))",
     "the mean weights each state by its own moles"),
    ("thermo.py",
     "label = labels.pop() if len(labels) == 1 else None",
     "label = None",
     "a mean state keeps the label all its inputs share"),
    ("thermo.py",
     "u @ ch.state.matrix[None] @ u.conj().T",
     "u.conj().T @ ch.state.matrix[None] @ u",
     "rotate maps rho to u rho u^dagger"),
    ("thermo.py",
     "if fraction <= linalg.PRUNE_TOL:",
     "if fraction < linalg.PRUNE_TOL:",
     "separate drops an outcome whose share is at most PRUNE_TOL"),
    ("thermo.py",
     "Chamber(part_name, f * ch.volume, ch.moles * f, ch.state)",
     "Chamber(part_name, f * ch.volume, ch.moles * fraction, ch.state)",
     "partition gives each side its own share of the moles"),
    ("thermo.py",
     "    n = sum(moles for moles, _ in parts)\n"
     "    _check_moles(name, n, True)\n",
     "    n = sum(moles for moles, _ in parts)\n",
     "the mole sum is checked before the mean is formed"),
    ("thermo.py",
     "merged = _mean_chamber(name, cha.volume + chb.volume,",
     "merged = _mean_chamber(name, cha.volume + cha.volume,",
     "join's chamber has the volume of both"),
    ("thermo.py",
     "passes_a = pa >= 1.0 - tol and pb <= tol",
     "passes_a = pa >= 1.0 and pb <= tol",
     "mix allows round-off of tol below certainty"),
]


def suite_passes(src: Path) -> bool:
    """Whether tier-1 passes with ``src`` as the qgas it imports."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # the copy, not an installed qgas, must be the one the suite imports
    where = subprocess.run([sys.executable, "-c", "import qgas; print(qgas.__file__)"],
                           env=env, capture_output=True, text=True, cwd=ROOT)
    if not where.stdout.startswith(str(src)):
        sys.exit(f"the suite imports {where.stdout.strip()!r}, not the copy in {src}")
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return tests.returncode == 0


def fresh_copy(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="qgas-mutants-") as tmp:
        if not suite_passes(fresh_copy(Path(tmp))):
            print("tier-1 fails on the unmutated copy; no mutant was run")
            return 1
        for path, old, new, invariant in MUTANTS:
            target = fresh_copy(Path(tmp)) / "qgas" / path
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                status, detail = "broken", f" (old text occurs {text.count(old)} times)"
            else:
                target.write_text(text.replace(old, new), encoding="utf-8")
                passes = suite_passes(target.parent.parent)
                status, detail = ("survived" if passes else "killed"), ""
            print(f"{status:<9} {path}: {invariant}{detail}", flush=True)
            failed += status != "killed"
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
