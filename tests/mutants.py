"""Mutation check of the chamber core, the numerics under it, observer
views and the protocol reader: tier-1 must fail on every mutant.

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
    ("quantum.py",
     "return ops @ matrices[:, None] @ ops.conj().swapaxes(-1, -2)",
     "return ops.conj().swapaxes(-1, -2) @ matrices[:, None] @ ops",
     "an outcome update, rotate's among them, maps rho to A rho A^dagger"),
    ("thermo.py",
     "    if len(rotation) != 1:\n"
     "        raise DomainError(",
     "    if False:\n"
     "        raise DomainError(",
     "rotate takes a rotation of one effect only"),
    ("thermo.py",
     "    ch = lab.chamber(chamber)\n"
     "    _check_povm_dim(lab, rotation)\n",
     "    ch = lab.chamber(chamber)\n",
     "rotate rejects a rotation of another dimension than the lab"),
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
    ("thermo.py",
     "passes_a = pa >= 1.0 - tol and pb <= tol",
     "passes_a = pa >= 1.0 - tol",
     "a mix effect passes one chamber only if it blocks the other"),
    ("observers.py",
     "Chamber(name, ch.volume, ch.moles,",
     "Chamber(name, ch.volume, ch.volume,",
     "a view chamber holds the lab chamber's moles"),
    ("observers.py",
     "None if ch.state is None else coarse_grain(obs, ch.state))",
     "ch.state)",
     "a view chamber holds the coarse-grained state"),
    ("observers.py",
     'object.__setattr__(self, "sector_isometries", stacked.reshape(v.shape))',
     'object.__setattr__(self, "sector_isometries", v)',
     "an observer keeps the polar factor of the sector stack it checked"),
    ("observers.py",
     "out = _updates(obs.sector_isometries, rho.matrix[None]).sum(1)",
     "out = _updates(obs.sector_isometries[:1], rho.matrix[None]).sum(1)",
     "coarse_grain sums over every sector"),
    ("observers.py",
     "v_dag = obs.sector_isometries.conj().swapaxes(-1, -2)",
     "v_dag = obs.sector_isometries",
     "lift_through lifts each effect by the dual channel, V^dag A V"),
    ("thermo.py",
     "            if ch.state is not None and ch.state.dim != self.lab_dim:\n"
     "                raise DimensionError(",
     "            if False:\n"
     "                raise DimensionError(",
     "a lab rejects a chamber whose state is not of its lab_dim"),
    ("thermo.py",
     "            if ch.name in chambers:\n"
     "                raise DomainError(",
     "            if False:\n"
     "                raise DomainError(",
     "a lab rejects a chamber name that repeats"),
    ("linalg.py",
     "            c = p @ c\n"
     "            c = c - kept @ (kept.conj().T @ c)\n",
     "",
     "canonical_basis projects and orthogonalizes a kept residual once more"),
    ("protocol.py",
     'y = -y if sign == "-" else y',
     "y = y",
     "a vector's a - bi and a + -bi negate their imaginary part as the tokens do"),
    ("linalg.py",
     "    if norm == 1.0:\n        return k\n",
     "    if norm >= 1.0:\n        return k\n",
     "as_ket passes through only a ket whose norm is exactly 1.0"),
    ("quantum.py",
     "    if ties:\n",
     "    if False:\n",
     "by eigenbasis rejects an aggregate with a degenerate kept eigenvalue"),
    ("quantum.py",
     "kept = w[w > linalg.PRUNE_TOL].tolist()",
     "kept = w.tolist()",
     "by eigenbasis allows ties among the eigenvalues it drops"),
    ("quantum.py",
     "kept = traces > linalg.PRUNE_TOL",
     "kept = traces >= linalg.PRUNE_TOL",
     "an outcome of probability at most PRUNE_TOL leaves no post state,"
     " so separate drops it"),
    ("audit.py",
     "tol * checkpoint.state.total_moles()",
     "tol",
     "the audit threshold on Q/T scales with the moles of the lab"),
    ("cli.py",
     '"true" if v.cycle_closed else "false"',
     '"false" if v.cycle_closed else "true"',
     "a records verdict says cycleClosed true exactly when the cycle closed"),
    ("protocol.py",
     'self.names["chamber"].discard(tok.text)',
     "pass",
     "a step uses up the chambers it reads, so they are no longer live"),
    ("protocol.py",
     '_LIST_AFTER = ("=", "[", ",")',
     '_LIST_AFTER = ("=", "[")',
     "every matrix row, not only the first, is read as one vector token"),
    ("thermo.py",
     "if not 0 < self.volume < math.inf:",
     "if not 0 <= self.volume < math.inf:",
     "a chamber's volume is positive, not zero"),
    ("thermo.py",
     "if not 0.0 < fraction < 1.0:",
     "if not 0.0 <= fraction <= 1.0:",
     "a partition's fraction lies strictly between 0 and 1"),
    ("observers.py",
     "if all(abs(np.vdot(obs, other)) <= linalg.ORTHONORMAL_TOL",
     "if all(abs(np.vdot(obs, other)) < 0.5",
     "a table row joins a sector only if its image is orthogonal to the"
     " sector's images"),
    ("cli.py",
     "        if config.observer is not None"
     " and config.observer not in result.observers:\n"
     '            return 1, "", f"error: no observer named {config.observer!r}\\n"\n',
     "",
     "--observer naming no declared observer exits 1 in every format"),
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
