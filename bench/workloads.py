"""Seeded inputs for the benchmark workloads.

Each generator returns protocol text plus the expectations its oracle needs:
the ledger it must produce, computed here independently of qgas (closed
forms and ``numpy.linalg.eigvalsh``), and the verdicts it must reach.
The same seed always gives the same text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEMO_NAMES = (
    "perfect-separation",
    "partial-separation",
    "peres-tatiana",
    "peres-willard",
    "jaynes-johann",
    "jaynes-marie",
)

# Each workload's protocols differ in length, so that its run times spread
# out instead of forming one spike; a median over them then moves smoothly
# with the speed of the machine.  Their number is odd, so that the median
# falls inside one protocol's run times, not in the gap between two.

# eigen-d8: protocol i runs i + 1 eigenbasis rounds in dim 8
D8_DIM = 8
D8_PROTOCOLS = 9
MIN_OVERLAP = 1e-4

# long-script: chamber pairs and random bases per protocol; protocol i runs
# LS_BLOCKS0 + i * LS_BLOCKS_STEP closed blocks
LS_PAIRS = 3
LS_BASES = 4
LS_BLOCKS0 = 40
LS_BLOCKS_STEP = 20
LS_PROTOCOLS = 9


@dataclass
class Protocol:
    """Generated protocol text with what a correct run must report."""

    name: str
    text: str
    fmt: str
    #: (kind, q) per ledger event, in order
    events: list[tuple[str, float]] = field(default_factory=list)
    #: observer -> allowed classifications of its verdict
    verdicts: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: eigen-d8 only: spectrum of the fill's aggregate, descending
    spectrum: list[float] | None = None


def _fmt(x: float) -> str:
    return repr(float(x))


def _ket(v) -> str:
    parts = []
    for z in v:
        re_, im = float(z.real), float(z.imag)
        if im == 0:
            parts.append(_fmt(re_))
        elif im < 0:
            parts.append(f"{_fmt(re_)}-{_fmt(-im)}i")
        else:
            parts.append(f"{_fmt(re_)}+{_fmt(im)}i")
    return "[" + ", ".join(parts) + "]"


def _random_unitary(rng, dim: int) -> np.ndarray:
    c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(c)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _weights(rng, count: int) -> list[float]:
    w = rng.uniform(0.5, 1.5, size=count)
    w = [float(x) for x in w / w.sum()]
    w[-1] = 1.0 - sum(w[:-1])
    return w


def eigen_d8(rng, index: int) -> Protocol:
    """Eight random pure gases in dim 8, separated by eigenbasis into eight
    chambers, joined back and rotated into a random basis, for ``index + 1``
    rounds, then audited by the identity observer and a blind observer.

    Every separation releases the entropy of the fill's aggregate state,
    because joins restore the aggregate and rotations keep its spectrum.
    """
    dim, rounds = D8_DIM, index + 1
    while True:
        gases = [_random_unitary(rng, dim)[:, 0] for _ in range(dim)]
        weights = _weights(rng, dim)
        aggregate = sum(w * np.outer(g, g.conj()) for w, g in zip(weights, gases))
        values, vectors = np.linalg.eigh(aggregate)
        overlaps = np.abs(vectors.conj().T @ np.array(gases).T) ** 2
        # Every eigen-chamber must carry real weight, or the joins that
        # follow would name a chamber the separation never made.  Every gas
        # must also overlap every eigenvector: qgas divides the measured
        # state by its outcome probability p, which scales the round-off in
        # its Hermiticity by 1/p, and rejects the post-measurement state
        # once p is near 1e-6 (a known defect, kept out of this workload).
        if values.min() > 1e-3 and overlaps.min() > MIN_OVERLAP:
            break
    spectrum = sorted(values, reverse=True)
    q_sep = float(sum(lam * math.log(lam) for lam in spectrum))

    lines = [f"space lab dim {dim}", "temp 1.0", "ket one = [1]"]
    eye = np.eye(dim)
    lines += [f"ket e{i} = {_ket(eye[i])}" for i in range(dim)]
    lines += [f"ket g{i} = {_ket(g)}" for i, g in enumerate(gases)]
    for r in range(rounds):
        u = _random_unitary(rng, dim)
        lines += [f"ket u{r}_{i} = {_ket(u[:, i])}" for i in range(dim)]
    lines += [f"gas G{i} from ket g{i}" for i in range(dim)]
    ident = ", ".join(f"e{i} -> e{i}" for i in range(dim))
    blind = ", ".join(f"e{i} -> one" for i in range(dim))
    lines.append(f"observer id table {{ {ident} }} dim {dim}")
    lines.append(f"observer blind table {{ {blind} }} dim 1")
    lines.append("chamber cell volume 1.0")
    parts = ", ".join(f"G{i} : {_fmt(w)}" for i, w in enumerate(weights))
    lines.append(f"fill cell {{ {parts} }} moles 1.0")

    events = [("checkpoint", 0.0)]
    lines.append("checkpoint start")
    chambers = " ".join(f"c{i}" for i in range(dim))
    for r in range(rounds):
        lines.append(f"separate cell by eigenbasis into {chambers}")
        events.append(("separate", q_sep))
        acc = "c0"
        for i in range(1, dim):
            into = "cell" if i == dim - 1 else f"t{i}"
            lines.append(f"join {acc} c{i} into {into}")
            events.append(("join", 0.0))
            acc = into
        rot = ", ".join(f"e{i} -> u{r}_{i}" for i in range(dim))
        lines.append(f"rotate cell map {{ {rot} }}")
        events.append(("rotate", 0.0))
    lines += ["audit id from start", "audit blind from start"]
    return Protocol(
        name=f"eigen-d8-{index}",
        text="\n".join(lines) + "\n",
        fmt="table",
        events=events,
        # the rotated aggregate differs from the fill, so the identity
        # observer may see an open cycle; it must never see a violation
        verdicts={"id": ("open_cycle", "consistent"), "blind": ("consistent",)},
        spectrum=[float(x) for x in spectrum],
    )


def long_script(rng, index: int) -> Protocol:
    """A long dim-2 script of closed blocks over a few chamber pairs.

    Chamber a_p holds z+ gas and b_p holds z- gas, each at unit pressure.
    A block mixes and re-separates a pair (in the z basis or in a random
    rotated basis), or partitions and re-joins one chamber, so the lab
    returns to its starting state after every block and the whole script
    is a closed cycle with zero net heat.  No step needs an eigensolver.
    """
    lines = ["space lab dim 2", "temp 1.0", "ket one = [1]",
             "ket z+ = [1, 0]", "ket z- = [0, 1]"]
    for k in range(LS_BASES):
        u = _random_unitary(rng, 2)
        lines.append(f"ket u{k}+ = {_ket(u[:, 0])}")
        lines.append(f"ket u{k}- = {_ket(u[:, 1])}")
    lines += ["gas up from ket z+", "gas down from ket z-",
              "observer id table { z+ -> z+, z- -> z- } dim 2",
              "observer blind table { z+ -> one, z- -> one } dim 1"]
    moles = []
    for p in range(LS_PAIRS):
        na, nb = (float(x) for x in rng.uniform(0.2, 1.0, size=2))
        moles.append((na, nb))
        lines += [f"chamber a{p} volume {_fmt(na)}",
                  f"chamber b{p} volume {_fmt(nb)}",
                  f"fill a{p} {{ up : 1.0 }} moles {_fmt(na)}",
                  f"fill b{p} {{ down : 1.0 }} moles {_fmt(nb)}"]

    events = [("checkpoint", 0.0)]
    lines.append("checkpoint start")
    # equal numbers of each block kind, so every seed asks for the same work
    blocks = LS_BLOCKS0 + index * LS_BLOCKS_STEP
    kinds = rng.permutation([k % 3 for k in range(blocks)])
    for kind in kinds:
        p = int(rng.integers(LS_PAIRS))
        a, b = f"a{p}", f"b{p}"
        na, nb = moles[p]
        q_mix = na * math.log((na + nb) / na) + nb * math.log((na + nb) / nb)
        if kind == 0:
            lines += [f"mix {a} {b} into m by povm {{ z+, z- }}",
                      f"separate m by povm {{ z+, z- }} into {a} {b}"]
            events += [("mix", q_mix), ("separate", -q_mix)]
        elif kind == 1:
            side = a if rng.integers(2) == 0 else b
            f = _fmt(rng.uniform(0.2, 0.8))
            lines += [f"partition {side} at {f} into s1 s2",
                      f"join s1 s2 into {side}"]
            events += [("partition", 0.0), ("join", 0.0)]
        else:
            k = int(rng.integers(LS_BASES))
            f = _fmt(rng.uniform(0.2, 0.8))
            fwd = f"{{ z+ -> u{k}+, z- -> u{k}- }}"
            back = f"{{ u{k}+ -> z+, u{k}- -> z- }}"
            lines += [f"rotate {a} map {fwd}", f"rotate {b} map {fwd}",
                      f"mix {a} {b} into m by povm {{ u{k}+, u{k}- }}",
                      f"partition m at {f} into s1 s2",
                      "join s1 s2 into m",
                      f"separate m by povm {{ u{k}+, u{k}- }} into {a} {b}",
                      f"rotate {a} map {back}", f"rotate {b} map {back}"]
            events += [("rotate", 0.0), ("rotate", 0.0), ("mix", q_mix),
                       ("partition", 0.0), ("join", 0.0), ("separate", -q_mix),
                       ("rotate", 0.0), ("rotate", 0.0)]
    lines += ["audit id from start", "audit blind from start"]
    return Protocol(
        name=f"long-script-{index}",
        text="\n".join(lines) + "\n",
        fmt="records",
        events=events,
        verdicts={"id": ("consistent",), "blind": ("consistent",)},
    )


GENERATORS = {
    "eigen-d8": (eigen_d8, D8_PROTOCOLS),
    "long-script": (long_script, LS_PROTOCOLS),
}


def generate(workload: str, seed: int) -> list[Protocol]:
    """The seeded protocols of a generated workload."""
    make, count = GENERATORS[workload]
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    return [make(rng, i) for i in range(count)]
