"""Output oracles: every run's output is checked here, never trusted.

The checks read the program's text output with their own small parsers,
so a bug in qgas's record rendering or parsing cannot hide itself.  Each
check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import hashlib
import math
import re

# sha256 of `qgas demo <name> --format records`, pinned from the commit
# that introduced the benchmark
RECORDS_SHA256 = {
    "perfect-separation":
        "74f70eb7342274cedf6b83becf6a1a2c90e2049507b64177cc0f8646d62ed07a",
    "partial-separation":
        "649c0422506711571daa50619036012a8fa08a8ec9400e2385d53e016167d9dc",
    "peres-tatiana":
        "4dc4af11b5b3b82a64e10c96b3f01262067ffc1e00c84856df4b0d5d4da0674c",
    "peres-willard":
        "ef3a50807db30c256447aa7c03e01540bd861e3a982b0bc0a54681b97205e6d3",
    "jaynes-johann":
        "19ddb3a854edf55886ec15c14ec46da0e4b896557db470e518a94cde646dbff5",
    "jaynes-marie":
        "3b611b6ac6c9568d53a3364fd28a9cd0b626a762160706fa8ed47fdd11ea3aa4",
}

# sha256 of `qgas demo <name>` (table) after normalize_table(), pinned from
# the same commit
TABLE_SHA256 = {
    "perfect-separation":
        "96d443c6cf1213abbffb6bd1febacd11899eff5e575777ac4e0168b064ac8c2e",
    "partial-separation":
        "fa550703020a073060b2333245090fae0bc9ee16ba9ef27b59a7a957d0160b73",
    "peres-tatiana":
        "002e883a6c67551fab26c70223b053e1609a90ffb98b68dae267bccfec13e4ce",
    "peres-willard":
        "981e97827764f3d63c91a0a271476a2a2787c291fad0dec26cbaafe2aa208753",
    "jaynes-johann":
        "7ee02d98df9c7f387a62303cb91daae126632e23e2ed7299383ded76751ebf1a",
    "jaynes-marie":
        "6416d4894df26753c6f931602440b876603267fea078f9580ae682a59e01ddca",
}

# sha256 of `qgas list-demos`, pinned from the same commit
LIST_DEMOS_SHA256 = \
    "21cb87a976e90c5c18bd242bbd26fbf692ea9cf923aade83bff9d4a31276463c"

# the fully informed observer of each demo: it must never report a violation
IDENTITY_OBSERVERS = {"peres-tatiana": "willard", "peres-willard": "willard",
                      "jaynes-johann": "marie", "jaynes-marie": "marie"}

_P_HI = (2 + math.sqrt(2)) / 4
_LN2 = math.log(2)
# the README's closed forms: ln 2, 0.4164955, 0.2766516 and 0
_PARTIAL_SEPARATION = _P_HI * math.log(_P_HI) + (1 - _P_HI) * math.log(1 - _P_HI)
CLOSED_FORM_TOL = 1e-9

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_FIELD = re.compile(r'(\w+)=("(?:[^"\\]|\\.)*"|\S+)')
_WEIGHT = re.compile(r"([-+]?[\d.]+(?:e[-+]?\d+)?) \* \(")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def normalize_table(text: str) -> str:
    """Table output with the numbers of the 'final views' section that are
    below 1e-9 in magnitude written as 0.  Eigensolvers differ in such
    round-off (7.66e-18, -0), which is not part of the result."""
    head, sep, views = text.partition("final views:")

    def snap(m: re.Match) -> str:
        return "0" if abs(float(m.group(0))) < 1e-9 else m.group(0)

    return head + sep + _NUMBER.sub(snap, views)


def parse_output(text: str, fmt: str):
    """(events, verdicts, views) from table or records output.

    events: (kind, q_text, w_text); verdicts: dicts of the verdict fields;
    views: {observer: {chamber: line}} (table format only).
    """
    events, verdicts, views = [], [], {}
    if fmt == "records":
        for line in text.splitlines():
            kind, _, rest = line.partition(" ")
            fields = {m.group(1): m.group(2) for m in _FIELD.finditer(rest)}
            if kind == "event":
                events.append((fields["kind"], fields["q"], fields["w"]))
            elif kind == "verdict":
                verdicts.append(fields)
            else:
                raise ValueError(f"unknown record {line[:40]!r}")
        return events, verdicts, views
    section, observer = None, None
    for line in text.splitlines():
        if line in ("ledger:", "verdicts:", "final views:"):
            section = line
            continue
        if section == "ledger:":
            cols = line.split()
            if cols[0] != "step":
                events.append((cols[1], cols[2], cols[3]))
        elif section == "verdicts:":
            verdicts.append({m.group(1): m.group(2)
                             for m in _FIELD.finditer(line)})
        elif section == "final views:":
            if line.startswith("  observer "):
                observer = line.strip()[len("observer "):-1]
                views[observer] = {}
            else:
                name, _, rest = line.strip().partition(": ")
                views[observer][name] = rest
    return events, verdicts, views


def _common(events, verdicts, identity) -> list[str]:
    problems = []
    for i, (kind, q, w) in enumerate(events):
        if q != w:
            problems.append(f"event {i} ({kind}): q={q} != w={w}")
    for v in verdicts:
        if v.get("observer") == identity and \
                v.get("classification") == "apparent_violation":
            problems.append(f"identity observer {identity} reports a violation")
    return problems


def _close(value: float, target: float, tol: float = CLOSED_FORM_TOL) -> bool:
    return abs(value - target) <= tol


def check_demo(name: str, fmt: str, text: str) -> list[str]:
    """Pinned hash, closed forms and ledger invariants of one demo."""
    if fmt == "records":
        if sha256(text) != RECORDS_SHA256[name]:
            return [f"{name}: records differ from the pinned sha256"]
    elif sha256(normalize_table(text)) != TABLE_SHA256[name]:
        return [f"{name}: table differs from the pinned sha256"]
    events, verdicts, _ = parse_output(text, fmt)
    problems = _common(events, verdicts, IDENTITY_OBSERVERS.get(name))
    qs = {kind: float(q) for kind, q, _ in events}
    last = {v["observer"]: v for v in verdicts}
    if name == "perfect-separation" and not _close(qs["separate"], -_LN2):
        problems.append("perfect-separation: separation heat is not -ln 2")
    if name == "partial-separation" and \
            not _close(qs["separate"], _PARTIAL_SEPARATION):
        problems.append("partial-separation: separation heat is not -0.4164955")
    if name == "peres-tatiana":
        v = last["tatiana"]
        if not _close(float(v["qTotal"]), _LN2 + _PARTIAL_SEPARATION) or \
                v["classification"] != "apparent_violation":
            problems.append("peres-tatiana: tatiana's balance is not 0.2766516")
    if name == "peres-willard":
        v = last["willard"]
        if not _close(float(v["qTotal"]), _PARTIAL_SEPARATION) or \
                v["classification"] != "consistent":
            problems.append("peres-willard: the closed cycle does not net"
                            " -0.4164955")
    if name == "jaynes-johann":
        v = last["johann"]
        if not _close(float(v["qTotal"]), _LN2) or \
                v["classification"] != "apparent_violation":
            problems.append("jaynes-johann: johann's balance is not ln 2")
    if name == "jaynes-marie":
        v = last["marie"]
        if not _close(float(v["qTotal"]), 0.0) or v["classification"] != "consistent":
            problems.append("jaynes-marie: the closed cycle does not net 0")
    return problems


def check_list_demos(text: str) -> list[str]:
    if sha256(text) != LIST_DEMOS_SHA256:
        return ["list-demos differs from the pinned sha256"]
    return []


def check_generated(proto, text: str) -> list[str]:
    """Ledger, verdicts and (eigen-d8) final views of a generated protocol
    against the expectations its generator computed."""
    events, verdicts, views = parse_output(text, proto.fmt)
    problems = _common(events, verdicts, "id")
    kinds = [k for k, _, _ in events]
    if kinds != [k for k, _ in proto.events]:
        return problems + [f"{proto.name}: ledger steps differ from the script"]
    for i, ((_, q, _), (kind, want)) in enumerate(zip(events, proto.events)):
        if not _close(float(q), want):
            problems.append(f"{proto.name}: event {i} ({kind}) q={q}, want {want!r}")
    q_total = sum(q for _, q in proto.events)
    got = {v["observer"]: v for v in verdicts}
    if sorted(got) != sorted(proto.verdicts):
        return problems + [f"{proto.name}: verdicts for {sorted(got)}"]
    for observer, allowed in proto.verdicts.items():
        v = got[observer]
        if v["classification"] not in allowed:
            problems.append(f"{proto.name}: {observer} says {v['classification']}")
        if not _close(float(v["qTotal"]), q_total):
            problems.append(f"{proto.name}: {observer} qTotal={v['qTotal']},"
                            f" want {q_total!r}")
    if proto.spectrum is not None:
        problems += _check_spectrum(proto, views)
    return problems


def _check_spectrum(proto, views) -> list[str]:
    """The identity observer's final view of the joined chamber is the
    fill's eigen-mixture (rotations keep the spectrum, joins restore the
    aggregate); the blind observer sees one pure state."""
    line = views.get("id", {}).get("cell", "")
    if not line.startswith("V=1 n=1 "):
        return [f"{proto.name}: final chamber is not V=1 n=1"]
    weights = [float(w) for w in _WEIGHT.findall(line)]
    if len(weights) != len(proto.spectrum) or any(
            abs(w - lam) > 1e-5 * lam for w, lam in zip(weights, proto.spectrum)):
        return [f"{proto.name}: final spectrum {weights} != {proto.spectrum}"]
    if views.get("blind", {}).get("cell") != "V=1 n=1  1 * (1)":
        return [f"{proto.name}: blind observer's final view is wrong"]
    return []
