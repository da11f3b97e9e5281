"""Line-oriented protocol language: parser, renderer, and interpreter.

A protocol first declares the stage (space, kets, gases, observers,
chambers, fills), then scripts membrane steps over it.  Grammar, one
statement per line, '#' comments, whitespace-insensitive within a line:

    space ID dim INT                      temp REAL
    ket ID = [ complex, ... ]
    gas ID from ket ID                    gas ID matrix [[c, ...], ...]
    observer ID table { ID -> ID, ... } dim INT
    chamber ID volume REAL
    fill ID { ID : REAL, ... } moles REAL

    mix ID ID into ID by povm-ref
    separate ID by (eigenbasis | povm-ref) into ID ID...
    rotate ID map { ID -> ID, ... }
    partition ID at REAL into ID ID
    join ID ID into ID
    checkpoint ID
    assert-closed ID from ID
    audit ID from ID

    povm-ref := povm [lift OBSERVER] { ID, ID, ... }
    complex  := REAL | REAL (+|-) REAL i

A povm-ref names kets whose rank-one projectors form the membranes; with
``lift`` the kets live in the named observer's space and the projectors are
lifted to the lab space through the dual of that observer's channel.
Identifiers must be declared before use and all declarations must precede
the first step.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

import numpy as np

from .audit import Verdict, audit as run_audit
from .errors import (
    AssertClosedError,
    DomainError,
    ParseError,
    ProtocolRuntimeError,
    QgasError,
    ShapeError,
)
from .observers import (
    Observer,
    build_observer,
    equivalence_mismatch,
    lift_through,
)
from .quantum import Povm, StatisticalMatrix, optimal_separation_povm
from .thermo import (
    Chamber,
    GasComponent,
    LabState,
    Ledger,
    canonical_contents,
)
from . import linalg, thermo

KEYWORDS = frozenset(
    "space dim temp ket gas from matrix observer table chamber volume fill"
    " moles mix into by separate eigenbasis rotate map partition at join"
    " checkpoint assert-closed audit povm lift".split()
)


# ---------------------------------------------------------------------------
# tokens

class _Token(NamedTuple):
    kind: str  # id | number | punct | arrow | sign
    text: str
    line: int
    column: int
    value: float = 0.0
    imag: bool = False
    signed: bool = False


_NUMBER_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?(i?)")
_PUNCT = set("{}[],:=")


def _tokenize(text: str, lineno: int) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r":
            i += 1
            continue
        if c == "#":
            break
        col = i + 1
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("arrow", "->", lineno, col))
            i += 2
            continue
        if c in _PUNCT:
            tokens.append(_Token("punct", c, lineno, col))
            i += 1
            continue
        if c.isdigit() or c == "." or (
            c in "+-" and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")
        ):
            start = i
            sign = 1.0
            signed = False
            if c in "+-":
                signed = True
                sign = -1.0 if c == "-" else 1.0
                i += 1
            m = _NUMBER_RE.match(text, i)
            if not m:
                raise ParseError(lineno, col, "malformed number", text[start:start + 8])
            i = m.end()
            value = sign * float(m.group(1) + (m.group(2) or ""))
            if not math.isfinite(value):
                raise ParseError(lineno, col, "non-finite number", text[start:i])
            tokens.append(
                _Token("number", text[start:i], lineno, col, value,
                       imag=bool(m.group(3)), signed=signed)
            )
            continue
        if c in "+-":
            tokens.append(_Token("sign", c, lineno, col))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n:
                ch = text[j]
                if ch.isalnum() or ch in "_+":
                    j += 1
                elif ch == "-" and not (j + 1 < n and text[j + 1] == ">"):
                    j += 1
                else:
                    break
            tokens.append(_Token("id", text[i:j], lineno, col))
            i = j
            continue
        raise ParseError(lineno, col, "unexpected character", c)
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str, token: _Token | None = None):
        if token is None:
            token = self.peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else None
            col = (last.column + len(last.text)) if last else 1
            raise ParseError(self.lineno, col, message)
        raise ParseError(token.line, token.column, message, token.text)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of line")
        self.pos += 1
        return tok

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "punct" and tok.text == ch

    def expect_punct(self, ch: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "punct" or tok.text != ch:
            self.error(f"expected {ch!r}")
        return self.take()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "id" or tok.text != word:
            self.error(f"expected keyword {word!r}")
        return self.take()

    def expect_name(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "id":
            self.error(f"expected {what}")
        if tok.text in KEYWORDS:
            self.error(f"{tok.text!r} is a reserved word, not a valid {what}")
        return self.take()

    def expect_arrow(self) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != "arrow":
            self.error("expected '->'")
        return self.take()

    def expect_real(self, what: str = "number") -> float:
        tok = self.peek()
        if tok is None or tok.kind != "number" or tok.imag:
            self.error(f"expected {what}")
        return float(self.take().value)

    def expect_int(self, what: str = "integer") -> int:
        tok = self.peek()
        value = self.expect_real(what)
        if value != int(value):
            self.error(f"expected {what}", tok)
        return int(value)

    def expect_complex(self) -> complex:
        tok = self.peek()
        if tok is None or tok.kind != "number":
            self.error("expected a number")
        first = self.take()
        if first.imag:
            self.error("imaginary literal needs a real part first", first)
        nxt = self.peek()
        if nxt is not None and nxt.kind == "number" and nxt.imag and nxt.signed:
            self.take()
            return complex(first.value, nxt.value)
        if nxt is not None and nxt.kind == "sign":
            sign = -1.0 if nxt.text == "-" else 1.0
            self.take()
            imag_tok = self.peek()
            if imag_tok is None or imag_tok.kind != "number" or not imag_tok.imag:
                self.error("expected an imaginary literal after sign")
            self.take()
            return complex(first.value, sign * imag_tok.value)
        return complex(first.value, 0.0)

    def finish(self):
        tok = self.peek()
        if tok is not None:
            self.error("unexpected trailing input", tok)


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class _Node:
    """A statement, carrying its source line (ignored by equality)."""

    line: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class SpaceDecl(_Node):
    name: str
    dim: int


@dataclass(frozen=True)
class TempDecl(_Node):
    value: float


@dataclass(frozen=True)
class KetDecl(_Node):
    name: str
    amplitudes: tuple[complex, ...]


@dataclass(frozen=True)
class GasDecl(_Node):
    name: str
    ket: str | None = None
    matrix: tuple[tuple[complex, ...], ...] | None = None


@dataclass(frozen=True)
class ObserverDecl(_Node):
    name: str
    table: tuple[tuple[str, str], ...]
    dim: int


@dataclass(frozen=True)
class ChamberDecl(_Node):
    name: str
    volume: float


@dataclass(frozen=True)
class FillDecl(_Node):
    chamber: str
    parts: tuple[tuple[str, float], ...]
    moles: float


@dataclass(frozen=True)
class PovmRef:
    kets: tuple[str, ...]
    lift: str | None = None


@dataclass(frozen=True)
class MixStep(_Node):
    a: str
    b: str
    target: str
    povm: PovmRef


@dataclass(frozen=True)
class SeparateStep(_Node):
    chamber: str
    povm: PovmRef | None  # None means "by eigenbasis"
    targets: tuple[str, ...]


@dataclass(frozen=True)
class RotateStep(_Node):
    chamber: str
    mapping: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class PartitionStep(_Node):
    chamber: str
    fraction: float
    targets: tuple[str, str]


@dataclass(frozen=True)
class JoinStep(_Node):
    a: str
    b: str
    target: str


@dataclass(frozen=True)
class CheckpointStep(_Node):
    label: str


@dataclass(frozen=True)
class AssertClosedStep(_Node):
    observer: str
    checkpoint: str


@dataclass(frozen=True)
class AuditStep(_Node):
    observer: str
    checkpoint: str


@dataclass(frozen=True)
class ProtocolAst:
    declarations: tuple
    steps: tuple


# ---------------------------------------------------------------------------
# parser

class _Names:
    """Declaration and liveness tracking for parse-time checks."""

    def __init__(self):
        self.space: SpaceDecl | None = None
        self.temp_seen = False
        self.kets: set[str] = set()
        self.gases: set[str] = set()
        self.observers: set[str] = set()
        self.filled: set[str] = set()
        self.live_chambers: set[str] = set()
        self.checkpoints: set[str] = set()

    def declare(self, cur: _Cursor, kind: str, pool: set[str], tok: _Token):
        if tok.text in pool:
            cur.error(f"duplicate {kind} {tok.text!r}", tok)
        pool.add(tok.text)

    def need(self, cur: _Cursor, kind: str, pool: set[str], tok: _Token):
        if tok.text not in pool:
            cur.error(f"undeclared {kind} {tok.text!r}", tok)

    def consume_chamber(self, cur: _Cursor, tok: _Token):
        if tok.text not in self.live_chambers:
            cur.error(f"undeclared chamber {tok.text!r}", tok)
        self.live_chambers.discard(tok.text)

    def create_chamber(self, cur: _Cursor, tok: _Token):
        if tok.text in self.live_chambers:
            cur.error(f"chamber {tok.text!r} already exists", tok)
        self.live_chambers.add(tok.text)


def _parse_mapping(cur: _Cursor, names: _Names, left_pool, right_pool,
                   left_kind: str, right_kind: str):
    cur.expect_punct("{")
    pairs = []
    while True:
        left = cur.expect_name(left_kind)
        names.need(cur, left_kind, left_pool, left)
        cur.expect_arrow()
        right = cur.expect_name(right_kind)
        names.need(cur, right_kind, right_pool, right)
        pairs.append((left.text, right.text))
        if cur.at_punct(","):
            cur.take()
            continue
        break
    cur.expect_punct("}")
    return tuple(pairs)


def _parse_povm_ref(cur: _Cursor, names: _Names) -> PovmRef:
    cur.expect_keyword("povm")
    lift = None
    tok = cur.peek()
    if tok is not None and tok.kind == "id" and tok.text == "lift":
        cur.take()
        obs = cur.expect_name("observer name")
        names.need(cur, "observer", names.observers, obs)
        lift = obs.text
    cur.expect_punct("{")
    kets = []
    while True:
        ket = cur.expect_name("ket name")
        names.need(cur, "ket", names.kets, ket)
        kets.append(ket.text)
        if cur.at_punct(","):
            cur.take()
            continue
        break
    cur.expect_punct("}")
    return PovmRef(tuple(kets), lift)


def parse(source: str) -> ProtocolAst:
    """Parse protocol text into an AST, or raise the first ParseError.

    Beyond the grammar, this checks that every identifier is declared before
    use, that chamber names are live when referenced (steps consume and
    create chambers), and that declarations all precede the first step.
    """
    declarations: list = []
    steps: list = []
    names = _Names()

    for lineno, raw in enumerate(source.split("\n"), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno)
        head = cur.peek()
        if head.kind != "id":
            cur.error("a statement must start with a keyword")
        word = head.text

        if word in ("space", "temp", "ket", "gas", "observer", "chamber", "fill"):
            if steps:
                cur.error("declarations must precede the first step", head)
            declarations.append(_parse_decl(cur, names, word, lineno))
        elif word in ("mix", "separate", "rotate", "partition", "join",
                      "checkpoint", "assert-closed", "audit"):
            if names.space is None:
                cur.error("missing space declaration before steps", head)
            steps.append(_parse_step(cur, names, word, lineno))
        else:
            cur.error("unknown statement", head)
        cur.finish()

    if names.space is None:
        raise ParseError(1, 1, "protocol needs exactly one space declaration")
    return ProtocolAst(tuple(declarations), tuple(steps))


def _parse_decl(cur: _Cursor, names: _Names, word: str, lineno: int):
    cur.take()
    if word == "space":
        if names.space is not None:
            cur.error("duplicate space declaration")
        name = cur.expect_name("space name")
        cur.expect_keyword("dim")
        dim = cur.expect_int("dimension")
        decl = SpaceDecl(name.text, dim, line=lineno)
        names.space = decl
        return decl
    if word == "temp":
        if names.temp_seen:
            cur.error("duplicate temp declaration")
        names.temp_seen = True
        return TempDecl(cur.expect_real("temperature"), line=lineno)
    if word == "ket":
        name = cur.expect_name("ket name")
        names.declare(cur, "ket", names.kets, name)
        cur.expect_punct("=")
        cur.expect_punct("[")
        amplitudes = [cur.expect_complex()]
        while cur.at_punct(","):
            cur.take()
            amplitudes.append(cur.expect_complex())
        cur.expect_punct("]")
        return KetDecl(name.text, tuple(amplitudes), line=lineno)
    if word == "gas":
        name = cur.expect_name("gas name")
        names.declare(cur, "gas", names.gases, name)
        tok = cur.peek()
        if tok is not None and tok.kind == "id" and tok.text == "from":
            cur.take()
            cur.expect_keyword("ket")
            ket = cur.expect_name("ket name")
            names.need(cur, "ket", names.kets, ket)
            return GasDecl(name.text, ket=ket.text, line=lineno)
        cur.expect_keyword("matrix")
        cur.expect_punct("[")
        rows = []
        while True:
            cur.expect_punct("[")
            row = [cur.expect_complex()]
            while cur.at_punct(","):
                cur.take()
                row.append(cur.expect_complex())
            cur.expect_punct("]")
            rows.append(tuple(row))
            if cur.at_punct(","):
                cur.take()
                continue
            break
        cur.expect_punct("]")
        return GasDecl(name.text, matrix=tuple(rows), line=lineno)
    if word == "observer":
        name = cur.expect_name("observer name")
        names.declare(cur, "observer", names.observers, name)
        cur.expect_keyword("table")
        table = _parse_mapping(cur, names, names.kets, names.kets, "ket", "ket")
        cur.expect_keyword("dim")
        dim = cur.expect_int("dimension")
        return ObserverDecl(name.text, table, dim, line=lineno)
    if word == "chamber":
        name = cur.expect_name("chamber name")
        if name.text in names.live_chambers:
            cur.error(f"duplicate chamber {name.text!r}", name)
        names.live_chambers.add(name.text)
        cur.expect_keyword("volume")
        return ChamberDecl(name.text, cur.expect_real("volume"), line=lineno)
    if word == "fill":
        chamber = cur.expect_name("chamber name")
        names.need(cur, "chamber", names.live_chambers, chamber)
        if chamber.text in names.filled:
            cur.error(f"chamber {chamber.text!r} is already filled", chamber)
        names.filled.add(chamber.text)
        cur.expect_punct("{")
        parts = []
        while True:
            gas = cur.expect_name("gas name")
            names.need(cur, "gas", names.gases, gas)
            cur.expect_punct(":")
            parts.append((gas.text, cur.expect_real("fraction")))
            if cur.at_punct(","):
                cur.take()
                continue
            break
        cur.expect_punct("}")
        cur.expect_keyword("moles")
        return FillDecl(chamber.text, tuple(parts), cur.expect_real("moles"),
                        line=lineno)
    raise AssertionError(word)


def _parse_step(cur: _Cursor, names: _Names, word: str, lineno: int):
    cur.take()
    if word == "mix":
        a = cur.expect_name("chamber name")
        b = cur.expect_name("chamber name")
        if a.text == b.text:
            cur.error("cannot mix a chamber with itself", b)
        names.consume_chamber(cur, a)
        names.consume_chamber(cur, b)
        cur.expect_keyword("into")
        target = cur.expect_name("chamber name")
        names.create_chamber(cur, target)
        cur.expect_keyword("by")
        povm = _parse_povm_ref(cur, names)
        return MixStep(a.text, b.text, target.text, povm, line=lineno)
    if word == "separate":
        chamber = cur.expect_name("chamber name")
        names.consume_chamber(cur, chamber)
        cur.expect_keyword("by")
        tok = cur.peek()
        if tok is not None and tok.kind == "id" and tok.text == "eigenbasis":
            cur.take()
            povm = None
        else:
            povm = _parse_povm_ref(cur, names)
        cur.expect_keyword("into")
        targets = [cur.expect_name("chamber name")]
        while cur.peek() is not None:
            targets.append(cur.expect_name("chamber name"))
        if len(targets) < 2:
            cur.error("separate needs at least two target chambers")
        seen = set()
        for tok in targets:
            if tok.text in seen:
                cur.error(f"duplicate target chamber {tok.text!r}", tok)
            seen.add(tok.text)
            names.create_chamber(cur, tok)
        return SeparateStep(chamber.text, povm,
                            tuple(t.text for t in targets), line=lineno)
    if word == "rotate":
        chamber = cur.expect_name("chamber name")
        names.need(cur, "chamber", names.live_chambers, chamber)
        cur.expect_keyword("map")
        mapping = _parse_mapping(cur, names, names.kets, names.kets, "ket", "ket")
        return RotateStep(chamber.text, mapping, line=lineno)
    if word == "partition":
        chamber = cur.expect_name("chamber name")
        names.consume_chamber(cur, chamber)
        cur.expect_keyword("at")
        fraction = cur.expect_real("fraction")
        cur.expect_keyword("into")
        first = cur.expect_name("chamber name")
        second = cur.expect_name("chamber name")
        if first.text == second.text:
            cur.error(f"duplicate target chamber {second.text!r}", second)
        names.create_chamber(cur, first)
        names.create_chamber(cur, second)
        return PartitionStep(chamber.text, fraction,
                             (first.text, second.text), line=lineno)
    if word == "join":
        a = cur.expect_name("chamber name")
        b = cur.expect_name("chamber name")
        if a.text == b.text:
            cur.error("cannot join a chamber with itself", b)
        names.consume_chamber(cur, a)
        names.consume_chamber(cur, b)
        cur.expect_keyword("into")
        target = cur.expect_name("chamber name")
        names.create_chamber(cur, target)
        return JoinStep(a.text, b.text, target.text, line=lineno)
    if word == "checkpoint":
        label = cur.expect_name("checkpoint label")
        if label.text in names.checkpoints:
            cur.error(f"duplicate checkpoint {label.text!r}", label)
        names.checkpoints.add(label.text)
        return CheckpointStep(label.text, line=lineno)
    if word in ("assert-closed", "audit"):
        observer = cur.expect_name("observer name")
        names.need(cur, "observer", names.observers, observer)
        cur.expect_keyword("from")
        label = cur.expect_name("checkpoint label")
        names.need(cur, "checkpoint", names.checkpoints, label)
        cls = AssertClosedStep if word == "assert-closed" else AuditStep
        return cls(observer.text, label.text, line=lineno)
    raise AssertionError(word)


# ---------------------------------------------------------------------------
# renderer

def _fmt_real(x: float) -> str:
    return repr(float(x))


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return _fmt_real(z.real)
    if z.imag < 0:
        return f"{_fmt_real(z.real)}-{_fmt_real(-z.imag)}i"
    return f"{_fmt_real(z.real)}+{_fmt_real(z.imag)}i"


def _fmt_povm(ref: PovmRef) -> str:
    inner = ", ".join(ref.kets)
    if ref.lift:
        return f"povm lift {ref.lift} {{ {inner} }}"
    return f"povm {{ {inner} }}"


def render(ast: ProtocolAst) -> str:
    """Canonical text for an AST; parse(render(parse(s))) == parse(s)."""
    lines = []
    for node in ast.declarations + ast.steps:
        if isinstance(node, SpaceDecl):
            lines.append(f"space {node.name} dim {node.dim}")
        elif isinstance(node, TempDecl):
            lines.append(f"temp {_fmt_real(node.value)}")
        elif isinstance(node, KetDecl):
            amps = ", ".join(_fmt_complex(z) for z in node.amplitudes)
            lines.append(f"ket {node.name} = [{amps}]")
        elif isinstance(node, GasDecl):
            if node.ket is not None:
                lines.append(f"gas {node.name} from ket {node.ket}")
            else:
                rows = ", ".join(
                    "[" + ", ".join(_fmt_complex(z) for z in row) + "]"
                    for row in node.matrix
                )
                lines.append(f"gas {node.name} matrix [{rows}]")
        elif isinstance(node, ObserverDecl):
            table = ", ".join(f"{a} -> {b}" for a, b in node.table)
            lines.append(f"observer {node.name} table {{ {table} }} dim {node.dim}")
        elif isinstance(node, ChamberDecl):
            lines.append(f"chamber {node.name} volume {_fmt_real(node.volume)}")
        elif isinstance(node, FillDecl):
            parts = ", ".join(f"{g} : {_fmt_real(f)}" for g, f in node.parts)
            lines.append(
                f"fill {node.chamber} {{ {parts} }} moles {_fmt_real(node.moles)}"
            )
        elif isinstance(node, MixStep):
            lines.append(
                f"mix {node.a} {node.b} into {node.target} by {_fmt_povm(node.povm)}"
            )
        elif isinstance(node, SeparateStep):
            by = "eigenbasis" if node.povm is None else _fmt_povm(node.povm)
            lines.append(
                f"separate {node.chamber} by {by} into {' '.join(node.targets)}"
            )
        elif isinstance(node, RotateStep):
            table = ", ".join(f"{a} -> {b}" for a, b in node.mapping)
            lines.append(f"rotate {node.chamber} map {{ {table} }}")
        elif isinstance(node, PartitionStep):
            lines.append(
                f"partition {node.chamber} at {_fmt_real(node.fraction)}"
                f" into {node.targets[0]} {node.targets[1]}"
            )
        elif isinstance(node, JoinStep):
            lines.append(f"join {node.a} {node.b} into {node.target}")
        elif isinstance(node, CheckpointStep):
            lines.append(f"checkpoint {node.label}")
        elif isinstance(node, AssertClosedStep):
            lines.append(f"assert-closed {node.observer} from {node.checkpoint}")
        elif isinstance(node, AuditStep):
            lines.append(f"audit {node.observer} from {node.checkpoint}")
        else:
            raise AssertionError(type(node))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# interpreter

@dataclass
class ExecutionResult:
    final_state: LabState
    ledger: Ledger
    verdicts: list[Verdict]
    observers: dict[str, Observer]


def _decl_error(line: int, message: str) -> ProtocolRuntimeError:
    return ProtocolRuntimeError(-1, line, message)


def execute(ast: ProtocolAst, tol: float = 1e-9) -> ExecutionResult:
    """Fold the protocol steps over the lab state built from declarations.

    Separations "by eigenbasis" resolve to the optimal separation POVM of
    the chamber's canonical contents.  Runtime failures surface as
    ProtocolRuntimeError carrying the step index; a failed assert-closed
    raises AssertClosedError with the observer and differing chamber.
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    kets: dict[str, object] = {}
    gases: dict[str, StatisticalMatrix] = {}
    observers: dict[str, Observer] = {}
    chamber_order: list[str] = []
    volumes: dict[str, float] = {}
    chamber_lines: dict[str, int] = {}
    fills: dict[str, FillDecl] = {}
    temperature = 1.0
    space: SpaceDecl | None = None

    for decl in ast.declarations:
        try:
            if isinstance(decl, SpaceDecl):
                if not 1 <= decl.dim <= linalg.MAX_DIM:
                    raise DomainError(
                        f"space dimension {decl.dim} outside 1..{linalg.MAX_DIM}"
                    )
                space = decl
            elif isinstance(decl, TempDecl):
                if not 0 < decl.value < math.inf:
                    raise DomainError(
                        f"temperature must be positive and finite, got {decl.value}"
                    )
                temperature = decl.value
            elif isinstance(decl, KetDecl):
                kets[decl.name] = linalg.as_ket(list(decl.amplitudes))
            elif isinstance(decl, GasDecl):
                if decl.ket is not None:
                    ket = kets[decl.ket]
                    if ket.size != space.dim:
                        raise DomainError(
                            f"gas {decl.name!r} needs a lab-space ket of dim"
                            f" {space.dim}, got {ket.size}"
                        )
                    gases[decl.name] = StatisticalMatrix.pure(ket, label=decl.name)
                else:
                    matrix = [list(row) for row in decl.matrix]
                    state = StatisticalMatrix(matrix, label=decl.name)
                    if state.dim != space.dim:
                        raise DomainError(
                            f"gas {decl.name!r} matrix has dim {state.dim},"
                            f" lab space has dim {space.dim}"
                        )
                    gases[decl.name] = state
            elif isinstance(decl, ObserverDecl):
                table = [(kets[a], kets[b]) for a, b in decl.table]
                for lab_ket, _ in table:
                    if lab_ket.size != space.dim:
                        raise DomainError(
                            f"observer {decl.name!r} table needs lab kets of"
                            f" dim {space.dim}, got {lab_ket.size}"
                        )
                observers[decl.name] = build_observer(table, decl.dim, decl.name)
            elif isinstance(decl, ChamberDecl):
                chamber_order.append(decl.name)
                volumes[decl.name] = decl.volume
                chamber_lines[decl.name] = decl.line
            elif isinstance(decl, FillDecl):
                total = sum(f for _, f in decl.parts)
                if any(f <= 0 for _, f in decl.parts):
                    raise DomainError("fill fractions must be positive")
                if abs(total - 1.0) > 1e-9:
                    raise DomainError(
                        f"fill fractions must sum to 1, got {total:.12g}"
                    )
                if not decl.moles > 0:
                    raise DomainError("fill moles must be positive")
                fills[decl.chamber] = decl
        except QgasError as exc:
            if isinstance(exc, ProtocolRuntimeError):
                raise
            raise _decl_error(decl.line, str(exc)) from exc

    chambers: dict[str, Chamber] = {}
    for name in chamber_order:
        contents: tuple[GasComponent, ...] = ()
        if name in fills:
            decl = fills[name]
            contents = tuple(
                GasComponent(gases[gas], fraction * decl.moles)
                for gas, fraction in decl.parts
            )
        try:
            chambers[name] = Chamber(name, volumes[name], contents)
        except QgasError as exc:
            line = fills[name].line if name in fills else chamber_lines[name]
            raise _decl_error(line, str(exc)) from exc
    try:
        lab = LabState(temperature, chambers, space.dim)
    except QgasError as exc:
        raise _decl_error(space.line, str(exc)) from exc

    ledger = Ledger()
    verdicts: list[Verdict] = []
    # membranes and rotations depend on the declarations alone: each
    # distinct one is built and checked at the first step that uses it,
    # then reused by every later step that names it
    povms: dict[PovmRef, Povm] = {}
    unitaries: dict[tuple[tuple[str, str], ...], np.ndarray] = {}

    for index, step in enumerate(ast.steps):
        try:
            if isinstance(step, MixStep):
                povm = _resolve_povm(step.povm, kets, observers, povms)
                lab, event = thermo.mix(lab, step.a, step.b, povm,
                                        name=step.target, step_index=index,
                                        tol=tol)
                ledger.append(event)
            elif isinstance(step, SeparateStep):
                if step.povm is None:
                    povm = optimal_separation_povm(
                        canonical_contents(lab.chamber(step.chamber))
                    )
                else:
                    povm = _resolve_povm(step.povm, kets, observers, povms)
                lab, event = thermo.separate(lab, step.chamber, povm,
                                             names=step.targets,
                                             step_index=index)
                ledger.append(event)
            elif isinstance(step, RotateStep):
                if step.mapping not in unitaries:
                    unitaries[step.mapping] = thermo.rotation_unitary(
                        [(kets[a], kets[b]) for a, b in step.mapping], lab.lab_dim
                    )
                lab, event = thermo.rotate(lab, step.chamber,
                                           unitaries[step.mapping],
                                           len(step.mapping), step_index=index)
                ledger.append(event)
            elif isinstance(step, PartitionStep):
                lab, event = thermo.partition(lab, step.chamber, step.fraction,
                                              names=step.targets,
                                              step_index=index)
                ledger.append(event)
            elif isinstance(step, JoinStep):
                lab, event = thermo.join(lab, step.a, step.b,
                                         name=step.target, step_index=index)
                ledger.append(event)
            elif isinstance(step, CheckpointStep):
                ledger.checkpoint(step.label, lab, index)
            elif isinstance(step, AssertClosedStep):
                obs = observers[step.observer]
                checkpoint = ledger.resolve(step.checkpoint)
                try:
                    mismatch = equivalence_mismatch(obs, checkpoint.state, lab, tol)
                except ShapeError as exc:
                    mismatch = str(exc)
                if mismatch is not None:
                    raise AssertClosedError(
                        f"step {index} (line {step.line}): observer"
                        f" {step.observer!r} sees an open cycle from"
                        f" {step.checkpoint!r}: {mismatch}"
                    )
            elif isinstance(step, AuditStep):
                verdicts.append(
                    run_audit(ledger, observers[step.observer],
                              step.checkpoint, lab, tol)
                )
            else:
                raise AssertionError(type(step))
        except (AssertClosedError, ProtocolRuntimeError):
            raise
        except QgasError as exc:
            raise ProtocolRuntimeError(index, step.line, str(exc)) from exc

    return ExecutionResult(lab, ledger, verdicts, observers)


def _resolve_povm(ref: PovmRef, kets, observers, built: dict) -> Povm:
    """The membranes ref names, built at its first use and reused from
    ``built`` after that."""
    if ref not in built:
        povm = Povm.projective([kets[name] for name in ref.kets], labels=ref.kets)
        if ref.lift is not None:
            povm = lift_through(observers[ref.lift], povm)
        built[ref] = povm
    return built[ref]


# ---------------------------------------------------------------------------
# bundled demos

DEMO_NAMES = (
    "perfect-separation",
    "partial-separation",
    "peres-tatiana",
    "peres-willard",
    "jaynes-johann",
    "jaynes-marie",
)

DEMO_BLURBS = {
    "perfect-separation":
        "separate a half/half mixture of two perfectly distinguishable gases"
        " (heat released ln 2)",
    "partial-separation":
        "best possible separation of two non-orthogonal gases via the"
        " aggregate eigenbasis (heat released 0.4165)",
    "peres-tatiana":
        "quantum membrane cycle that looks closed to the coarse observer"
        " tatiana and apparently beats the Clausius bound",
    "peres-willard":
        "the same cycle at full resolution: still open where tatiana saw a"
        " cycle, and lawful once actually closed",
    "jaynes-johann":
        "classical mixing cycle that apparently violates the second law for"
        " the species-blind observer johann",
    "jaynes-marie":
        "the same classical cycle for marie, who distinguishes the two argon"
        " varieties and has to pay the work back to close the cycle",
}


def demo_source(name: str) -> str:
    """Source text of a bundled demo protocol (byte-identical across runs)."""
    if name not in DEMO_NAMES:
        raise DomainError(
            f"unknown demo {name!r}; available: {', '.join(DEMO_NAMES)}"
        )
    path = resources.files("qgas").joinpath("protocols", f"{name}.qgp")
    return path.read_text(encoding="utf-8")


def run_demo(name: str, tol: float = 1e-9) -> ExecutionResult:
    return execute(parse(demo_source(name)), tol=tol)
