"""Line-oriented protocol language: parser, renderer, and interpreter.

A protocol first declares the stage (space, kets, gases, observers,
chambers, fills), then scripts membrane steps over it.  Grammar, one
statement per line, '#' comments, whitespace-insensitive within a line:

    space ID dim INT                      temp REAL
    ket ID = [ complex, ... ]
    gas ID from ket ID                    gas ID matrix [[c, ...], ...]
    observer ID table { ID -> ID, ... } dim INT   (row order picks the sectors)
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
Identifiers must be declared before use, gases and observers need the
space declared first, and all declarations must precede the first step.

Each statement is one node class below: its fields, its grammar
(``parse``), its canonical text (``render``) and its effect on a run
(``run``) sit side by side, and two keyword tables map the first word of
a line to its class.  Every line's parse cursor shares one name table,
the names declared so far per kind; ``chamber`` holds the live chambers,
which steps consume and create.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, NamedTuple

import numpy as np

from .audit import Verdict, audit as run_audit
from .errors import (
    AssertClosedError,
    DomainError,
    ParseError,
    ProtocolRuntimeError,
    QgasError,
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
    LabState,
    Ledger,
    # not called here: bench/tracing.py wraps qgas.protocol.canonical_contents
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
    kind: str  # id | number | imag | punct | sign | vector | end
    text: str
    column: int
    # a number's or imag's float; a vector's tuple of complex values, which
    # only _Cursor.vector reads
    value: float | tuple[complex, ...] = 0.0


_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUMBER_RE = re.compile(rf"([+-]?{_NUM})(i?)")
# the rest of an identifier; a '-' before '>' starts an arrow instead
_IDENT_RE = re.compile(r"[\w+]*(?:-(?!>)[\w+]*)*")
_PUNCT = set("{}[],:=")
# A value list opens at a '[' after one of these: a ket's after '=', a
# matrix row's after '[' or ','.
_LIST_AFTER = ("=", "[", ",")

# One item of a value list: a complex literal as expect_complex reads its
# tokens, between blanks.  A real, then optionally an imaginary part signed
# on its own (a+bi, a -bi) or after a lone sign (a + bi, a - -bi).  Its
# groups are the real, the self-signed imaginary part, the lone sign and
# the imaginary part after it.
_WS = r"[ \t\r]*"
_ITEM_RE = re.compile(rf"{_WS}([+-]?{_NUM})(?:{_WS}(?:([+-]{_NUM})i"
                      rf"|([+-])(?![\d.]){_WS}([+-]?{_NUM})i))?{_WS}")


def _vector_values(inside: str) -> tuple[complex, ...] | None:
    """The values of the items between a list's brackets, each computed as
    expect_complex computes it, or None unless every item is one finite
    complex literal (the classic tokens then read the list and raise its
    error at its column)."""
    values = []
    for item in inside.split(","):
        m = _ITEM_RE.fullmatch(item)
        if not m:
            return None
        real, signed, sign, imag = m.groups()
        x = float(real)
        if signed:
            y = float(signed)
        elif sign:
            y = float(imag)
            y = -y if sign == "-" else y
        else:
            y = 0.0
        if not (math.isfinite(x) and math.isfinite(y)):
            return None
        values.append(complex(x, y))
    return tuple(values)


def _tokenize(text: str, lineno: int) -> tuple[_Token, ...]:
    """The tokens of one line, closed by an ``end`` token at the column just
    past the last one, where an end-of-line error points.  A value list,
    from a '[' after '=', '[' or ',' to the first ']', whose every item is
    one finite complex literal, is one vector token; any other '[' is
    punctuation."""
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
            tokens.append(_Token("punct", "->", col))
            i += 2
            continue
        if c == "[" and tokens and tokens[-1].text in _LIST_AFTER:
            j = text.find("]", i)
            values = j > i and _vector_values(text[i + 1:j])
            if values:
                tokens.append(_Token("vector", text[i:j + 1], col, values))
                i = j + 1
                continue
        if c in _PUNCT:
            tokens.append(_Token("punct", c, col))
            i += 1
            continue
        if c.isdigit() or c == "." or (
            c in "+-" and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")
        ):
            m = _NUMBER_RE.match(text, i)
            if not m:
                raise ParseError(lineno, col, "malformed number", text[i:i + 8])
            value = float(m.group(1))
            if not math.isfinite(value):
                raise ParseError(lineno, col, "non-finite number", m.group())
            kind = "imag" if m.group(2) else "number"
            tokens.append(_Token(kind, m.group(), col, value))
            i = m.end()
            continue
        if c in "+-":
            tokens.append(_Token("sign", c, col))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = _IDENT_RE.match(text, i + 1).end()
            tokens.append(_Token("id", text[i:j], col))
            i = j
            continue
        raise ParseError(lineno, col, "unexpected character", c)
    last = tokens[-1] if tokens else None
    tokens.append(_Token("end", "", last.column + len(last.text) if last else 1))
    return tuple(tokens)


class _Cursor:
    def __init__(self, tokens: tuple[_Token, ...], lineno: int,
                 names: dict[str, set[str]]):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0
        self.names = names

    def error(self, message: str, token: _Token | None = None):
        token = token or self.peek()
        # a vector stands where its list's classic tokens begin, with '['
        text = "[" if token.kind == "vector" else token.text
        raise ParseError(self.lineno, token.column, message, text)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def accept(self, word: str) -> bool:
        if self.peek().text == word:
            self.pos += 1
            return True
        return False

    def expect(self, word: str):
        if not self.accept(word):
            if word in KEYWORDS:
                self.error(f"expected keyword {word!r}")
            self.error(f"expected {word!r}")

    def take(self, kind: str, what: str) -> _Token:
        """The next token, which must be of ``kind`` (``what`` in the error)."""
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {what}")
        self.pos += 1
        return tok

    def expect_name(self, what: str) -> _Token:
        tok = self.take("id", what)
        if tok.text in KEYWORDS:
            self.error(f"{tok.text!r} is a reserved word, not a valid {what}", tok)
        return tok

    def expect_real(self, what: str = "number") -> float:
        return self.take("number", what).value

    def expect_int(self, what: str = "integer") -> int:
        tok = self.take("number", what)
        if tok.value != int(tok.value):
            self.error(f"expected {what}", tok)
        return int(tok.value)

    def expect_complex(self) -> complex:
        if self.peek().kind == "imag":
            self.error("imaginary literal needs a real part first")
        real = self.expect_real("a number")
        tok = self.peek()
        if tok.kind == "imag" and tok.text[0] in "+-":
            self.pos += 1
            return complex(real, tok.value)
        if tok.kind == "sign":
            self.pos += 1
            imag = self.take("imag", "an imaginary literal after sign").value
            return complex(real, -imag if tok.text == "-" else imag)
        return complex(real, 0.0)

    def vector(self) -> tuple[complex, ...]:
        """``[ complex (, complex)* ]``: a vector token's values, else the
        list read from classic tokens, which reports any error in it.  Only
        this reader takes a vector token; every other one fails on it."""
        tok = self.peek()
        if tok.kind == "vector":
            self.pos += 1
            return tok.value
        return self.comma_list(self.expect_complex, "[", "]")

    def comma_list(self, item, open: str, close: str) -> tuple:
        """``open item (, item)* close``, each item read by ``item()``."""
        self.expect(open)
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.expect(close)
        return tuple(items)

    def finish(self):
        if self.peek().kind != "end":
            self.error("unexpected trailing input")

    def declare(self, kind: str, what: str = "") -> str:
        tok = self.expect_name(what or f"{kind} name")
        if tok.text in self.names[kind]:
            self.error(f"duplicate {kind} {tok.text!r}", tok)
        self.names[kind].add(tok.text)
        return tok.text

    def need(self, kind: str, what: str = "") -> str:
        tok = self.expect_name(what or f"{kind} name")
        if tok.text not in self.names[kind]:
            self.error(f"undeclared {kind} {tok.text!r}", tok)
        return tok.text

    def consume(self, tok: _Token) -> str:
        """Chamber ``tok`` must be live; a step uses it up."""
        if tok.text not in self.names["chamber"]:
            self.error(f"undeclared chamber {tok.text!r}", tok)
        self.names["chamber"].discard(tok.text)
        return tok.text

    def create(self, toks: list[_Token]) -> tuple[str, ...]:
        """The one target rule: each target, in order, must not repeat an
        earlier one nor name a live chamber, and then becomes live."""
        for i, tok in enumerate(toks):
            if any(t.text == tok.text for t in toks[:i]):
                self.error(f"duplicate target chamber {tok.text!r}", tok)
            if tok.text in self.names["chamber"]:
                self.error(f"chamber {tok.text!r} already exists", tok)
            self.names["chamber"].add(tok.text)
        return tuple(t.text for t in toks)

    def once(self, keyword: str):
        """``space`` and ``temp`` are declared at most once."""
        if self.names[keyword]:
            self.error(f"duplicate {keyword} declaration")
        self.names[keyword].add(keyword)


# ---------------------------------------------------------------------------
# statements (``parse`` is called with the keyword already taken)

class _Run:
    """What one execute call threads through its statements: the stage the
    declarations build, the lab and ledger the steps advance, and the
    membranes and rotations built so far, each a Povm keyed by its PovmRef
    or its rotation's ket mapping.  Those depend on the
    declarations alone, so each distinct one is built and checked at the
    first step that uses it, then reused by every later step naming it."""

    def __init__(self, tol: float):
        self.tol = tol
        self.dim: int | None = None
        self.temperature = 1.0
        self.kets: dict[str, np.ndarray] = {}
        self.gases: dict[str, StatisticalMatrix] = {}
        self.observers: dict[str, Observer] = {}
        self.chambers: dict[str, Chamber] = {}
        self.lab: LabState | None = None
        self.ledger = Ledger()
        self.verdicts: list[Verdict] = []
        self.operators: dict[PovmRef | tuple, Povm] = {}

    def space_dim(self, what: str) -> int:
        if self.dim is None:
            raise DomainError(f"{what} is declared before the space")
        return self.dim

    def advance(self, lab: LabState, event: thermo.LedgerEvent):
        self.lab = lab
        self.ledger.append(event)


def _fmt_real(x: float) -> str:
    return repr(float(x))


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return _fmt_real(z.real)
    sign = "-" if z.imag < 0 else "+"
    return f"{_fmt_real(z.real)}{sign}{_fmt_real(abs(z.imag))}i"


def _fmt_vector(zs) -> str:
    return "[" + ", ".join(_fmt_complex(z) for z in zs) + "]"


def _parse_ket_map(cur: _Cursor) -> tuple[tuple[str, str], ...]:
    def pair():
        source = cur.need("ket", "ket")
        cur.expect("->")
        return source, cur.need("ket", "ket")

    return cur.comma_list(pair, "{", "}")


def _fmt_ket_map(pairs) -> str:
    return "{ " + ", ".join(f"{a} -> {b}" for a, b in pairs) + " }"


@dataclass(frozen=True)
class _Node:
    """A statement, carrying its source line (ignored by equality)."""

    line: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class SpaceDecl(_Node):
    name: str
    dim: int

    @classmethod
    def parse(cls, cur: _Cursor):
        cur.once("space")
        name = cur.expect_name("space name").text
        cur.expect("dim")
        return cls(name, cur.expect_int("dimension"), line=cur.lineno)

    def render(self) -> str:
        return f"space {self.name} dim {self.dim}"

    def run(self, ctx: _Run):
        if not 1 <= self.dim <= linalg.MAX_DIM:
            raise DomainError(
                f"space dimension {self.dim} outside 1..{linalg.MAX_DIM}"
            )
        ctx.dim = self.dim


@dataclass(frozen=True)
class TempDecl(_Node):
    value: float

    @classmethod
    def parse(cls, cur: _Cursor):
        cur.once("temp")
        return cls(cur.expect_real("temperature"), line=cur.lineno)

    def render(self) -> str:
        return f"temp {_fmt_real(self.value)}"

    def run(self, ctx: _Run):
        thermo.check_temperature(self.value)
        ctx.temperature = self.value


@dataclass(frozen=True)
class KetDecl(_Node):
    name: str
    amplitudes: tuple[complex, ...]

    @classmethod
    def parse(cls, cur: _Cursor):
        name = cur.declare("ket")
        cur.expect("=")
        return cls(name, cur.vector(), line=cur.lineno)

    def render(self) -> str:
        return f"ket {self.name} = {_fmt_vector(self.amplitudes)}"

    def run(self, ctx: _Run):
        ctx.kets[self.name] = linalg.as_ket(list(self.amplitudes))


@dataclass(frozen=True)
class GasDecl(_Node):
    name: str
    ket: str | None = None
    matrix: tuple[tuple[complex, ...], ...] | None = None

    @classmethod
    def parse(cls, cur: _Cursor):
        name = cur.declare("gas")
        if cur.accept("from"):
            cur.expect("ket")
            return cls(name, ket=cur.need("ket"), line=cur.lineno)
        cur.expect("matrix")
        rows = cur.comma_list(cur.vector, "[", "]")
        return cls(name, matrix=rows, line=cur.lineno)

    def render(self) -> str:
        if self.ket is not None:
            return f"gas {self.name} from ket {self.ket}"
        rows = ", ".join(_fmt_vector(row) for row in self.matrix)
        return f"gas {self.name} matrix [{rows}]"

    def run(self, ctx: _Run):
        dim = ctx.space_dim(f"gas {self.name!r}")
        if self.ket is not None:
            state = StatisticalMatrix.pure(ctx.kets[self.ket])
        else:
            state = StatisticalMatrix(self.matrix)
        if state.dim != dim:
            raise DomainError(
                f"gas {self.name!r} has dim {state.dim}, lab space has dim {dim}"
            )
        ctx.gases[self.name] = state


@dataclass(frozen=True)
class ObserverDecl(_Node):
    name: str
    table: tuple[tuple[str, str], ...]
    dim: int

    @classmethod
    def parse(cls, cur: _Cursor):
        name = cur.declare("observer")
        cur.expect("table")
        table = _parse_ket_map(cur)
        cur.expect("dim")
        return cls(name, table, cur.expect_int("dimension"), line=cur.lineno)

    def render(self) -> str:
        return f"observer {self.name} table {_fmt_ket_map(self.table)} dim {self.dim}"

    def run(self, ctx: _Run):
        dim = ctx.space_dim(f"observer {self.name!r}")
        table = [(ctx.kets[a], ctx.kets[b]) for a, b in self.table]
        for lab_ket, _ in table:
            if lab_ket.size != dim:
                raise DomainError(
                    f"observer {self.name!r} table needs lab kets of"
                    f" dim {dim}, got {lab_ket.size}"
                )
        ctx.observers[self.name] = build_observer(table, self.dim, self.name)


@dataclass(frozen=True)
class ChamberDecl(_Node):
    name: str
    volume: float

    @classmethod
    def parse(cls, cur: _Cursor):
        name = cur.declare("chamber")
        cur.expect("volume")
        return cls(name, cur.expect_real("volume"), line=cur.lineno)

    def render(self) -> str:
        return f"chamber {self.name} volume {_fmt_real(self.volume)}"

    def run(self, ctx: _Run):
        ctx.chambers[self.name] = Chamber(self.name, self.volume)


@dataclass(frozen=True)
class FillDecl(_Node):
    chamber: str
    parts: tuple[tuple[str, float], ...]
    moles: float

    @classmethod
    def parse(cls, cur: _Cursor):
        tok = cur.peek()
        chamber = cur.need("chamber")
        if chamber in cur.names["filled"]:
            cur.error(f"chamber {chamber!r} is already filled", tok)
        cur.names["filled"].add(chamber)

        def part():
            gas = cur.need("gas")
            cur.expect(":")
            return gas, cur.expect_real("fraction")

        parts = cur.comma_list(part, "{", "}")
        cur.expect("moles")
        return cls(chamber, parts, cur.expect_real("moles"), line=cur.lineno)

    def render(self) -> str:
        parts = ", ".join(f"{g} : {_fmt_real(f)}" for g, f in self.parts)
        return f"fill {self.chamber} {{ {parts} }} moles {_fmt_real(self.moles)}"

    def run(self, ctx: _Run):
        total = sum(f for _, f in self.parts)
        if any(f <= 0 for _, f in self.parts):
            raise DomainError("fill fractions must be positive")
        if abs(total - 1.0) > linalg.FILL_SUM_TOL:
            raise DomainError(f"fill fractions must sum to 1, got {total:.12g}")
        if not self.moles > 0:
            raise DomainError("fill moles must be positive")
        ctx.chambers[self.chamber] = thermo._mean_chamber(
            self.chamber, ctx.chambers[self.chamber].volume,
            [(fraction * self.moles, ctx.gases[gas]) for gas, fraction in self.parts])


@dataclass(frozen=True)
class PovmRef:
    """Kets whose rank-one projectors are the membranes, optionally in an
    observer's space and lifted to the lab through its channel."""

    kets: tuple[str, ...]
    lift: str | None = None

    @classmethod
    def parse(cls, cur: _Cursor):
        cur.expect("povm")
        lift = None
        if cur.accept("lift"):
            lift = cur.need("observer")
        kets = cur.comma_list(lambda: cur.need("ket"), "{", "}")
        return cls(kets, lift)

    def render(self) -> str:
        lift = f"lift {self.lift} " if self.lift else ""
        return f"povm {lift}{{ {', '.join(self.kets)} }}"

    def resolve(self, ctx: _Run) -> Povm:
        if self not in ctx.operators:
            povm = Povm.projective([ctx.kets[k] for k in self.kets],
                                   labels=self.kets)
            if self.lift is not None:
                povm = lift_through(ctx.observers[self.lift], povm)
            ctx.operators[self] = povm
        return ctx.operators[self]


def _parse_merge(cur: _Cursor, verb: str) -> tuple[str, str, str]:
    """``A B into C``: consumes chambers A and B, creates C."""
    a = cur.expect_name("chamber name")
    b = cur.expect_name("chamber name")
    if a.text == b.text:
        cur.error(f"cannot {verb} a chamber with itself", b)
    sources = cur.consume(a), cur.consume(b)
    cur.expect("into")
    return sources + cur.create([cur.expect_name("chamber name")])


@dataclass(frozen=True)
class MixStep(_Node):
    a: str
    b: str
    target: str
    povm: PovmRef

    @classmethod
    def parse(cls, cur: _Cursor):
        merge = _parse_merge(cur, "mix")
        cur.expect("by")
        return cls(*merge, PovmRef.parse(cur), line=cur.lineno)

    def render(self) -> str:
        return f"mix {self.a} {self.b} into {self.target} by {self.povm.render()}"

    def run(self, ctx: _Run, index: int):
        ctx.advance(*thermo.mix(ctx.lab, self.a, self.b, self.povm.resolve(ctx),
                                name=self.target, step_index=index, tol=ctx.tol))


@dataclass(frozen=True)
class SeparateStep(_Node):
    chamber: str
    povm: PovmRef | None  # None means "by eigenbasis"
    targets: tuple[str, ...]

    @classmethod
    def parse(cls, cur: _Cursor):
        chamber = cur.consume(cur.expect_name("chamber name"))
        cur.expect("by")
        povm = None if cur.accept("eigenbasis") else PovmRef.parse(cur)
        cur.expect("into")
        targets = [cur.expect_name("chamber name")]
        while cur.peek().kind != "end":
            targets.append(cur.expect_name("chamber name"))
        if len(targets) < 2:
            cur.error("separate needs at least two target chambers")
        return cls(chamber, povm, cur.create(targets), line=cur.lineno)

    def render(self) -> str:
        by = "eigenbasis" if self.povm is None else self.povm.render()
        return f"separate {self.chamber} by {by} into {' '.join(self.targets)}"

    def run(self, ctx: _Run, index: int):
        if self.povm is None:
            povm = optimal_separation_povm(
                thermo.aggregate_state(ctx.lab.chamber(self.chamber)))
        else:
            povm = self.povm.resolve(ctx)
        ctx.advance(*thermo.separate(ctx.lab, self.chamber, povm,
                                     names=self.targets, step_index=index))


@dataclass(frozen=True)
class RotateStep(_Node):
    chamber: str
    mapping: tuple[tuple[str, str], ...]

    @classmethod
    def parse(cls, cur: _Cursor):
        chamber = cur.need("chamber")
        cur.expect("map")
        return cls(chamber, _parse_ket_map(cur), line=cur.lineno)

    def render(self) -> str:
        return f"rotate {self.chamber} map {_fmt_ket_map(self.mapping)}"

    def run(self, ctx: _Run, index: int):
        if self.mapping not in ctx.operators:
            ctx.operators[self.mapping] = thermo.rotation_unitary(
                [(ctx.kets[a], ctx.kets[b]) for a, b in self.mapping], ctx.lab.lab_dim)
        ctx.advance(*thermo.rotate(ctx.lab, self.chamber, ctx.operators[self.mapping],
                                   step_index=index))


@dataclass(frozen=True)
class PartitionStep(_Node):
    chamber: str
    fraction: float
    targets: tuple[str, str]

    @classmethod
    def parse(cls, cur: _Cursor):
        chamber = cur.consume(cur.expect_name("chamber name"))
        cur.expect("at")
        fraction = cur.expect_real("fraction")
        cur.expect("into")
        targets = [cur.expect_name("chamber name"), cur.expect_name("chamber name")]
        return cls(chamber, fraction, cur.create(targets), line=cur.lineno)

    def render(self) -> str:
        return (f"partition {self.chamber} at {_fmt_real(self.fraction)}"
                f" into {' '.join(self.targets)}")

    def run(self, ctx: _Run, index: int):
        ctx.advance(*thermo.partition(ctx.lab, self.chamber, self.fraction,
                                      names=self.targets, step_index=index))


@dataclass(frozen=True)
class JoinStep(_Node):
    a: str
    b: str
    target: str

    @classmethod
    def parse(cls, cur: _Cursor):
        return cls(*_parse_merge(cur, "join"), line=cur.lineno)

    def render(self) -> str:
        return f"join {self.a} {self.b} into {self.target}"

    def run(self, ctx: _Run, index: int):
        ctx.advance(*thermo.join(ctx.lab, self.a, self.b, name=self.target,
                                 step_index=index))


@dataclass(frozen=True)
class CheckpointStep(_Node):
    label: str

    @classmethod
    def parse(cls, cur: _Cursor):
        return cls(cur.declare("checkpoint", "checkpoint label"), line=cur.lineno)

    def render(self) -> str:
        return f"checkpoint {self.label}"

    def run(self, ctx: _Run, index: int):
        ctx.ledger.checkpoint(self.label, ctx.lab, index)


class _ObserverCheck:
    """``KEYWORD observer from checkpoint``: one observer's look at a span."""

    @classmethod
    def parse(cls, cur: _Cursor):
        observer = cur.need("observer")
        cur.expect("from")
        return cls(observer, cur.need("checkpoint", "checkpoint label"),
                   line=cur.lineno)

    def render(self) -> str:
        return f"{self.keyword} {self.observer} from {self.checkpoint}"


@dataclass(frozen=True)
class AssertClosedStep(_ObserverCheck, _Node):
    observer: str
    checkpoint: str
    keyword: ClassVar[str] = "assert-closed"

    def run(self, ctx: _Run, index: int):
        obs = ctx.observers[self.observer]
        checkpoint = ctx.ledger.resolve(self.checkpoint)
        mismatch = equivalence_mismatch(obs, checkpoint.state, ctx.lab, ctx.tol)
        if mismatch is not None:
            raise AssertClosedError(
                f"step {index} (line {self.line}): observer {self.observer!r}"
                f" sees an open cycle from {self.checkpoint!r}: {mismatch}"
            )


@dataclass(frozen=True)
class AuditStep(_ObserverCheck, _Node):
    observer: str
    checkpoint: str
    keyword: ClassVar[str] = "audit"

    def run(self, ctx: _Run, index: int):
        ctx.verdicts.append(run_audit(ctx.ledger, ctx.observers[self.observer],
                                      self.checkpoint, ctx.lab, ctx.tol))


_DECLARATIONS = {
    "space": SpaceDecl, "temp": TempDecl, "ket": KetDecl, "gas": GasDecl,
    "observer": ObserverDecl, "chamber": ChamberDecl, "fill": FillDecl,
}

_STEPS = {
    "mix": MixStep, "separate": SeparateStep, "rotate": RotateStep,
    "partition": PartitionStep, "join": JoinStep, "checkpoint": CheckpointStep,
    "assert-closed": AssertClosedStep, "audit": AuditStep,
}


@dataclass(frozen=True)
class ProtocolAst:
    declarations: tuple
    steps: tuple


def parse(source: str) -> ProtocolAst:
    """Parse protocol text into an AST, or raise the first ParseError.

    Beyond the grammar, this checks that every identifier is declared before
    use, that chamber names are live when referenced (steps consume and
    create chambers), and that declarations all precede the first step.
    """
    declarations: list = []
    steps: list = []
    names = {kind: set() for kind in
             "ket gas observer chamber checkpoint filled space temp".split()}

    # a line's tokens depend only on its text, and a line that fails to
    # tokenize raises on its first copy, so repeated lines share one tuple
    token_lists: dict[str, tuple[_Token, ...]] = {}
    for lineno, raw in enumerate(source.split("\n"), start=1):
        tokens = token_lists.get(raw)
        if tokens is None:
            tokens = token_lists[raw] = _tokenize(raw, lineno)
        if tokens[0].kind == "end":
            continue
        cur = _Cursor(tokens, lineno, names)
        head = cur.peek()
        cur.pos += 1
        if head.kind != "id":
            cur.error("a statement must start with a keyword", head)
        if head.text in _DECLARATIONS:
            if steps:
                cur.error("declarations must precede the first step", head)
            declarations.append(_DECLARATIONS[head.text].parse(cur))
        elif head.text in _STEPS:
            if not names["space"]:
                cur.error("missing space declaration before steps", head)
            steps.append(_STEPS[head.text].parse(cur))
        else:
            cur.error("unknown statement", head)
        cur.finish()

    if not names["space"]:
        raise ParseError(1, 1, "protocol needs exactly one space declaration")
    return ProtocolAst(tuple(declarations), tuple(steps))


def render(ast: ProtocolAst) -> str:
    """Canonical text for an AST; parse(render(parse(s))) == parse(s)."""
    return "\n".join(node.render() for node in ast.declarations + ast.steps) + "\n"


# ---------------------------------------------------------------------------
# interpreter

@dataclass
class ExecutionResult:
    final_state: LabState
    ledger: Ledger
    verdicts: list[Verdict]
    observers: dict[str, Observer]


def execute(ast: ProtocolAst, tol: float = linalg.CLOSURE_TOL) -> ExecutionResult:
    """Build the lab from the declarations, then fold the steps over it.

    Separations "by eigenbasis" resolve to the optimal separation POVM of
    the chamber's aggregate state.  Failures surface as
    ProtocolRuntimeError carrying the step index (-1 for a declaration);
    a failed assert-closed raises AssertClosedError with the observer and
    differing chamber.
    """
    if not 0 < tol < linalg.MAX_TOL:
        raise DomainError(f"tol must be positive and finite, got {tol};"
                          f" its range is (0, {linalg.MAX_TOL:g})")
    ctx = _Run(tol)
    for decl in ast.declarations:
        try:
            decl.run(ctx)
        except QgasError as exc:
            raise ProtocolRuntimeError(-1, decl.line, str(exc)) from exc
    ctx.lab = LabState(ctx.temperature, ctx.chambers.values(), ctx.dim)

    for index, step in enumerate(ast.steps):
        try:
            step.run(ctx, index)
        except AssertClosedError:
            raise
        except QgasError as exc:
            raise ProtocolRuntimeError(index, step.line, str(exc)) from exc

    return ExecutionResult(ctx.lab, ctx.ledger, ctx.verdicts, ctx.observers)


# ---------------------------------------------------------------------------
# bundled demos

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

DEMO_NAMES = tuple(DEMO_BLURBS)


def demo_source(name: str) -> str:
    """Source text of a bundled demo protocol (byte-identical across runs)."""
    if name not in DEMO_NAMES:
        raise DomainError(
            f"unknown demo {name!r}; available: {', '.join(DEMO_NAMES)}"
        )
    path = Path(__file__).parent / "protocols" / f"{name}.qgp"
    return path.read_text(encoding="utf-8")


def run_demo(name: str, tol: float = linalg.CLOSURE_TOL) -> ExecutionResult:
    return execute(parse(demo_source(name)), tol=tol)
