import math
import re
import string

import numpy as np
import pytest

import util
from conftest import LN2, P_HI, P_LO, SEPARATION_HEAT
from qgas import linalg, protocol, quantum, thermo
from qgas.errors import (
    AssertClosedError,
    DomainError,
    IndistinguishableError,
    ParseError,
    PovmError,
    ProtocolRuntimeError,
    QgasError,
)
from qgas.protocol import (
    ChamberDecl,
    KetDecl,
    PovmRef,
    SeparateStep,
    execute,
    parse,
    render,
)
from qgas.quantum import Povm

MINI = """\
space lab dim 2
temp 1.0
ket z+ = [1, 0]
ket z- = [0, 1]
gas gz+ from ket z+
gas gz- from ket z-
chamber cell volume 1.0
fill cell { gz+ : 0.5, gz- : 0.5 } moles 1.0
checkpoint start
separate cell by povm { z+, z- } into top bottom
"""


class TestParse:
    def test_single_chamber_declaration(self):
        ast = parse("space s dim 2\nchamber A volume 0.5\n")
        assert ChamberDecl("A", 0.5) in ast.declarations

    def test_complex_literals(self):
        ast = parse("space s dim 2\nket k = [0.5+0.5i, 0.5-0.5i]\n")
        ket = next(d for d in ast.declarations if isinstance(d, KetDecl))
        assert ket.amplitudes == (complex(0.5, 0.5), complex(0.5, -0.5))

    def test_spaced_complex_literals(self):
        ast = parse("space s dim 2\nket k = [0.5 + 0.5i, 1, 0.5 - 0.5i]\n")
        ket = next(d for d in ast.declarations if isinstance(d, KetDecl))
        assert ket.amplitudes == (complex(0.5, 0.5), complex(1, 0),
                                  complex(0.5, -0.5))

    def test_matrix_gas(self):
        ast = parse(
            "space s dim 2\ngas mixed matrix [[0.75, 0.25], [0.25, 0.25]]\n"
        )
        gas = ast.declarations[-1]
        assert gas.matrix == ((0.75, 0.25), (0.25, 0.25))

    def test_comments_and_blank_lines_ignored(self):
        source = "# leading comment\n\nspace s dim 2  # trailing\n\n"
        ast = parse(source)
        assert len(ast.declarations) == 1

    def test_crlf_accepted(self):
        ast = parse(MINI.replace("\n", "\r\n"))
        assert len(ast.steps) == 2

    def test_bundled_demo_structure(self):
        ast = parse(protocol.demo_source("peres-tatiana"))
        space = ast.declarations[0]
        assert space.dim == 4
        tatiana = next(d for d in ast.declarations
                       if getattr(d, "name", None) == "tatiana")
        assert tatiana.table == (("pz+", "z+"), ("pz-", "z-"),
                                 ("dz+", "z+"), ("dz-", "z-"))
        kinds = [type(s).__name__ for s in ast.steps]
        assert kinds == [
            "CheckpointStep", "MixStep", "SeparateStep", "RotateStep",
            "RotateStep", "JoinStep", "PartitionStep", "RotateStep",
            "AssertClosedStep", "AuditStep", "AuditStep",
        ]

    def test_povm_lift_reference(self):
        ast = parse(protocol.demo_source("peres-tatiana"))
        sep = next(s for s in ast.steps if isinstance(s, SeparateStep))
        assert sep.povm == PovmRef(("a+", "a-"), lift="tatiana")


class TestRepeatedLines:
    # a repeated join and split of one cell, as in long generated scripts
    CYCLE = "partition cell at 0.5 into s1 s2\njoin s1 s2 into cell\n"

    def test_each_distinct_line_is_tokenized_once(self, monkeypatch):
        texts = []

        def counting(text, lineno):
            texts.append(text)
            return tokenize(text, lineno)

        tokenize = protocol._tokenize
        monkeypatch.setattr(protocol, "_tokenize", counting)
        source = MINI.replace("checkpoint start\n", "checkpoint start\n"
                              + 3 * self.CYCLE + "\n\n")
        ast = parse(source)
        assert len(ast.steps) == 8
        assert len(texts) == len(set(texts)) == len(set(source.split("\n")))

    def test_name_error_on_a_repeated_line_reports_its_own_line(self):
        source = MINI.replace("checkpoint start\n", "checkpoint start\n"
                              + self.CYCLE + "join s1 s2 into cell\n")
        with pytest.raises(ParseError) as err:
            parse(source)
        lines = source.split("\n")
        first = lines.index("join s1 s2 into cell") + 1
        assert str(err.value) == (f"line {first + 1}, column 6: undeclared chamber"
                                  f" 's1' (at 's1')")


class TestRoundTrip:
    @pytest.mark.parametrize("name", protocol.DEMO_NAMES)
    def test_demo_round_trip(self, name):
        first = parse(protocol.demo_source(name))
        text = render(first)
        second = parse(text)
        assert first == second
        assert render(second) == text

    def test_line_is_keyword_only_and_not_compared(self):
        assert ChamberDecl("A", 0.5) == ChamberDecl("A", 0.5, line=7)
        assert hash(ChamberDecl("A", 0.5)) == hash(ChamberDecl("A", 0.5, line=7))
        assert ChamberDecl("A", 0.5, line=7).line == 7
        with pytest.raises(TypeError):
            ChamberDecl("A", 0.5, 7)

    def test_round_trip_with_complex_numbers(self):
        source = (
            "space s dim 2\n"
            "ket k = [0.7071067811865476+0.0i, 0.0-0.7071067811865476i]\n"
            "gas g matrix [[0.5, 0.25+0.1i], [0.25-0.1i, 0.5]]\n"
        )
        first = parse(source)
        assert parse(render(first)) == first


MALFORMED = [
    ("space lab dim\n", 1),
    ("space lab dim 2\nspace other dim 2\n", 2),
    ("temp 1.0\n", 1),  # no space declaration anywhere
    ("space lab dim 2\nfoo bar\n", 2),
    ("space lab dim 2\nket k = [1, 0\n", 2),
    ("space lab dim 2\nket k = []\n", 2),
    ("space lab dim 2\nket k = [1+i]\n", 2),
    ("space lab dim 2\nket k = [1, 0]\nket k = [0, 1]\n", 3),
    ("space lab dim 2\ngas g from ket missing\n", 2),
    ("space lab dim 2\nket a = [1, 0]\nobserver o table { a a } dim 1\n", 3),
    ("space lab dim 2\nket a = [1, 0]\nobserver o table { a -> a }\n", 3),
    ("space lab dim 2\nchamber c volume big\n", 2),
    ("space lab dim 2\nket a = [1, 0]\ngas g from ket a\nfill nowhere { g : 1.0 } moles 1.0\n", 4),
    ("space lab dim 2\nchamber c volume 1.0\nfill c { ghost : 1.0 } moles 1.0\n", 3),
    ("space lab dim 2\nket a = [1, 0]\ngas g from ket a\nchamber c volume 1.0\nfill c { g : 1.0 }\n", 5),
    ("space lab dim 2\nket a = [1, 0]\nmix a b into c by povm { a }\n", 3),
    ("space lab dim 2\nket a = [1, 0]\nchamber c volume 1.0\nmix c c into d by povm { a }\n", 4),
    ("space lab dim 2\nseparate A by eigenbasis into B C\n", 2),
    ("space lab dim 2\nchamber A volume 1.0\nseparate A by eigenbasis into B\n", 3),
    ("space lab dim 2\nchamber A volume 1.0\nrotate A map { ghost -> ghost }\n", 3),
    ("space lab dim 2\nchamber A volume 1.0\npartition A into B C\n", 3),
    ("space lab dim 2\nchamber A volume 1.0\njoin A missing into B\n", 3),
    ("space lab dim 2\naudit nobody from nowhere\n", 2),
    ("space lab dim 2\nket a = [1, 0]\nchamber A volume 1.0\nassert-closed a from nowhere\n", 4),
    ("space lab dim 2\nchamber A volume 1.0\ncheckpoint s\ncheckpoint s\n", 4),
    ("space lab dim 2\nchamber A volume 1.0\nchamber A volume 2.0\n", 3),
    ("space lab dim 2\nchamber A volume 1.0\ncheckpoint go\nchamber B volume 1.0\n", 4),
    ("space lab dim 2\nket a = [1, 0]\nchamber A volume 1.0\nchamber B volume 1.0\nseparate A by povm lift ghost { a } into C D\n", 5),
    ("space lab dim 2\nchamber A volume 1.0\nchamber B volume 1.0\npartition A at 0.5 into B C\n", 4),
    ("space lab dim 2\nket z = [1, 0]\nchamber A volume 1.0\nseparate A by povm { z } into B B\n", 4),
]


class TestMalformed:
    @pytest.mark.parametrize("source,line", MALFORMED)
    def test_positioned_parse_error(self, source, line):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.line == line
        assert err.value.column >= 1
        lines = source.split("\n")
        assert err.value.line <= len(lines)
        assert err.value.column <= len(lines[err.value.line - 1]) + 1

    def test_undeclared_chamber_position(self):
        source = "space lab dim 2\nseparate A by eigenbasis into B C\n"
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.line == 2
        assert err.value.column == 10  # points at the undeclared name A
        assert "undeclared chamber 'A'" in str(err.value)

    def test_reserved_word_rejected_as_name(self):
        with pytest.raises(ParseError) as err:
            parse("space povm dim 2\n")
        assert "reserved" in str(err.value)


_H = "space lab dim 2\n"
_K = _H + "ket a = [1, 0]\nket b = [0, 1]\n"
_G = _K + "gas g from ket a\n"
_C = _G + "chamber c volume 1.0\nchamber d volume 1.0\n"

# one source per distinct parse-error message, with its exact text
PARSE_ERRORS = [
    # tokenizer
    (_H + "ket k = [1, .]\n",
     "line 2, column 13: malformed number (at '.]')"),
    (_H + "ket k = [1e999, 0]\n",
     "line 2, column 10: non-finite number (at '1e999')"),
    (_H + "ket k = [1, 0] @\n",
     "line 2, column 16: unexpected character (at '@')"),
    # cursor
    (_H + "ket k = [1, 0\n", "line 2, column 14: expected ']'"),
    (_H + "ket k = [1 2i]\n", "line 2, column 12: expected ']' (at '2i')"),
    (_H + "gas m matrix [1, 0]\n", "line 2, column 15: expected '[' (at '1')"),
    (_H + "gas m matrix [[1, 0], 0]\n",
     "line 2, column 23: expected '[' (at '0')"),
    (_G + "chamber c volume 1.0\nfill c { g 1.0 } moles 1.0\n",
     "line 6, column 12: expected ':' (at '1.0')"),
    (_C + "mix c d into e by povm { a b }\n",
     "line 7, column 28: expected '}' (at 'b')"),
    (_C + "rotate c map a -> b\n", "line 7, column 14: expected '{' (at 'a')"),
    (_K + "observer o { a -> a } dim 1\n",
     "line 4, column 12: expected keyword 'table' (at '{')"),
    (_C + "mix c d into e by { a, b }\n",
     "line 7, column 19: expected keyword 'povm' (at '{')"),
    (_C + "rotate c { a -> b }\n",
     "line 7, column 10: expected keyword 'map' (at '{')"),
    (_C + "separate c by eigenbasis d e\n",
     "line 7, column 26: expected keyword 'into' (at 'd')"),
    (_C + "separate c by eigenbasis into\n",
     "line 7, column 30: expected chamber name"),
    (_C + "separate c by eigenbasis into e f ]\n",
     "line 7, column 35: expected chamber name (at ']')"),
    (_H + "gas dim from ket a\n",
     "line 2, column 5: 'dim' is a reserved word, not a valid gas name (at 'dim')"),
    ("space povm dim 2\n",
     "line 1, column 7: 'povm' is a reserved word, not a valid space name"
     " (at 'povm')"),
    (_K + "observer o table { a a } dim 1\n",
     "line 4, column 22: expected '->' (at 'a')"),
    (_H + "chamber c volume\n", "line 2, column 17: expected volume"),
    (_H + "chamber c volume big\n",
     "line 2, column 18: expected volume (at 'big')"),
    (_H + "temp hot\n", "line 2, column 6: expected temperature (at 'hot')"),
    (_G + "chamber c volume 1.0\nfill c { g : 1.0 } moles\n",
     "line 6, column 25: expected moles"),
    (_C + "partition c at half into e f\n",
     "line 7, column 16: expected fraction (at 'half')"),
    ("space lab dim 2.5\n", "line 1, column 15: expected dimension (at '2.5')"),
    (_K + "observer o table { a -> a } dim two\n",
     "line 4, column 33: expected dimension (at 'two')"),
    (_H + "ket k = []\n", "line 2, column 10: expected a number (at ']')"),
    (_H + "ket k = [1i, 0]\n",
     "line 2, column 10: imaginary literal needs a real part first (at '1i')"),
    (_H + "ket k = [1 + 2, 0]\n",
     "line 2, column 14: expected an imaginary literal after sign (at '2')"),
    (_H + "ket k = [1+]\n",
     "line 2, column 12: expected an imaginary literal after sign (at ']')"),
    (_H + "ket k = [1, 0] 2\n",
     "line 2, column 16: unexpected trailing input (at '2')"),
    (_H + "ket k = [1, 0] +\n",
     "line 2, column 16: unexpected trailing input (at '+')"),
    # statement order
    (_H + "[1]\n",
     "line 2, column 1: a statement must start with a keyword (at '[')"),
    (_C + "checkpoint s\nchamber e volume 1.0\n",
     "line 8, column 1: declarations must precede the first step (at 'chamber')"),
    ("ket a = [1, 0]\ncheckpoint s\n",
     "line 2, column 1: missing space declaration before steps (at 'checkpoint')"),
    (_H + "foo bar\n", "line 2, column 1: unknown statement (at 'foo')"),
    ("ket a = [1, 0]\n",
     "line 1, column 1: protocol needs exactly one space declaration"),
    ("# only a comment\n",
     "line 1, column 1: protocol needs exactly one space declaration"),
    (_H + "space other dim 2\n",
     "line 2, column 7: duplicate space declaration (at 'other')"),
    (_H + "temp 1.0\ntemp 2.0\n",
     "line 3, column 6: duplicate temp declaration (at '2.0')"),
    # duplicate and undeclared names
    (_K + "ket a = [0, 1]\n", "line 4, column 5: duplicate ket 'a' (at 'a')"),
    (_G + "gas g from ket b\n", "line 5, column 5: duplicate gas 'g' (at 'g')"),
    (_K + "observer o table { a -> a } dim 1\n"
     "observer o table { a -> a } dim 1\n",
     "line 5, column 10: duplicate observer 'o' (at 'o')"),
    (_H + "chamber c volume 1.0\nchamber c volume 2.0\n",
     "line 3, column 9: duplicate chamber 'c' (at 'c')"),
    (_C + "checkpoint s\ncheckpoint s\n",
     "line 8, column 12: duplicate checkpoint 's' (at 's')"),
    (_H + "gas g from ket missing\n",
     "line 2, column 16: undeclared ket 'missing' (at 'missing')"),
    (_C + "separate c by povm { a, ghost } into e f\n",
     "line 7, column 25: undeclared ket 'ghost' (at 'ghost')"),
    (_C + "fill c { ghost : 1.0 } moles 1.0\n",
     "line 7, column 10: undeclared gas 'ghost' (at 'ghost')"),
    (_H + "audit nobody from s\n",
     "line 2, column 7: undeclared observer 'nobody' (at 'nobody')"),
    (_C + "separate c by povm lift ghost { a, b } into e f\n",
     "line 7, column 25: undeclared observer 'ghost' (at 'ghost')"),
    (_K + "observer o table { a -> a } dim 1\naudit o from nowhere\n",
     "line 5, column 14: undeclared checkpoint 'nowhere' (at 'nowhere')"),
    (_G + "fill nowhere { g : 1.0 } moles 1.0\n",
     "line 5, column 6: undeclared chamber 'nowhere' (at 'nowhere')"),
    # chamber liveness
    (_C + "fill c { g : 1.0 } moles 1.0\nfill c { g : 1.0 } moles 1.0\n",
     "line 8, column 6: chamber 'c' is already filled (at 'c')"),
    (_C + "join c e into f\n", "line 7, column 8: undeclared chamber 'e' (at 'e')"),
    (_C + "join c d into e\nrotate c map { a -> b }\n",
     "line 8, column 8: undeclared chamber 'c' (at 'c')"),
    (_C + "partition c at 0.5 into d e\n",
     "line 7, column 25: chamber 'd' already exists (at 'd')"),
    # target rules
    (_C + "mix c c into e by povm { a, b }\n",
     "line 7, column 7: cannot mix a chamber with itself (at 'c')"),
    (_C + "join c c into e\n",
     "line 7, column 8: cannot join a chamber with itself (at 'c')"),
    (_C + "separate c by eigenbasis into e\n",
     "line 7, column 32: separate needs at least two target chambers"),
    (_C + "separate c by eigenbasis into e e\n",
     "line 7, column 33: duplicate target chamber 'e' (at 'e')"),
    (_C + "partition c at 0.5 into e e\n",
     "line 7, column 27: duplicate target chamber 'e' (at 'e')"),
    # one target rule: per target in order, a repeat and then a live chamber
    (_C + "partition c at 0.5 into d d\n",
     "line 7, column 25: chamber 'd' already exists (at 'd')"),
    (_C + "separate c by eigenbasis into d d\n",
     "line 7, column 31: chamber 'd' already exists (at 'd')"),
]


@pytest.mark.parametrize("source,message", PARSE_ERRORS)
def test_parse_error_message(source, message):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == message


_LEXEME = re.compile(r"->|[^\s{}\[\],:=]+|\S")
_SPARE_TOKENS = ["@", ".", "+", "-", "->", "1i", "+1i", "2.5", "-0", "1e999",
                 "{", "}", "[", "]", ",", ":", "=", "#", "ghost",
                 *sorted(protocol.KEYWORDS)]


def _edit_one_token(rng, source):
    """Delete, swap with its successor, replace or insert one token of one
    line; a new token is a spare one or any token of the source."""
    lines = source.split("\n")
    k = int(rng.integers(len(lines)))
    tokens = _LEXEME.findall(lines[k])
    pool = _SPARE_TOKENS + _LEXEME.findall(source)
    word = pool[int(rng.integers(len(pool)))]
    i = int(rng.integers(len(tokens))) if tokens else 0
    op = int(rng.integers(4)) if tokens else 3
    if op == 0:
        del tokens[i]
    elif op == 1:
        tokens[i:i + 2] = tokens[i:i + 2][::-1]
    elif op == 2:
        tokens[i] = word
    else:
        tokens.insert(i, word)
    lines[k] = " ".join(tokens)
    return "\n".join(lines)


def test_token_edits_parse_or_fail_cleanly(rng):
    sources = [protocol.demo_source(name) for name in protocol.DEMO_NAMES]
    parsed = 0
    for _ in range(500):
        source = _edit_one_token(rng, sources[int(rng.integers(len(sources)))])
        try:
            ast = parse(source)
        except ParseError as err:
            if err.message != "protocol needs exactly one space declaration":
                line = source.split("\n")[err.line - 1]
                assert 1 <= err.column <= len(line) + 1, str(err)
                assert line[err.column - 1:].startswith(err.token), str(err)
            continue
        parsed += 1
        assert parse(render(ast)) == ast
        try:
            execute(ast)
        except QgasError:
            pass
    assert 0 < parsed < 500


# A '[' opening a list of complex literals is read as one vector token.
# Everything below parses each source with that reader and with it switched
# off (a pattern that never matches), where every list is read token by
# token, and requires the same nodes, node lines and rendered text, or the
# same ParseError text.
_NO_VECTORS = re.compile(r"(?!)")
_MUTATION_CHARS = "0123456789.+-eEi ,[]x#"


def _parse_outcome(source):
    try:
        ast = parse(source)
    except ParseError as err:
        return str(err)
    nodes = ast.declarations + ast.steps
    # repr holds each value bit for bit, -0.0 included
    return render(ast), [node.line for node in nodes], repr(ast)


def _both_readers(monkeypatch, sources):
    with_vectors = [_parse_outcome(source) for source in sources]
    with monkeypatch.context() as m:
        m.setattr(protocol, "_ITEM_RE", _NO_VECTORS)
        classic = [_parse_outcome(source) for source in sources]
    return with_vectors, classic


def _one_char_edit(rng, source):
    """Delete, replace or insert one character, three times in four inside
    a bracketed list."""
    spans = [m.span() for m in re.finditer(r"\[[^\n\]]*\]", source)]
    lo, hi = (spans[int(rng.integers(len(spans)))] if spans and rng.random() < 0.75
              else (0, len(source)))
    i = int(rng.integers(lo, hi))
    c = _MUTATION_CHARS[int(rng.integers(len(_MUTATION_CHARS)))]
    op = int(rng.integers(3))
    return source[:i] + ("" if op == 0 else c) + source[i + (op != 2):]


def test_a_complex_list_is_one_vector_token():
    tokens = protocol._tokenize("ket k = [ 1+-2i , 3 - -4i,.5e-3-.2E+2i ]x", 1)
    assert [t.kind for t in tokens] == ["id", "id", "punct", "vector", "id", "end"]
    assert tokens[3].value == (complex(1, -2), complex(3, 4), complex(5e-4, -20))
    assert tokens[3].column == 9 and tokens[4].column == 41


def _list_opens(line):
    """The column of each '[' that opens a value list on a line: each '['
    before its comment, less a matrix's outer one."""
    code = line.partition("#")[0]
    cols = [m.start() + 1 for m in re.finditer(r"\[", code)]
    return cols[1:] if code.split()[2:3] == ["matrix"] else cols


def _generated_sources(seeds):
    return [util.generated_sources(name, seed)
            for name in ("eigen-d8", "long-script") for seed in seeds]


def test_every_value_list_of_the_demos_and_generators_is_one_vector_token():
    # the classic tokens read the same values, only more slowly, so no
    # parse result shows the fast path stop serving a list
    sources = [protocol.demo_source(name) for name in protocol.DEMO_NAMES] + [
        text for texts in _generated_sources((1,)) for text in texts]
    lists = 0
    for line in {line for source in sources for line in source.split("\n")}:
        vectors = [t.column for t in protocol._tokenize(line, 1) if t.kind == "vector"]
        assert vectors == _list_opens(line), line
        lists += len(vectors)
    assert lists > 100


def test_each_matrix_row_is_one_vector_token():
    line = "gas g matrix [[1, 0], [0, 1]]"
    tokens = protocol._tokenize(line, 1)
    assert [t.kind for t in tokens] == [
        "id", "id", "id", "punct", "vector", "punct", "vector", "punct", "end"]
    assert [t.column for t in tokens if t.kind == "vector"] == _list_opens(line) == [15, 23]
    assert [t.value for t in tokens if t.kind == "vector"] == [(1, 0), (0, 1)]


def test_vector_reader_parses_as_the_classic_tokens(monkeypatch):
    demos = [protocol.demo_source(name) for name in protocol.DEMO_NAMES]
    generated = _generated_sources((1, 2))
    rng = np.random.default_rng(28)
    # of each generator's shortest protocol per seed, only the declarations,
    # which hold all its literals, are edited: the steps take most of the time
    heads = [texts[0][:texts[0].index("checkpoint ")] for texts in generated]
    edited = [_one_char_edit(rng, source) for source in demos + heads
              for _ in range(40)]
    sources = demos + [text for texts in generated for text in texts] + edited
    with_vectors, classic = _both_readers(monkeypatch, sources)
    assert with_vectors == classic
    failed = sum(isinstance(outcome, str) for outcome in with_vectors)
    assert 100 < failed < len(edited)


@pytest.mark.parametrize("line, expected", [
    ("ket k = [1+-2i]", (complex(1, -2),)),
    ("ket k = [3 - -4i]", (complex(3, 4),)),
    ("ket k = [.5e-3-.2E+2i, 1]", (complex(5e-4, -20), complex(1, 0))),
    ("ket k = [1 -0i, -0]", (complex(1, -0.0), complex(-0.0, 0))),
    ("ket k = [- 1, 0]", "line 2, column 10: expected a number (at '-')"),
    ("ket k = [1x, 0]", "line 2, column 11: expected ']' (at 'x')"),
    ("ket k = [1.5.5, 0]", "line 2, column 13: expected ']' (at '.5')"),
    ("ket k = [1e999, 0]", "line 2, column 10: non-finite number (at '1e999')"),
    ("ket k = []", "line 2, column 10: expected a number (at ']')"),
    ("ket k = [1,,0]", "line 2, column 12: expected a number (at ',')"),
    ("gas g matrix [0.5, 0]", "line 2, column 15: expected '[' (at '0.5')"),
    ("chamber [1, 0] volume 1", "line 2, column 9: expected chamber name (at '[')"),
])
def test_edge_literals_read_alike(monkeypatch, line, expected):
    with_vectors, classic = _both_readers(monkeypatch, ["space lab dim 2\n" + line])
    assert with_vectors == classic
    (outcome,) = with_vectors
    if isinstance(expected, str):
        assert outcome == expected
    else:
        values = parse("space lab dim 2\n" + line).declarations[1].amplitudes
        assert repr(values) == repr(expected)


class TestExecute:
    def test_mini_protocol(self):
        result = execute(parse(MINI))
        events = result.ledger.events
        assert [e.kind for e in events] == ["checkpoint", "separate"]
        assert events[1].heat_absorbed_by_gas == pytest.approx(-LN2, abs=1e-9)
        assert set(result.final_state.chambers) == {"top", "bottom"}

    def test_eigenbasis_separation(self):
        result = protocol.run_demo("partial-separation")
        (event,) = [e for e in result.ledger.events if e.kind == "separate"]
        assert event.heat_absorbed_by_gas == pytest.approx(-SEPARATION_HEAT, abs=1e-9)
        volumes = sorted(c.volume for c in result.final_state.chambers.values())
        assert volumes == pytest.approx([P_LO, P_HI], abs=1e-9)

    def test_eigenbasis_separation_decomposes_once(self, monkeypatch):
        calls = []
        eig = linalg.hermitian_eig

        def counting(m):
            calls.append(m)
            return eig(m)

        ast = parse(protocol.demo_source("partial-separation"))
        monkeypatch.setattr(linalg, "hermitian_eig", counting)
        execute(ast)
        assert len(calls) == 1

    def test_one_density_matrix_gives_one_set_of_membranes(self, monkeypatch):
        # z+/z- at 0.7/0.3 and t+/t- = (sqrt .7, +-sqrt .3) half and half are
        # different preparations of the non-degenerate diag(0.7, 0.3)
        a, b = repr(math.sqrt(0.7)), repr(math.sqrt(0.3))
        source = (
            "space lab dim 2\ntemp 1.5\nket z+ = [1, 0]\nket z- = [0, 1]\n"
            f"ket t+ = [{a}, {b}]\nket t- = [{a}, -{b}]\n"
            + "".join(f"gas g{k} from ket {k}\n" for k in ("z+", "z-", "t+", "t-"))
            + "chamber z volume 1\nchamber t volume 1\n"
            "fill z { gz+ : 0.7, gz- : 0.3 } moles 0.75\n"
            "fill t { gt+ : 0.5, gt- : 0.5 } moles 0.75\n"
            "separate z by eigenbasis into z0 z1\n"
            "separate t by eigenbasis into t0 t1\n"
        )
        membranes = []
        optimal = protocol.optimal_separation_povm

        def recording(state):
            membranes.append(optimal(state))
            return membranes[-1]

        monkeypatch.setattr(protocol, "optimal_separation_povm", recording)
        events = execute(parse(source)).ledger.events
        from_z, from_t = membranes
        assert all(np.array_equal(a, b)
                   for a, b in zip(from_z.effects, from_t.effects, strict=True))
        entropy = -(0.7 * math.log(0.7) + 0.3 * math.log(0.3))
        assert [e.heat_absorbed_by_gas for e in events] == pytest.approx(
            [-0.75 * 1.5 * entropy] * 2, abs=1e-12)

    def test_eigenbasis_rejects_a_degenerate_aggregate(self):
        # z+/z- half and half is I/2: every basis is an eigenbasis of it
        source = (
            "space lab dim 2\nket z+ = [1, 0]\nket z- = [0, 1]\n"
            "gas gz+ from ket z+\ngas gz- from ket z-\nchamber z volume 1\n"
            "fill z { gz+ : 0.5, gz- : 0.5 } moles 1\n"
            "checkpoint start\nseparate z by eigenbasis into z0 z1\n"
        )
        with pytest.raises(ProtocolRuntimeError) as info:
            execute(parse(source))
        assert info.value.step_index == 1
        assert str(info.value) == (
            "step 1 (line 9): the aggregate state has eigenvalue 0.5 of"
            " multiplicity 2, so its eigenbasis is not unique; name the"
            " membranes with a povm")

    def test_separate_keeps_a_small_mole_gas(self):
        # outcomes were pruned on absolute moles, so 1e-13 moles vanished
        source = (
            "space lab dim 2\nket zp = [1, 0]\nket zm = [0, 1]\n"
            "gas g from ket zp\nchamber c volume 1.0\n"
            "fill c { g : 1.0 } moles 1e-13\n"
            "separate c by povm { zp, zm } into up down\n"
        )
        result = execute(parse(source))
        assert result.ledger.events[-1].description == \
            "separate c by {zp, zm} into up(1V)"
        assert list(result.final_state.chambers) == ["up"]
        assert result.final_state.chambers["up"].moles == 1e-13

    def test_fill_fraction_validation(self):
        bad = MINI.replace("gz+ : 0.5", "gz+ : 0.7")
        with pytest.raises(ProtocolRuntimeError) as err:
            execute(parse(bad))
        assert "sum to 1" in str(err.value)

    def test_runtime_error_carries_step_index(self):
        source = (
            "space lab dim 2\n"
            "ket z+ = [1, 0]\n"
            "ket z- = [0, 1]\n"
            "ket x+ = [1, 1]\n"
            "gas gz from ket z+\n"
            "gas gx from ket x+\n"
            "chamber a volume 0.5\n"
            "chamber b volume 0.5\n"
            "fill a { gz : 1.0 } moles 0.5\n"
            "fill b { gx : 1.0 } moles 0.5\n"
            "mix a b into c by povm { z+, z- }\n"
        )
        with pytest.raises(ProtocolRuntimeError) as err:
            execute(parse(source))
        assert err.value.step_index == 0
        assert err.value.line == 11
        assert isinstance(err.value.__cause__, IndistinguishableError)

    def test_incomplete_povm_is_runtime_error(self):
        source = MINI.replace("povm { z+, z- }", "povm { z+, z+ }")
        with pytest.raises(ProtocolRuntimeError) as err:
            execute(parse(source))
        assert isinstance(err.value.__cause__, PovmError)

    def test_coarse_membranes_cannot_do_the_species_mix(self):
        # replacing the species membranes with the coarse observer's own
        # lifted z membranes: they cannot tell the chambers apart
        source = protocol.demo_source("peres-tatiana").replace(
            "by povm lift species { sp, sd }", "by povm lift tatiana { z+, z- }"
        )
        with pytest.raises(ProtocolRuntimeError) as err:
            execute(parse(source))
        assert isinstance(err.value.__cause__, IndistinguishableError)

    def test_assert_closed_failure_names_chamber(self):
        source = (
            "space lab dim 2\n"
            "ket z+ = [1, 0]\n"
            "ket z- = [0, 1]\n"
            "gas g from ket z+\n"
            "observer me table { z+ -> z+, z- -> z- } dim 2\n"
            "chamber c volume 1.0\n"
            "fill c { g : 1.0 } moles 1.0\n"
            "checkpoint start\n"
            "rotate c map { z+ -> z-, z- -> z+ }\n"
            "assert-closed me from start\n"
        )
        with pytest.raises(AssertClosedError) as err:
            execute(parse(source))
        message = str(err.value)
        assert "me" in message and "'c'" in message

    def test_assert_closed_reports_a_changed_chamber_layout(self):
        source = (
            "space lab dim 2\n"
            "ket z+ = [1, 0]\n"
            "ket z- = [0, 1]\n"
            "gas g from ket z+\n"
            "observer me table { z+ -> z+, z- -> z- } dim 2\n"
            "chamber c volume 1.0\n"
            "fill c { g : 1.0 } moles 1.0\n"
            "checkpoint start\n"
            "partition c at 0.5 into l r\n"
            "assert-closed me from start\n"
        )
        with pytest.raises(AssertClosedError) as err:
            execute(parse(source))
        assert str(err.value).endswith(
            "sees an open cycle from 'start': chamber sets differ: ['c'] vs ['l', 'r']")

    # at 1/2 and above, mix passes an effect passing both chambers
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9, 0.5, 0.6])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(DomainError, match="tol"):
            protocol.run_demo("peres-willard", tol=tol)

    def test_tiny_typed_ket_is_normalized(self):
        # the zero-ket test used to be an absolute norm < 1e-12
        result = execute(parse("space lab dim 2\nket a = [1e-13, 1e-13]\n"
                               "gas g from ket a\nchamber c volume 1.0\n"
                               "fill c { g : 1.0 } moles 1.0\n"))
        state = result.final_state.chambers["c"].state
        assert np.allclose(state.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_unknown_demo(self):
        with pytest.raises(DomainError):
            protocol.demo_source("no-such-demo")

    @pytest.mark.parametrize("name", protocol.DEMO_NAMES)
    def test_all_demos_execute(self, name):
        result = protocol.run_demo(name)
        assert result.ledger.events

    @pytest.mark.parametrize("step, message", [
        ("fill c { g : 1 } moles 1\nseparate c by povm { z+, z- } into x y w",
         "need 2 outcome names, got 3"),
        ("separate c by povm { z+, z- } into x y", "chamber 'c' holds no gas"),
        ("chamber d volume 1\nfill d { g : 1 } moles 1\n"
         "mix c d into m by povm { z+, z- }", "chamber 'c' holds no gas"),
        ("fill c { g : 1 } moles 1\nket a = [1, 0, 0]\nket b = [0, 1, 0]\n"
         "rotate c map { a -> b }", "mapping kets must live in the lab space"),
        # one effect passing both chambers of one gas with certainty: a mix
        # by it would absorb ln 2 that no membrane could give back
        ("ket one = [1]\nobserver blind table { z+ -> one, z- -> one } dim 1\n"
         "chamber d volume 1\nfill c { g : 1 } moles 1\nfill d { g : 1 } moles 1\n"
         "mix c d into m by povm lift blind { one }",
         "effect 'one' passes 'c' with p=1 and 'd' with p=1;"
         " it distinguishes neither chamber with certainty"),
        ("separate c by eigenbasis into x y", "chamber 'c' holds no gas"),
        ("fill c { g : 1 } moles 1\nseparate c by eigenbasis into x y w",
         "need 2 outcome names, got 3"),
        ("fill c { g : 1 } moles 1\npartition c at 0 into l r",
         "fraction must lie in (0, 1), got 0.0"),
        ("fill c { g : 1 } moles 1\npartition c at 1 into l r",
         "fraction must lie in (0, 1), got 1.0"),
        ("fill c { g : 1 } moles 1\npartition c at 1.5 into l r",
         "fraction must lie in (0, 1), got 1.5"),
    ], ids=["outcome-names", "unfilled", "unfilled-mix", "rotate-dim",
            "blind-mix", "unfilled-eigenbasis", "eigenbasis-outcome-names",
            "fraction-0", "fraction-1", "fraction-above-1"])
    def test_bad_step_reported_at_its_line(self, step, message):
        source = DECL_HEAD + "ket z- = [0, 1]\nchamber c volume 1\n" + step + "\n"
        line = source.count("\n")
        with pytest.raises(ProtocolRuntimeError) as err:
            execute(parse(source))
        assert (err.value.step_index, err.value.line) == (0, line)
        assert str(err.value) == f"step 0 (line {line}): {message}"

    @pytest.mark.parametrize("step, volumes", [
        ("rotate e map { z+ -> z-, z- -> z+ }", {"e": 1.0}),
        ("partition e at 0.5 into e0 e1", {"e0": 0.5, "e1": 0.5}),
        ("chamber h volume 1\njoin e h into j", {"j": 2.0}),
    ], ids=["rotate", "partition", "join"])
    def test_steps_keep_an_unfilled_chamber_unfilled(self, step, volumes):
        source = DECL_HEAD + "ket z- = [0, 1]\nchamber e volume 1\n" + step + "\n"
        chambers = execute(parse(source)).final_state.chambers
        assert {name: (ch.volume, ch.moles, ch.state) for name, ch in chambers.items()} \
            == {name: (volume, 0.0, None) for name, volume in volumes.items()}

    # kets orthonormal only within ORTHONORMAL_TOL: the rotation and the
    # observer channel built from them used to move a state's trace by ~1e-10
    NEARLY_ORTHONORMAL = ("space lab dim 2\nket z+ = [1, 0]\nket z- = [0, 1]\n"
                          "ket a = [0.6, 0.8]\nket b = [0.8, -0.6000000001]\n")

    def test_nearly_orthonormal_mapping_rotates(self):
        result = execute(parse(
            self.NEARLY_ORTHONORMAL + "gas g from ket z+\nchamber c volume 1.0\n"
            "fill c { g : 1.0 } moles 1.0\nrotate c map { a -> z+, b -> z- }\n"))
        np.testing.assert_allclose(result.final_state.chambers["c"].state.matrix,
                                   [[0.36, 0.48], [0.48, 0.64]], atol=1e-9)

    def test_nearly_orthonormal_observer_audits(self):
        result = execute(parse(
            self.NEARLY_ORTHONORMAL + "ket x+ = [1, 1]\ngas g from ket x+\n"
            "observer v table { z+ -> a, z- -> b } dim 2\n"
            "chamber c volume 1.0\nfill c { g : 1.0 } moles 1.0\n"
            "checkpoint start\naudit v from start\n"))
        assert [v.classification for v in result.verdicts] == ["consistent"]

    def test_nearly_orthonormal_povm_separates(self):
        # the effects used to sum to 1 - 7.7e-11 on z+, losing that much gas
        result = execute(parse(
            self.NEARLY_ORTHONORMAL + "gas g from ket z+\nchamber c volume 1.0\n"
            "fill c { g : 1.0 } moles 1.0\nseparate c by povm { a, b } into l r\n"))
        chambers = result.final_state.chambers
        assert set(chambers) == {"l", "r"}
        assert abs(sum(c.moles for c in chambers.values()) - 1.0) <= 1e-15
        assert abs(sum(c.volume for c in chambers.values()) - 1.0) <= 1e-15

    def test_demo_sources_are_stable(self):
        assert protocol.demo_source("peres-tatiana") == protocol.demo_source(
            "peres-tatiana"
        )


DECL_HEAD = "space lab dim 2\nket z+ = [1, 0]\ngas g from ket z+\n"


#: (source, line, message) of a protocol whose first bad declaration is
#: reported at its line; every DomainError a declaration raises is pinned here
DECLARATION_ERRORS = [
    (DECL_HEAD + "chamber c volume -1\nfill c { g : 1 } moles 1\n",
     4, "volume must be positive and finite, got -1.0"),
    (DECL_HEAD + "chamber c volume 0\n",
     4, "volume must be positive and finite, got 0.0"),
    (DECL_HEAD + "chamber c volume -1\nchamber d volume 1\n"
     "fill d { g : 0.7 } moles 1\n",
     4, "volume must be positive and finite, got -1.0"),
    ("ket z+ = [1, 0]\ngas g from ket z+\nspace lab dim 2\n",
     2, "gas 'g' is declared before the space"),
    ("ket z+ = [1, 0]\nobserver o table { z+ -> z+ } dim 1\n"
     "space lab dim 2\n",
     2, "observer 'o' is declared before the space"),
    ("space lab dim 9\n", 1, "space dimension 9 outside 1..8"),
    ("space lab dim 2\ngas g matrix [[1]]\n",
     2, "gas 'g' has dim 1, lab space has dim 2"),
    (DECL_HEAD + "ket t = [1, 0, 0]\nket o = [1]\n"
     "observer v table { t -> o } dim 1\n",
     6, "observer 'v' table needs lab kets of dim 2, got 3"),
    (DECL_HEAD + "ket o = [1, 0]\nobserver v table { z+ -> o } dim 1\n",
     5, "observer kets must have dimension 1"),
    ("space lab dim 2\nket k = [1, 0, 0, 0, 0, 0, 0, 0, 0]\n",
     2, "ket length 9 outside 1..8"),
    (DECL_HEAD + "gas h from ket z+\nchamber c volume 1\n"
     "fill c { g : -0.5, h : 1.5 } moles 1\n",
     6, "fill fractions must be positive"),
    (DECL_HEAD + "chamber c volume 1\nfill c { g : 1 } moles -1\n",
     5, "fill moles must be positive"),
    (DECL_HEAD + "gas h from ket z+\nchamber c volume 1\n"
     "fill c { g : 0.5, h : 0.6 } moles 1\n",
     6, "fill fractions must sum to 1, got 1.1"),
]


class TestDeclarationErrors:
    """Declarations run in source order, so the first bad one is reported
    at its own line."""

    @pytest.mark.parametrize("source, line, message", DECLARATION_ERRORS, ids=[
        "chamber-then-fill", "volume-0", "before-a-later-fill", "gas", "observer",
        "space-dim", "gas-dim", "observer-lab-dim", "observer-ket-dim",
        "ket-length", "fill-fraction-sign", "fill-moles", "fill-sum"])
    def test_first_bad_declaration_reported_at_its_line(self, source, line, message):
        with pytest.raises(ProtocolRuntimeError) as err:
            execute(parse(source))
        assert (err.value.step_index, err.value.line) == (-1, line)
        assert str(err.value) == f"declaration (line {line}): {message}"


class TestLedgerDetails:
    def test_quantum_cycle_ledger(self):
        result = protocol.run_demo("peres-tatiana")
        by_kind = {}
        for e in result.ledger.events:
            by_kind.setdefault(e.kind, []).append(e.heat_absorbed_by_gas)
        assert by_kind["mix"] == [pytest.approx(LN2, abs=1e-9)]
        assert by_kind["separate"] == [pytest.approx(-SEPARATION_HEAT, abs=1e-9)]
        assert all(q == 0 for q in by_kind["rotate"])
        assert all(q == 0 for q in by_kind["join"])
        assert all(q == 0 for q in by_kind["partition"])

    def test_closing_separations_cost_ln2(self):
        result = protocol.run_demo("peres-willard")
        separations = [e for e in result.ledger.events if e.kind == "separate"]
        closing = sum(e.heat_absorbed_by_gas for e in separations[1:])
        assert -closing == pytest.approx(LN2, abs=1e-9)

    def test_final_chambers_match_start_exactly(self):
        result = protocol.run_demo("peres-willard")
        up = result.final_state.chambers["up"]
        low = result.final_state.chambers["low"]
        assert up.volume == pytest.approx(0.5, abs=1e-12)
        pz = np.zeros((4, 4))
        pz[0, 0] = 1
        assert np.max(np.abs(up.state.matrix - pz)) < 1e-9
        dx = np.zeros((4, 4))
        dx[2:, 2:] = 0.5
        assert np.max(np.abs(low.state.matrix - dx)) < 1e-9


REUSE_HEAD = """\
space lab dim 2
ket z+ = [1, 0]
ket z- = [0, 1]
ket x+ = [1, 1]
ket x- = [1, -1]
gas up from ket z+
gas down from ket z-
chamber a volume 0.5
chamber b volume 0.5
fill a { up : 1.0 } moles 0.5
fill b { down : 1.0 } moles 0.5
checkpoint start
"""

REUSE_BLOCK = """\
mix a b into m by povm { z+, z- }
separate m by povm { z+, z- } into a b
rotate a map { z+ -> x+, z- -> x- }
rotate a map { x+ -> z+, x- -> z- }
"""


class TestOperatorReuse:
    def test_each_operator_built_once(self, monkeypatch):
        built = {"povm": 0, "unitary": 0}
        post_init = Povm.__post_init__
        rotation_unitary = thermo.rotation_unitary

        def counting_post_init(povm):
            built["povm"] += 1
            post_init(povm)

        def counting_unitary(*args):
            built["unitary"] += 1
            return rotation_unitary(*args)

        monkeypatch.setattr(Povm, "__post_init__", counting_post_init)
        monkeypatch.setattr(thermo, "rotation_unitary", counting_unitary)
        result = execute(parse(REUSE_HEAD + REUSE_BLOCK * 5))
        assert [e.kind for e in result.ledger.events[1:5]] == [
            "mix", "separate", "rotate", "rotate"]
        assert len(result.ledger.events) == 1 + 4 * 5
        # one membrane for every mix and separate, one rotation per mapping,
        # each rotation a one-effect Povm
        assert built == {"povm": 3, "unitary": 2}

    @pytest.mark.parametrize("step, message", [
        ("rotate a map { z+ -> x+, z- -> x+ }", "image kets are not orthonormal"),
        ("mix a b into m by povm { z+, x+ }", "effects do not resolve the identity"),
    ], ids=["rotation", "membrane"])
    def test_bad_operator_fails_at_its_first_use(self, step, message):
        source = REUSE_HEAD + REUSE_BLOCK * 2 + step + "\n"
        with pytest.raises(ProtocolRuntimeError) as err:
            execute(parse(source))
        assert (err.value.step_index, err.value.line) == (9, 21)
        assert str(err.value).startswith(f"step 9 (line 21): {message}")


PERES = """\
space lab dim 4
ket pz+ = [1, 0, 0, 0]
ket pz- = [0, 1, 0, 0]
ket dz+ = [0, 0, 1, 0]
ket dz- = [0, 0, 0, 1]
ket px+ = [$c, $s, 0, 0]
ket dx+ = [0, 0, $c, $s]
ket pa+ = [$ch, $sh, 0, 0]
ket pa- = [-$sh, $ch, 0, 0]
ket da+ = [0, 0, $ch, $sh]
ket da- = [0, 0, -$sh, $ch]
ket z+ = [1, 0]
ket z- = [0, 1]
ket a+ = [$ch, $sh]
ket a- = [-$sh, $ch]
ket sp = [1, 0]
ket sd = [0, 1]
observer tatiana table { pz+ -> z+, pz- -> z-, dz+ -> z+, dz- -> z- } dim 2
observer species table { pz+ -> sp, pz- -> sp, dz+ -> sd, dz- -> sd } dim 2
gas p-gas from ket pz+
gas d-gas from ket dx+
chamber up volume 0.5
chamber low volume 0.5
fill up { p-gas : 1.0 } moles 0.5
fill low { d-gas : 1.0 } moles 0.5
checkpoint start
mix up low into cell by povm lift species { sp, sd }
separate cell by povm lift tatiana { a+, a- } into hi lo
rotate hi map { pa+ -> pz+, da+ -> dz+ }
rotate lo map { pa- -> pz+, da- -> dz+ }
join hi lo into cell
partition cell at 0.5 into up low
rotate low map { pz+ -> px+, dz+ -> dx+ }
assert-closed tatiana from start
audit tatiana from start
"""


@pytest.mark.parametrize("theta", [math.pi / 2 * k / 8 for k in range(1, 9)])
def test_peres_cycle_heat_closed_form(theta):
    """The peres-tatiana cycle with the second gas at angle theta and the
    alpha membranes at theta/2: the coarse observer sees a closed cycle
    with heat ln 2 - H((1 + cos theta)/2), H the Shannon entropy in nats."""
    angles = {"c": math.cos(theta), "s": math.sin(theta),
              "ch": math.cos(theta / 2), "sh": math.sin(theta / 2)}
    source = string.Template(PERES).substitute(
        {k: repr(v) for k, v in angles.items()})
    (verdict,) = execute(parse(source)).verdicts
    p = (1 + math.cos(theta)) / 2
    entropy = -p * math.log(p) - (1 - p) * math.log(1 - p)
    assert verdict.cycle_closed
    assert verdict.q_total == pytest.approx(LN2 - entropy, abs=1e-9)


def _number(z) -> str:
    re_, im = repr(float(z.real)), float(z.imag)
    return re_ if im == 0 else f"{re_}{'-' if im < 0 else '+'}{abs(im)!r}i"


def growth_protocol(rounds: int) -> str:
    """A dim-4 fill of a pure gas p and a gas d that overlaps it, then
    ``rounds`` of: separate by a lifted POVM, join the outcomes back, and
    rotate into a fixed random basis r0..r3, audited from the fill."""
    u = util.random_unitary(np.random.default_rng(11), 4)
    lines = ["space lab dim 4"]
    lines += [f"ket e{i} = [{', '.join(_number(z) for z in np.eye(4)[i])}]"
              for i in range(4)]
    lines += [f"ket r{i} = [{', '.join(_number(z) for z in u[:, i])}]"
              for i in range(4)]
    lines += ["ket z+ = [1, 0]", "ket z- = [0, 1]",
              "observer t table { e0 -> z+, e1 -> z-, e2 -> z+, e3 -> z- } dim 2",
              "observer id table { e0 -> e0, e1 -> e1, e2 -> e2, e3 -> e3 } dim 4",
              "gas p from ket e0", "gas d from ket r2",
              "chamber cell volume 1.0", "fill cell { p : 0.5, d : 0.5 } moles 1.0",
              "checkpoint s"]
    lines += ["separate cell by povm lift t { z+, z- } into hi lo",
              "join hi lo into cell",
              "rotate cell map { e0 -> r0, e1 -> r1, e2 -> r2, e3 -> r3 }"] * rounds
    lines.append("audit id from s")
    return "\n".join(lines) + "\n"


class TestGrowthProtocol:
    """Every round would multiply the states a chamber kept by 4 if it kept
    one per gas and outcome it came from; it keeps one."""

    def test_each_separation_updates_one_state(self, monkeypatch):
        sizes = []

        def counting(ops, matrices):
            sizes.append(len(matrices))
            return updates(ops, matrices)

        updates = quantum._updates
        monkeypatch.setattr(quantum, "_updates", counting)
        monkeypatch.setattr(thermo, "_updates", counting)
        execute(parse(growth_protocol(12)))
        # 12 separations and 12 rotations, each the update of one state
        assert sizes == [1] * 24

    def test_heat_matches_the_per_gas_history(self):
        # qTotal at 8 rounds when every chamber kept each gas's share and
        # state separately: the one mean state must give the same heat
        (verdict,) = execute(parse(growth_protocol(8))).verdicts
        assert abs(verdict.q_total - -4.913050226135732) <= 1e-12
