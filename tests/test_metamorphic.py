"""Metamorphic oracles on the six bundled demos and on the first seed-1
protocol of each benchmark generator (eigen-d8, long-script): a protocol
rewritten without changing the experiment must report the same ledger and
verdicts.

Each variant is built from the parsed AST with ``dataclasses.replace``, then
rendered and parsed again, so the renderer and the parser are covered too.

- Change of lab basis: one seeded random unitary U applied to every ket of
  the lab dimension, and every ``gas ... matrix`` conjugated by U.  Every
  event's q agrees within 1e-12 n, n the protocol's total moles, and every
  verdict keeps its classification and cycleClosed.
- Amounts: moles times 1e3 multiplies every q by 1e3, within the same
  relative bound, and the verdicts stay equal.
- Volumes: every chamber volume times c leaves every q and verdict.
- Temperature: the temperature times c, with a ``temp`` inserted where a
  protocol has none, multiplies every q by c and leaves every qOverT,
  classification and cycleClosed.
- Names: a suffix on every identifier that is not a keyword, added to the
  rendered text token by token, leaves every q bit for bit and every
  verdict equal once its names lose the suffix.
"""

import dataclasses

import numpy as np
import pytest

from util import generated_sources, random_unitary
from qgas import protocol
from qgas.protocol import (
    DEMO_NAMES,
    KEYWORDS,
    ChamberDecl,
    FillDecl,
    GasDecl,
    KetDecl,
    SpaceDecl,
    TempDecl,
    demo_source,
    execute,
    parse,
    render,
)

# the demos, then the first seed-1 protocol of each generator
SOURCES = {name: demo_source(name) for name in DEMO_NAMES} | {
    name: generated_sources(name, 1)[0] for name in ("eigen-d8", "long-script")}
SCALE = 1e3
FACTORS = (1e-3, 7.0, 1e3)
SUFFIX = "_r"


def run(ast):
    """The result of the AST rendered and parsed again."""
    return execute(parse(render(ast)))


def outcome(result):
    """(kind, q) of every event and (observer, classification, cycleClosed)
    of every verdict."""
    events = [(e.kind, e.heat_absorbed_by_gas) for e in result.ledger.events]
    verdicts = [(v.observer, v.classification, v.cycle_closed)
                for v in result.verdicts]
    return events, verdicts


def transform(ast, node):
    """The AST with every declaration passed through node(decl)."""
    return dataclasses.replace(
        ast, declarations=tuple(node(d) for d in ast.declarations))


def change_basis(ast, u):
    dim = u.shape[0]

    def node(decl):
        if isinstance(decl, KetDecl) and len(decl.amplitudes) == dim:
            return dataclasses.replace(
                decl, amplitudes=tuple(u @ np.array(decl.amplitudes)))
        if isinstance(decl, GasDecl) and decl.matrix is not None:
            m = u @ np.array(decl.matrix) @ u.conj().T
            return dataclasses.replace(decl, matrix=tuple(map(tuple, m)))
        return decl

    return transform(ast, node)


def scale_moles(ast, c):
    def node(decl):
        if isinstance(decl, FillDecl):
            return dataclasses.replace(decl, moles=decl.moles * c)
        return decl

    return transform(ast, node)


def scale_volumes(ast, c):
    def node(decl):
        if isinstance(decl, ChamberDecl):
            return dataclasses.replace(decl, volume=decl.volume * c)
        return decl

    return transform(ast, node)


def scale_temperature(ast, c):
    """The AST at c times its temperature; a protocol without a ``temp``
    runs at 1.0, so it gets ``temp c`` right after its space."""
    decls = ast.declarations
    if not any(isinstance(d, TempDecl) for d in decls):
        at = 1 + next(i for i, d in enumerate(decls) if isinstance(d, SpaceDecl))
        decls = decls[:at] + (TempDecl(1.0),) + decls[at:]
    return transform(dataclasses.replace(ast, declarations=decls),
                     lambda d: (dataclasses.replace(d, value=d.value * c)
                                if isinstance(d, TempDecl) else d))


def rename(text):
    """The text with SUFFIX after every identifier that is not a keyword."""
    lines = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        for tok in reversed(protocol._tokenize(line, lineno)):
            if tok.kind == "id" and tok.text not in KEYWORDS:
                end = tok.column - 1 + len(tok.text)
                line = line[:end] + SUFFIX + line[end:]
        lines.append(line)
    return "\n".join(lines)


def lab_dim(ast):
    (space,) = [d for d in ast.declarations if isinstance(d, SpaceDecl)]
    return space.dim


def total_moles(ast):
    return sum(d.moles for d in ast.declarations if isinstance(d, FillDecl))


def assert_scaled(got, want, c, n):
    (events, verdicts), (want_events, want_verdicts) = got, want
    assert [k for k, _ in events] == [k for k, _ in want_events]
    for (_, q), (_, q0) in zip(events, want_events):
        assert abs(q - c * q0) <= 1e-12 * c * n
    assert verdicts == want_verdicts


@pytest.mark.parametrize("name", SOURCES)
def test_change_of_lab_basis_leaves_the_ledger(name):
    ast = parse(SOURCES[name])
    u = random_unitary(np.random.default_rng(list(SOURCES).index(name)), lab_dim(ast))
    assert_scaled(outcome(run(change_basis(ast, u))), outcome(run(ast)), 1.0,
                  total_moles(ast))


@pytest.mark.parametrize("name", SOURCES)
def test_moles_scale_every_heat(name):
    ast = parse(SOURCES[name])
    assert_scaled(outcome(run(scale_moles(ast, SCALE))), outcome(run(ast)), SCALE,
                  total_moles(ast))


@pytest.mark.parametrize("name", SOURCES)
def test_volumes_leave_every_heat(name):
    ast = parse(SOURCES[name])
    want = outcome(run(ast))
    for c in FACTORS:
        assert_scaled(outcome(run(scale_volumes(ast, c))), want, 1.0,
                      total_moles(ast))


@pytest.mark.parametrize("name", SOURCES)
def test_temperature_scales_every_heat_and_leaves_q_over_t(name):
    ast = parse(SOURCES[name])
    n = total_moles(ast)
    want = run(ast)
    for c in FACTORS:
        got = run(scale_temperature(ast, c))
        assert_scaled(outcome(got), outcome(want), c, n)
        for v, v0 in zip(got.verdicts, want.verdicts):
            assert abs(v.q_over_t - v0.q_over_t) <= 1e-12 * n


@pytest.mark.parametrize("name", SOURCES)
def test_renaming_every_identifier_leaves_the_records(name):
    source = render(parse(SOURCES[name]))
    renamed = rename(source)
    assert renamed != source
    got, want = execute(parse(renamed)), execute(parse(source))
    assert ([(e.kind, e.heat_absorbed_by_gas) for e in got.ledger.events]
            == [(e.kind, e.heat_absorbed_by_gas) for e in want.ledger.events])
    unrenamed = [dataclasses.replace(
        v, observer=v.observer.removesuffix(SUFFIX),
        from_checkpoint=v.from_checkpoint.removesuffix(SUFFIX))
        for v in got.verdicts]
    assert unrenamed == want.verdicts
