"""Metamorphic oracles on the six bundled demos: a protocol rewritten
without changing the experiment must report the same ledger and verdicts.

Each variant is built from the parsed AST with ``dataclasses.replace``, then
rendered and parsed again, so the renderer and the parser are covered too.

- Change of lab basis: one seeded random unitary U applied to every ket of
  the lab dimension, and every ``gas ... matrix`` conjugated by U.  Every
  event's q agrees within 1e-12 n, n the protocol's total moles, and every
  verdict keeps its classification and cycleClosed.
- Amounts: moles times 1e3 multiplies every q by 1e3, within the same
  relative bound, and the verdicts stay equal.
"""

import dataclasses

import numpy as np
import pytest

from util import random_unitary
from qgas.protocol import (
    DEMO_NAMES,
    FillDecl,
    GasDecl,
    KetDecl,
    SpaceDecl,
    demo_source,
    execute,
    parse,
    render,
)

SCALE = 1e3


def outcome(ast):
    """(kind, q) of every event and (observer, classification, cycleClosed)
    of every verdict, from the AST rendered and parsed again."""
    result = execute(parse(render(ast)))
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


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_change_of_lab_basis_leaves_the_ledger(name):
    ast = parse(demo_source(name))
    u = random_unitary(np.random.default_rng(DEMO_NAMES.index(name)), lab_dim(ast))
    assert_scaled(outcome(change_basis(ast, u)), outcome(ast), 1.0,
                  total_moles(ast))


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_moles_scale_every_heat(name):
    ast = parse(demo_source(name))
    assert_scaled(outcome(scale_moles(ast, SCALE)), outcome(ast), SCALE,
                  total_moles(ast))
