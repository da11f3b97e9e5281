"""Command-line front end: run protocol files and replay bundled demos.

Exit codes: 0 on success (apparent second-law violations are findings, not
failures), 1 on parse or runtime errors and on any unexpected internal
error, 2 when an assert-closed step fails.
Reports go to stdout, errors to stderr; this module alone renders them.
The ``records`` format emits one line-delimited record per ledger event and
per verdict, stable to 12 significant digits, byte-identical across
identical invocations, and read back by ``parse_records``.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass

from . import linalg, protocol
from .audit import Verdict
from .errors import (
    AssertClosedError,
    DomainError,
    ParseError,
    ProtocolRuntimeError,
    QgasError,
)
from .observers import view
from .thermo import LedgerEvent, eigen_mixture


@dataclass
class CliConfig:
    command: str  # run | demo | list-demos
    target: str | None = None  # file path or demo name
    format: str = "table"  # a key of FORMATS
    tol: float = linalg.CLOSURE_TOL
    observer: str | None = None

    def __post_init__(self):
        if self.format not in FORMATS:
            raise DomainError(f"format must be one of {', '.join(FORMATS)},"
                              f" got {self.format!r}")


def _snap(x: float) -> float:
    # round-off prints as 0, and never as -0
    return 0.0 if abs(x) < linalg.SNAP_TOL else x


def _cfmt(z: complex) -> str:
    real, imag = _snap(z.real), _snap(z.imag)
    if imag == 0.0:
        return f"{real:.6g}"
    return f"{real:.6g}{imag:+.6g}i"


def _contents_text(state) -> str:
    """A view chamber's state as its eigen-mixture, one ket per term."""
    if state is None:
        return "(empty)"
    terms = []
    for weight, term in eigen_mixture(state):
        _, vecs = linalg.hermitian_eig(term.matrix)
        ket = ", ".join(_cfmt(x) for x in vecs[:, 0])
        terms.append(f"{weight:.6g} * ({ket})")
    return "  +  ".join(terms)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _unescape(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _event_record(e: LedgerEvent) -> str:
    return (
        f"event step={e.step_index} kind={e.kind}"
        f" q={e.heat_absorbed_by_gas:.12g} w={e.work_done_by_gas:.12g}"
        f' desc="{_escape(e.description)}"'
    )


def _verdict_fields(v: Verdict) -> str:
    """A verdict as key=value fields: a records line after "verdict ", a
    table line after two spaces."""
    closed = "true" if v.cycle_closed else "false"
    return (
        f"observer={v.observer} from={v.from_checkpoint}"
        f" qTotal={v.q_total:.12g} qOverT={v.q_over_t:.12g}"
        f" cycleClosed={closed} classification={v.classification}"
    )


def _verdicts(result: protocol.ExecutionResult, observer_filter) -> list[Verdict]:
    return [v for v in result.verdicts if observer_filter in (None, v.observer)]


def _render_table(result: protocol.ExecutionResult, observer_filter) -> str:
    lines = ["ledger:",
             f"  {'step':>4}  {'kind':<10}  {'Q':>16}  {'W':>16}  description"]
    lines.extend(
        f"  {e.step_index:>4}  {e.kind:<10}"
        f"  {e.heat_absorbed_by_gas:>16.12g}"
        f"  {e.work_done_by_gas:>16.12g}  {e.description}"
        for e in result.ledger.events
    )
    verdicts = _verdicts(result, observer_filter)
    if verdicts:
        lines.append("verdicts:")
        lines.extend("  " + _verdict_fields(v) for v in verdicts)
    names = result.observers
    if observer_filter is not None:
        names = {observer_filter: result.observers[observer_filter]}
    if names:
        lines.append("final views:")
    for obs in names.values():
        lines.append(f"  observer {obs.name}:")
        lines.extend(f"    {ch.name}: V={ch.volume:.6g} n={ch.moles:.6g}"
                     f"  {_contents_text(ch.state)}"
                     for ch in view(obs, result.final_state).chambers.values())
    return "\n".join(lines) + "\n"


def _render_records(result: protocol.ExecutionResult, observer_filter) -> str:
    lines = [_event_record(e) for e in result.ledger.events]
    lines.extend("verdict " + _verdict_fields(v)
                 for v in _verdicts(result, observer_filter))
    return "\n".join(lines) + "\n"


#: --format name -> renderer of an execution result
FORMATS = {"table": _render_table, "records": _render_records}

_FIELD_RE = re.compile(r'(\w+)=("(?:[^"\\]|\\.)*"|\S+)')
#: every field the records writers emit -> the type parse_records returns;
#: a field not named here stays text
_FIELD_TYPES = {"step": int, "kind": str, "q": float, "w": float, "desc": str,
                "observer": str, "from": str, "qTotal": float, "qOverT": float,
                "cycleClosed": bool, "classification": str}


def parse_records(text: str) -> list[dict]:
    """Parse records output back into typed dicts (inverse of _render_records)."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind not in ("event", "verdict"):
            raise ValueError(f"unknown record type {kind!r}")
        fields: dict = {"type": kind}
        for m in _FIELD_RE.finditer(rest):
            key, value = m.group(1), m.group(2)
            if value.startswith('"'):
                value = _unescape(value[1:-1])
            to = _FIELD_TYPES.get(key, str)
            fields[key] = value == "true" if to is bool else to(value)
        out.append(fields)
    return out


def run_command(config: CliConfig) -> tuple[int, str, str]:
    """Execute one CLI command; returns (exit_code, stdout, stderr)."""
    if config.command == "list-demos":
        lines = [f"{name}: {protocol.DEMO_BLURBS[name]}"
                 for name in protocol.DEMO_NAMES]
        return 0, "\n".join(lines) + "\n", ""

    try:
        if config.command == "demo":
            source = protocol.demo_source(config.target)
        elif config.command == "run":
            try:
                # utf-8-sig also accepts the byte-order mark some editors write
                with open(config.target, encoding="utf-8-sig") as handle:
                    source = handle.read()
            except OSError as exc:
                return 1, "", f"error: {exc}\n"
            except UnicodeDecodeError as exc:
                return 1, "", f"error: {config.target}: {exc}\n"
        else:
            return 1, "", f"error: unknown command {config.command!r}\n"

        ast = protocol.parse(source)
        result = protocol.execute(ast, tol=config.tol)
        if config.observer is not None and config.observer not in result.observers:
            return 1, "", f"error: no observer named {config.observer!r}\n"
        return 0, FORMATS[config.format](result, config.observer), ""
    except ParseError as exc:
        return 1, "", f"parse error: {exc}\n"
    except AssertClosedError as exc:
        return 2, "", f"assert-closed failed: {exc}\n"
    except ProtocolRuntimeError as exc:
        return 1, "", f"runtime error: {exc}\n"
    except QgasError as exc:
        return 1, "", f"error: {exc}\n"
    except Exception as exc:
        return 1, "", f"internal error: {type(exc).__name__}: {exc}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qgas",
        description="Run membrane protocols on quantum ideal gases and audit"
                    " the second law per observer.",
    )
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="execute a protocol file")
    run_p.add_argument("target", metavar="path", help="protocol source file")
    demo_p = sub.add_parser("demo", help="replay a bundled demo")
    demo_p.add_argument("target", metavar="name", help="demo name (see list-demos)")
    sub.add_parser("list-demos", help="list the bundled demos")
    for sp in (run_p, demo_p):
        sp.add_argument("--format", choices=FORMATS,
                        default="table", help="output format")
        sp.add_argument("--tol", type=float, default=linalg.CLOSURE_TOL,
                        help=f"slack of mix, closure and Q/(nT); in (0, {linalg.MAX_TOL:g})")
        sp.add_argument("--observer", default=None,
                        help="restrict verdicts and views to one observer")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        config = CliConfig(**vars(args))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    code, out, err = run_command(config)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code
