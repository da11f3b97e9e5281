"""Command-line front end: run protocol files and replay bundled demos.

Exit codes: 0 on success (apparent second-law violations are findings, not
failures), 1 on parse or runtime errors and on any unexpected internal
error, 2 when an assert-closed step fails.
Reports go to stdout, errors to stderr.  The ``records`` format emits one
line-delimited record per ledger event and per verdict, stable to 12
significant digits and byte-identical across identical invocations.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass

from . import linalg, protocol
from .errors import (
    AssertClosedError,
    DomainError,
    ParseError,
    ProtocolRuntimeError,
    QgasError,
)
from .observers import ObserverView, view


@dataclass
class CliConfig:
    command: str  # run | demo | list-demos
    target: str | None = None  # file path or demo name
    format: str = "table"  # table | records
    tol: float = 1e-9
    observer: str | None = None

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise DomainError(f"tol must be positive and finite, got {self.tol}")


def _snap(x: float) -> float:
    # round-off below 1e-12 prints as 0, and never as -0
    return 0.0 if abs(x) < 1e-12 else x


def _cfmt(z: complex) -> str:
    real, imag = _snap(z.real), _snap(z.imag)
    if imag == 0.0:
        return f"{real:.6g}"
    return f"{real:.6g}{imag:+.6g}i"


def _mixture_text(mixture) -> str:
    if not mixture:
        return "(empty)"
    terms = []
    for weight, state in mixture:
        _, vecs = linalg.hermitian_eig(state.matrix)
        ket = ", ".join(_cfmt(x) for x in vecs[:, 0])
        terms.append(f"{weight:.6g} * ({ket})")
    return "  +  ".join(terms)


def _render_views(views: list[ObserverView]) -> list[str]:
    if not views:
        return []
    lines = ["final views:"]
    for ov in views:
        lines.append(f"  observer {ov.observer}:")
        for ch in ov.chambers:
            lines.append(
                f"    {ch.name}: V={ch.volume:.6g} n={ch.moles:.6g}"
                f"  {_mixture_text(ch.mixture)}"
            )
    return lines


def _verdict_records(result: protocol.ExecutionResult, observer_filter) -> list[str]:
    return [v.to_record() for v in result.verdicts
            if observer_filter in (None, v.observer)]


def _render_table(result: protocol.ExecutionResult, observer_filter) -> str:
    lines = ["ledger:"]
    lines.extend(result.ledger.to_table())
    verdicts = _verdict_records(result, observer_filter)
    if verdicts:
        lines.append("verdicts:")
        lines.extend("  " + v.removeprefix("verdict ") for v in verdicts)
    names = result.observers
    if observer_filter is not None:
        names = {observer_filter: result.observers[observer_filter]}
    views = [view(obs, result.final_state) for obs in names.values()]
    lines.extend(_render_views(views))
    return "\n".join(lines) + "\n"


def _render_records(result: protocol.ExecutionResult, observer_filter) -> str:
    lines = result.ledger.to_records() + _verdict_records(result, observer_filter)
    return "\n".join(lines) + "\n"


_FIELD_RE = re.compile(r'(\w+)=("(?:[^"\\]|\\.)*"|\S+)')


def parse_records(text: str) -> list[dict]:
    """Parse records output back into typed dicts (inverse of rendering)."""
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
                value = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
            fields[key] = value
        for key in ("q", "w", "qTotal", "qOverT"):
            if key in fields:
                fields[key] = float(fields[key])
        if "step" in fields:
            fields["step"] = int(fields["step"])
        if "cycleClosed" in fields:
            fields["cycleClosed"] = fields["cycleClosed"] == "true"
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
                with open(config.target, encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as exc:
                return 1, "", f"error: {exc}\n"
        else:
            return 1, "", f"error: unknown command {config.command!r}\n"

        ast = protocol.parse(source)
        result = protocol.execute(ast, tol=config.tol)
        if config.observer is not None and config.observer not in result.observers:
            return 1, "", f"error: no observer named {config.observer!r}\n"
        if config.format == "records":
            return 0, _render_records(result, config.observer), ""
        return 0, _render_table(result, config.observer), ""
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
    run_p.add_argument("path", help="protocol source file")
    demo_p = sub.add_parser("demo", help="replay a bundled demo")
    demo_p.add_argument("name", help="demo name (see list-demos)")
    sub.add_parser("list-demos", help="list the bundled demos")
    for sp in (run_p, demo_p):
        sp.add_argument("--format", choices=("table", "records"),
                        default="table", help="output format")
        sp.add_argument("--tol", type=float, default=1e-9,
                        help="tolerance for audits and cycle closure")
        sp.add_argument("--observer", default=None,
                        help="restrict verdicts and views to one observer")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        config = CliConfig(
            command=args.command,
            target=getattr(args, "path", None) or getattr(args, "name", None),
            format=getattr(args, "format", "table"),
            tol=getattr(args, "tol", 1e-9),
            observer=getattr(args, "observer", None),
        )
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    code, out, err = run_command(config)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code
