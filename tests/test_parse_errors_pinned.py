"""Every parse-error message that ``protocol.py`` can raise is pinned by a
case of ``test_protocol.PARSE_ERRORS``, and every declaration's
``DomainError`` by a case of ``test_protocol.DECLARATION_ERRORS``: a
message added without a pinned case fails here."""

import ast
import re
from pathlib import Path

import qgas
from test_protocol import DECLARATION_ERRORS, PARSE_ERRORS

SOURCE = Path(qgas.__file__).parent / "protocol.py"
TREE = ast.parse(SOURCE.read_text(encoding="utf-8"))


def _pattern(message: ast.expr) -> str | None:
    """A message written out, as a regex with every f-string field a
    wildcard; None for a message passed on from elsewhere."""
    if not isinstance(message, (ast.Constant, ast.JoinedStr)):
        return None
    parts = message.values if isinstance(message, ast.JoinedStr) else [message]
    return "".join(re.escape(part.value) if isinstance(part, ast.Constant)
                   else ".+" for part in parts)


def message_templates() -> list[tuple[int, str]]:
    """The line and message pattern of each ``error(...)`` or
    ``ParseError(...)`` call in protocol.py that writes its message out."""
    templates = []
    for node in ast.walk(TREE):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "error":
            message = node.args[0]
        elif isinstance(func, ast.Name) and func.id == "ParseError":
            message = node.args[2]
        else:
            continue
        pattern = _pattern(message)
        if pattern is not None:
            templates.append((node.lineno, pattern))
    return templates


def domain_error_templates() -> list[tuple[int, str]]:
    """The line and message pattern of each ``DomainError(...)`` raised
    inside a class of protocol.py: the declarations and the run state they
    build, not the module's own argument checks."""
    return [(node.lineno, _pattern(node.args[0]))
            for cls in ast.walk(TREE) if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "DomainError"]


def test_every_parse_error_message_is_pinned():
    templates = message_templates()
    assert len(templates) >= 20
    pinned = [message for _, message in PARSE_ERRORS]
    unpinned = [f"protocol.py:{line}: {pattern}"
                for line, pattern in templates
                if not any(re.fullmatch(rf"line \d+, column \d+: {pattern}"
                                        rf"( \(at .*\))?", m) for m in pinned)]
    assert not unpinned, (
        "parse errors with no PARSE_ERRORS case:\n" + "\n".join(unpinned))


def test_every_declaration_error_message_is_pinned():
    templates = domain_error_templates()
    assert len(templates) >= 7
    pinned = [message for _, _, message in DECLARATION_ERRORS]
    unpinned = [f"protocol.py:{line}: {pattern}"
                for line, pattern in templates
                if not any(re.fullmatch(pattern, m) for m in pinned)]
    assert not unpinned, (
        "declaration errors with no DECLARATION_ERRORS case:\n" + "\n".join(unpinned))
