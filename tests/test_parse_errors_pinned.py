"""Every parse-error message that ``protocol.py`` can raise is pinned by a
case of ``test_protocol.PARSE_ERRORS``: a message added without a pinned
case fails here."""

import ast
import re
from pathlib import Path

import qgas
from test_protocol import PARSE_ERRORS

SOURCE = Path(qgas.__file__).parent / "protocol.py"


def message_templates() -> list[tuple[int, str]]:
    """The line and message of each ``error(...)`` or ``ParseError(...)``
    call in protocol.py that writes its message out, as a regex with every
    f-string field a wildcard."""
    templates = []
    for node in ast.walk(ast.parse(SOURCE.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "error":
            message = node.args[0]
        elif isinstance(func, ast.Name) and func.id == "ParseError":
            message = node.args[2]
        else:
            continue
        if not isinstance(message, (ast.Constant, ast.JoinedStr)):
            continue  # passes on a message written elsewhere
        parts = message.values if isinstance(message, ast.JoinedStr) else [message]
        pattern = "".join(re.escape(part.value) if isinstance(part, ast.Constant)
                          else ".+" for part in parts)
        templates.append((node.lineno, pattern))
    return templates


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
