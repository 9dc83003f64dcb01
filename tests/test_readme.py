"""README's Quick start runs as written and prints what its comments say.

An expression line whose comment is a Python literal must give exactly that
value; one whose comment starts with ~ must round to the digits shown.
Prose comments are not checked.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    """The first python block under README's Quick start heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _comments(source):
    """Each line's trailing comment, without the # and surrounding blanks."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}


def _expected(comment):
    """("exact", value) for a literal, ("approx", digits) for ~digits, else None."""
    if match := re.match(r"~(\d+(?:\.\d+)?)\b", comment):
        return "approx", match.group(1)
    try:
        return "exact", ast.literal_eval(comment)
    except (ValueError, SyntaxError):
        return None


def test_quick_start_gives_its_commented_results():
    source = _quick_start()
    comments = _comments(source)
    namespace, checked = {}, []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        expected = _expected(comments.get(node.end_lineno, ""))
        if not isinstance(node, ast.Expr) or expected is None:
            exec(compile(code, str(README), "exec"), namespace)
            continue
        got = eval(compile(code, str(README), "eval"), namespace)
        kind, want = expected
        if kind == "approx":
            decimals = len(want.partition(".")[2])
            checked.append((code, f"{got:.{decimals}f}", want))
        else:
            checked.append((code, got, want))
    assert [(code, got) for code, got, _ in checked] == [(code, want) for code, _, want in checked]
    # three exact results and three approximate ones: none was dropped from the check
    assert len(checked) == 6
