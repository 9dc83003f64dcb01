"""The package's module layering, read from the source with ast.

stream owns the update-stream format and depends on no report or command
code; bench keeps corpora and reports and takes the format from stream;
cli runs jobs through other modules' public names only.
"""

import ast
from pathlib import Path

import dynlsh

PACKAGE = Path(dynlsh.__file__).parent

# the update-stream names that live in stream, and bench must not define
STREAM_NAMES = {
    "_PARSE_CHUNK_ROWS", "_READ_BLOCK_CHARS", "_MAX_DIGITS", "_REPLAY_BLOCK", "_KEY_BITS",
    "_MAX_ROWS", "_opened", "_update_lines", "read_stream", "_read_stream", "_columns",
    "_parse_canonical", "_decimal", "_parse_header", "_parse_lines", "replay", "_replay",
    "_counters", "read_sets",
}


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(module):
    """(source module, imported name) of every import module makes from within dynlsh.

    `from . import bench` gives ("bench", "bench"); `import dynlsh.bench`
    gives ("bench", None).
    """
    out = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "dynlsh"):
            source = (node.module or "").removeprefix("dynlsh").lstrip(".")
            out += [(source or alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [
                (alias.name.removeprefix("dynlsh").lstrip("."), None)
                for alias in node.names
                if alias.name.split(".")[0] == "dynlsh"
            ]
    return out


def _defined(module):
    """The names module binds at its top level: functions, classes and assignments."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_cli_imports_only_public_names():
    private = [(source, name) for source, name in _package_imports("cli") if name and name.startswith("_")]
    assert private == []


def test_stream_imports_nothing_from_bench_or_cli():
    above = [source for source, _ in _package_imports("stream") if source.split(".")[0] in ("bench", "cli")]
    assert above == []


def test_bench_defines_none_of_the_stream_names():
    assert sorted(_defined("bench") & STREAM_NAMES) == []


def test_stream_defines_the_stream_names():
    assert sorted(STREAM_NAMES - {"_read_stream", "_replay"} - _defined("stream")) == []
