"""Every file the package writes goes through ``io.write_text``, which
overwrites in place.  Truncating open modes, ``O_TRUNC``, renames over the
output and unlink-then-create all stall on ext4 writeback when a file is
rewritten, so this test fails if package code uses one, the writer included."""

import ast
from pathlib import Path

import versegraph

# os and shutil functions that replace or remove a path instead of rewriting the file
REPLACING_CALLS = {"replace", "rename", "renames", "unlink", "remove", "move"}


def _mode(call: ast.Call):
    if len(call.args) > 1:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "mode"), None)


def _violations(source: str, filename: str) -> list[str]:
    """Describe each truncating or replacing write in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"{filename}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Name) and node.id == "O_TRUNC" or (
            isinstance(node, ast.Attribute) and node.attr == "O_TRUNC"
        ):
            found.append(f"{where}: O_TRUNC")
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" or (
            isinstance(func, ast.Attribute) and func.attr == "open"
            and not (isinstance(func.value, ast.Name) and func.value.id == "os")
        ):
            mode = _mode(node)
            if mode is not None and not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")
            ):
                found.append(f"{where}: open() with mode {ast.unparse(mode)}")
        elif isinstance(func, ast.Attribute):
            receiver = func.value.id if isinstance(func.value, ast.Name) else None
            if receiver in ("os", "shutil") and func.attr in REPLACING_CALLS:
                found.append(f"{where}: {receiver}.{func.attr}()")
            elif func.attr in ("write_text", "write_bytes") and receiver != "io":
                found.append(f"{where}: {ast.unparse(func)}() truncates")
    return found


def test_package_writes_only_through_write_text():
    sources = sorted(Path(versegraph.__file__).parent.glob("*.py"))
    assert {"io.py", "cli.py"} <= {p.name for p in sources}
    found = [v for p in sources for v in _violations(p.read_text(), p.name)]
    assert found == []


def test_guard_flags_each_truncating_write():
    bad = """
import os, shutil
def save(path, text, mode):
    with open(path, "w") as fh: fh.write(text)
    open(path, mode="a+")
    open(path, mode)
    fd = os.open(path, os.O_WRONLY | os.O_TRUNC)
    os.replace(path + ".tmp", path)
    os.unlink(path)
    shutil.move(path, path + ".old")
    Path(path).write_text(text)
"""
    found = _violations(bad, "cli.py")
    assert sorted(int(v.split(":")[1]) for v in found) == list(range(4, 12)), found
    ok = """
import os
def write_text(path, text):
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    io.write_text(path, "x")
    with open(path) as fh, open(path, "rb") as raw: return fh.read()
"""
    assert _violations(ok, "io.py") == []
