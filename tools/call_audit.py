"""List the functions of src/ffdioph that nothing ever calls.

Run from the root of a checkout:

    python tools/call_audit.py

A ``sys.setprofile`` hook records every Python function entered while
the Tier-1 suite runs in this process (``pytest.main`` on ``tests``)
and while each script in ``demos/`` runs through ``runpy``.  Every
``def`` in ``src/ffdioph`` whose code object was never entered, and
that is not on the keep-list below, is printed as ``path:line
qualname``.  The exit code is 1 if any is printed or the suite fails,
0 otherwise.

Subprocesses are not traced: code reached only from a child process
(the ``python -m ffdioph`` entry-point test) counts as never called.
Only the standard library and pytest are used; the audit is not part of
Tier-1 and takes a few times the suite's own wall time.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "ffdioph")

# Never called, but kept: deleting one would change Python's default
# behaviour without an error, make a value type unhashable, or drop
# debug output.
KEEP = {
    # NEG_INF must order, hash and absorb like a degree even where no
    # current path asks it to; without these Python falls back to
    # identity hashing and reflected int comparisons.
    "_NegInf.__hash__",
    "_NegInf.__le__",
    "_NegInf.__ge__",
    "_NegInf.__add__",
    "_NegInf.__neg__",
    # these classes define __eq__, so dropping __hash__ makes them
    # unhashable
    "FieldSpec.__hash__",
    "RatFn.__hash__",
    "QPow.__hash__",
    # without it every Poly is truthy, the zero polynomial included
    "Poly.__bool__",
    # without them equality falls back to identity
    "LaurentMat.__eq__",
    "PolyMat.__eq__",
}


def _kept(qualname):
    return qualname in KEEP or qualname.endswith(".__repr__")


def _defs(path):
    """(first line of the code object, qualname) of every def in a file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                # a decorated function's code starts at its first decorator
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out.append((first, name))
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def _run_traced():
    """Run Tier-1 and the demos under the hook; (entered codes, status)."""
    import pytest

    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.path[:0] = [SRC]
    os.chdir(ROOT)
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
        demos = os.path.join(ROOT, "demos")
        for name in sorted(os.listdir(demos)):
            if name.endswith(".py"):
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(os.path.join(demos, name),
                                   run_name="__main__")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen, status


def main():
    seen, status = _run_traced()
    entered = {(os.path.abspath(c.co_filename), c.co_firstlineno)
               for c in seen}
    missing = []
    for dirpath, _, files in os.walk(PKG):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            for line, qualname in _defs(path):
                if (path, line) not in entered and not _kept(qualname):
                    missing.append((os.path.relpath(path, ROOT), line,
                                    qualname))
    print(f"never called outside the keep-list: {len(missing)}")
    for path, line, qualname in sorted(missing):
        print(f"{path}:{line} {qualname}")
    return 1 if missing or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
