"""List the statements of ``src/leibrack`` that no fingerprinted CLI op runs.

    python3 tools/reach.py CHECKOUT

Runs ``cli_fingerprints.fingerprints(CHECKOUT, None, (1,))``: every op of
every bench workload, ``DATA_CASES`` and ``USAGE_CASES``, at seed 1, in
process, under ``sys.settrace``, with line events recorded only for the
files of ``CHECKOUT/src/leibrack``.  So the op list is the fingerprint
tool's, not a second copy.

A statement is an ``ast`` statement in a function body (methods and nested
functions included), keyed by its first line: a statement that spans
lines counts once.  Docstrings, ``global`` and ``nonlocal``, and the
nested ``def`` and ``class`` statements themselves are left out; the body
of a nested function counts under its own name.  A statement is reached
when a line event fires on a line of its head: any of its lines for a
simple statement, the lines up to its first inner statement for a
compound one.

Prints one line per function with unreached statements,
``module:qualified.name LINE ...``, by module and first line, and then the
last line ``N of M statements unreached``.  Standard library only.
"""

import argparse
import ast
import os
import sys

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = (*FUNCTIONS, ast.ClassDef)
INNER = (ast.stmt, ast.excepthandler, ast.match_case)
DECLARATIONS = (ast.Global, ast.Nonlocal)  # compiled to no code, so never traced


def statements(source):
    """``{first line: (function, head lines)}`` for the function-body statements of a module.

    ``function`` is the dotted name of the innermost enclosing function,
    with its classes and outer functions, such as ``Endomorphism.inverse``.
    """
    found = {}

    def walk(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                name = prefix + child.name
                walk(child, name if isinstance(child, FUNCTIONS) else None, name + ".")
            elif isinstance(child, INNER):
                docstring = (
                    isinstance(node, FUNCTIONS)
                    and child is node.body[0]
                    and ast.get_docstring(node, clean=False) is not None
                )
                counted = isinstance(child, ast.stmt) and not isinstance(child, DECLARATIONS)
                if owner and counted and not docstring:
                    inner = [c.lineno for c in ast.iter_child_nodes(child) if isinstance(c, INNER)]
                    end = max(child.lineno, min(inner) - 1) if inner else child.end_lineno
                    found.setdefault(child.lineno, (owner, range(child.lineno, end + 1)))
                walk(child, owner, prefix)

    walk(ast.parse(source), None, "")
    return found


def traced_lines(root, call):
    """Run ``call()`` and return the (file, line) pairs of its line events in files under ``root``."""
    root = os.path.join(root, "")
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return hits


def unreached(package, hits):
    """The ``(module, function, first line)`` of each statement under ``package`` that no hit reaches.

    Returns them with the number of statements counted.
    """
    missed, total = [], 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as handle:
            found = statements(handle.read())
        total += len(found)
        for line, (owner, head) in sorted(found.items()):
            if not any((path, h) in hits for h in head):
                missed.append((name[:-3], owner, line))
    return missed, total


def report(missed, total):
    """The grouped lines and the closing count, as ``main`` prints them."""
    groups = {}
    for module, owner, line in missed:
        groups.setdefault(f"{module}:{owner}", []).append(line)
    lines = [f"{key} {' '.join(map(str, found))}" for key, found in groups.items()]
    return [*lines, f"{len(missed)} of {total} statements unreached"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", help="the repository whose src/leibrack is measured")
    checkout = os.path.abspath(parser.parse_args(argv).checkout)
    package = os.path.join(checkout, "src", "leibrack")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import cli_fingerprints

    hits = traced_lines(package, lambda: cli_fingerprints.fingerprints(checkout, None, (1,)))
    print("\n".join(report(*unreached(package, hits))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
