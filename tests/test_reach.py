"""The statement counter and line tracer of tools/reach.py, on a synthetic module.

The CLI ops that ``tools/reach.py`` traces are not run here: that takes
about 15 s, and the CI job that compares base and head runs them.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

SOURCE = '''\
X = 1


def f(a):
    """A docstring."""
    global X
    total = (
        a
    )
    def g():
        return 2
    if a:
        total += g()
    return total


class K:
    y = 3

    def m(self):
        """Another docstring."""
        return self.y
'''


def test_statements_of_function_bodies_by_first_line():
    found = reach.statements(SOURCE)
    # module and class-body lines, the docstrings (5, 21), the global (6)
    # and the nested def (10) are left out
    assert sorted(found) == [7, 11, 12, 13, 14, 22]
    assert {line: owner for line, (owner, _) in found.items()} == {
        7: "f", 11: "f.g", 12: "f", 13: "f", 14: "f", 22: "K.m",
    }
    # a statement over three lines counts once, and any of its lines reaches it
    assert found[7][1] == range(7, 10)
    # a compound statement's head stops before its first inner statement
    assert found[12][1] == range(12, 13)


def test_unreached_statements_of_a_traced_call(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    path = package / "mod.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("reach_synthetic_mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hits = reach.traced_lines(str(package), lambda: module.f(0))
    assert reach.report(*reach.unreached(str(package), hits)) == [
        "mod:f.g 11",
        "mod:f 13",
        "mod:K.m 22",
        "3 of 6 statements unreached",
    ]
