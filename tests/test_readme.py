"""The README's library example runs as written, so its claims cannot go stale."""

import os

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def library_example():
    """The first python block under the "Library example" heading."""
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    code = library_example()
    assert "assert bch(e1, e2) == e1 + e2 + Fraction(1, 2) * e3" in code
    assert "assert exp_action(" in code
    exec(compile(code, "README.md", "exec"), {})
