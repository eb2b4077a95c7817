"""The README's library sketch runs and gives the results its comments
state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch() -> str:
    """The python block under the README's ``## Library sketch`` heading."""
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_sketch_gives_its_commented_results():
    block = library_sketch()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        literal, _, domain = comment.strip().partition(" on ")
        if not literal.startswith("("):
            continue
        assert eval(code, namespace) == ast.literal_eval(literal), line
        if domain:
            # A distribution's mass on the lattice lo..hi.
            lo, hi = (float(x) for x in domain.split(".."))
            values = eval(code.strip().removesuffix(".mass"), namespace).values()
            assert (values[0], values[-1]) == (lo, hi), line
        checked.append(literal)
    assert checked == ["(8.0, 0.0, 32.0)", "(1, 0, 6, 0, 1)"]
