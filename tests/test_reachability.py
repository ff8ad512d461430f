"""Every top-level definition in the package is reached by a command, the
bench or an acceptance criterion, apart from an explicit allowlist.

A name pass over the AST: the roots are cli.main and every identifier in
bench/*.py and tests/test_acceptance.py, and a reached definition reaches
each top-level definition, in any module, whose name appears in its body.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# kept for open ROADMAP items: homodyne_density for the reverse direction
# on homodyne data (item 7), BOUNDARY_DECAY for the resolution gate (item 1)
ALLOWED = {"oracle.homodyne_density", "wigner.BOUNDARY_DECAY"}


def identifiers(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def definitions() -> dict:
    """module.name -> node of each top-level def, class and assignment."""
    defs = {}
    for path in sorted((ROOT / "src" / "wignerhvm").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            defs.update((f"{path.stem}.{name}", node) for name in names
                        if not name.startswith("__"))
    return defs


def unreached() -> set:
    defs = definitions()
    roots = [ROOT / "tests" / "test_acceptance.py", *ROOT.glob("bench/*.py")]
    names = set().union(*(identifiers(ast.parse(p.read_text()))
                          for p in roots))
    todo = {"cli.main"} | {key for key in defs if key.split(".")[1] in names}
    seen = set()
    while todo:
        key = todo.pop()
        seen.add(key)
        used = identifiers(defs[key])
        todo |= {k for k in defs if k.split(".")[1] in used} - seen
    return set(defs) - seen


def test_every_definition_is_reached_or_allowlisted():
    found = unreached()
    assert not found - ALLOWED, f"unreached: {sorted(found - ALLOWED)}"
    assert not ALLOWED - found, f"reached now: {sorted(ALLOWED - found)}"
