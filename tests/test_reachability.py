"""Every top-level definition in the package is reached by a command, the
bench or an acceptance criterion, apart from an explicit allowlist, and so
is every method and property of a reached class.

A name pass over the AST: the roots are cli.main and every identifier in
bench/*.py and tests/test_acceptance.py, and a reached definition reaches
each top-level definition, in any module, whose name appears in its body.
A member of a reached class is reached when its name appears as an
attribute (x.name) in a root or in reached code: a reached top-level
definition other than a class, a reached class outside its methods, or
a reached member.  Dunder methods are always reached.

Every parameter of every function in the package, nested functions and
methods included, is read in its body (a nested function's body counts);
self, cls and names that start with "_" are exempt.
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


def attributes(nodes) -> set:
    return {n.attr for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Attribute)}


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


def roots() -> list:
    paths = [ROOT / "tests" / "test_acceptance.py", *ROOT.glob("bench/*.py")]
    return [ast.parse(p.read_text()) for p in paths]


def reached(defs: dict, trees: list) -> set:
    names = set().union(*(identifiers(tree) for tree in trees))
    todo = {"cli.main"} | {key for key in defs if key.split(".")[1] in names}
    seen = set()
    while todo:
        key = todo.pop()
        seen.add(key)
        used = identifiers(defs[key])
        todo |= {k for k in defs if k.split(".")[1] in used} - seen
    return seen


def unreached() -> set:
    defs = definitions()
    return set(defs) - reached(defs, roots())


def unreached_members() -> set:
    """module.Class.name of each unreached method or property of a reached
    class."""
    defs, code = definitions(), roots()
    members = {}
    for key in reached(defs, code):
        node = defs[key]
        if not isinstance(node, ast.ClassDef):
            code.append(node)
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                members[f"{key}.{item.name}"] = item
            else:
                code.append(item)
    found = {key for key in members if key.split(".")[2].startswith("__")}
    names = attributes(code) | attributes(members[key] for key in found)
    while True:
        new = {key for key in members if key.split(".")[2] in names} - found
        if not new:
            return set(members) - found
        found |= new
        names |= attributes(members[key] for key in new)


def test_every_definition_is_reached_or_allowlisted():
    found = unreached()
    assert not found - ALLOWED, f"unreached: {sorted(found - ALLOWED)}"
    assert not ALLOWED - found, f"reached now: {sorted(ALLOWED - found)}"


def test_every_member_of_a_reached_class_is_reached():
    found = unreached_members()
    assert not found, f"unreached: {sorted(found)}"


def unread_parameters() -> set:
    """module.function: name of each parameter that its function's body
    never reads."""
    found = set()
    for path in sorted((ROOT / "src" / "wignerhvm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            found |= {f"{path.stem}.{node.name}: {name}" for name in params
                      if name not in read and name not in ("self", "cls")
                      and not name.startswith("_")}
    return found


def test_every_parameter_is_read():
    found = unread_parameters()
    assert not found, f"unread: {sorted(found)}"
