"""Layout guards on src/qclab.

Reachability: every top-level function and class has a caller outside the
unit tests.  A name counts as used when another module in src/, tools/,
perfbench/ or the acceptance suite reaches it as `module.name` or imports
it, when perfbench's tracer patches it, or when its own module refers to it
outside its own definition.  Code that only unit tests reach belongs in the
tests (oracles.py) or nowhere; the chain steps below are the named
exceptions.

Bit order: dist.index_of and dist.bits_of are the one bit packing.  No
other module shifts by an np.arange (the way a packing loop is written),
and the helpers that once packed bits elsewhere stay gone.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "qclab"

# steps of the reduction chain, and their settings, that nothing calls yet,
# and the reader of the scheme JSON that commit-suite writes
UNCALLED = {
    ("efi", "EfiParams"),
    ("efi", "efi_sample"),
    ("pseudoentropy", "g_pair_conditional"),
    ("pseudoentropy", "PegParams"),
    ("pseudoentropy", "peg_product"),
    ("pseudoentropy", "distinguisher_to_inverter"),
    ("puzzles", "puzzle_from_owsg"),
    ("commit", "scheme_from_json"),
}


def _module_of(node, in_package):
    """The qclab module an ImportFrom reads from: '' for the package
    itself, None for anything outside qclab."""
    if node.level:
        return (node.module or "") if in_package else None
    if node.module == "qclab":
        return ""
    if node.module and node.module.startswith("qclab."):
        return node.module.split(".", 1)[1]
    return None


def _reached(tree, modules, in_package):
    """(module, name) pairs a file reaches through imports or attributes."""
    aliases, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _module_of(node, in_package)
            if source is None:
                continue
            for alias in node.names:
                if source == "" and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    used.add((source or "__init__", alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qclab.") and alias.asname:
                    aliases[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                used.add((aliases[node.value.id], node.attr))
    return used


def _traced():
    """(module, name) pairs perfbench/tracer.py patches."""
    tree = ast.parse((REPO / "perfbench" / "tracer.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "TARGETS":
            return {(module.split(".", 1)[1], path.split(".")[0])
                    for _, module, path, _ in ast.literal_eval(stmt.value)}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def unused_names():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    defined, used = set(), _traced()
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add((module, stmt.name))
            others = [s for s in tree.body if s is not stmt]
            if any(isinstance(n, ast.Name) and n.id == stmt.name
                   for s in others for n in ast.walk(s)):
                used.add((module, stmt.name))
        used |= _reached(tree, set(trees), in_package=True)
    callers = [REPO / "tests" / "test_acceptance.py"]
    callers += [*(REPO / "tools").glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    for path in callers:
        used |= _reached(ast.parse(path.read_text()), set(trees), in_package=False)
    return defined - used


def test_only_the_named_chain_steps_lack_a_caller():
    assert unused_names() == UNCALLED


PACKING_OWNER = "dist"
RETIRED_PACKERS = {"bits_from_int", "int_from_bits", "bit_table", "basis_index", "basis_bits"}


def hand_packing(trees):
    """(module, line) of each << or >> with an np.arange in an operand,
    outside the owner."""
    found = []
    for module, tree in trees.items():
        if module == PACKING_OWNER:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.RShift)):
                if any(isinstance(n, ast.Attribute) and n.attr == "arange"
                       for operand in (node.left, node.right) for n in ast.walk(operand)):
                    found.append((module, node.lineno))
    return found


def retired_packers(trees):
    """(module, name) of each definition, import or use of a retired packer."""
    found = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            # a def's or import alias's name, an attribute, a bare name
            name = (getattr(node, "name", None) or getattr(node, "attr", None)
                    or getattr(node, "id", None))
            if name in RETIRED_PACKERS:
                found.add((module, name))
    return found


def test_bits_are_packed_only_by_the_owner():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert hand_packing(trees) == []
    assert retired_packers(trees) == set()


def test_guard_sees_an_inline_packing_shift():
    tree = ast.parse("vec[bits @ (1 << np.arange(n))] = 1\n"
                     "def bit_table(width):\n    return gf2.int_from_bits(width)\n")
    assert hand_packing({"gf2": tree}) == [("gf2", 1)]
    assert hand_packing({PACKING_OWNER: tree}) == []
    assert retired_packers({"gf2": tree}) == {("gf2", "bit_table"), ("gf2", "int_from_bits")}
