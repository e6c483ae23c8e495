"""Layout guards on src/qclab.

Reachability: every top-level function and class has a caller outside the
unit tests.  A name counts as used when another module in src/, tools/,
perfbench/ or the acceptance suite reaches it as `module.name` or imports
it, when perfbench's tracer patches it, or when its own module refers to it
outside its own definition.  Code that only unit tests reach belongs in the
tests (oracles.py) or nowhere; the chain steps below are the named
exceptions.  The public methods and properties of src/qclab's classes are
held to the same rule, matched by attribute name: one counts as used when
src/qclab or a file among the same callers reads an attribute of its name,
or when the tracer patches it.  Matching by name cannot tell two classes'
members of one name apart: a read of either counts for both.  So the
public member names that more than one class defines are pinned to the
three shared today (SHARED_MEMBERS): `default` of pseudoentropy.SliceParams
and puzzles.ShadowParams, and `prob` and `support` of dist.Pmf and
dist.JointPmf.  A new collision fails the guard, and whoever adds it checks
that each member of the name has a reader of its own.

Field carriers: no top-level class of src/qclab only carries fields, that
is, has no method but __init__, __repr__ and as_dict and an __init__ that
raises nothing.  Such a class checks nothing a dict or tuple would not, so
a step returns the dict or tuple and takes its settings as arguments.

Settings: every defaulted parameter of a top-level function or class
constructor is passed by some call in src/, tools/, perfbench/ or the
acceptance suite.  A call counts by bare name in its callee's own module,
as `module.name`, or through `from ... import name`.  A default nobody
overrides is a second code path only unit tests reach; the chain steps
in UNCALLED and the settings in UNSET_DEFAULTS are the exceptions.

Bit order: dist.index_of and dist.bits_of are the one bit packing.  No
other module shifts by an np.arange (the way a packing loop is written),
and the helpers that once packed bits elsewhere stay gone.
"""

import ast
import math
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "qclab"

# steps of the reduction chain that nothing calls yet,
# and the reader of the scheme JSON that commit-suite writes
UNCALLED = {
    ("efi", "truncation_for"),
    ("efi", "efi_sample"),
    ("pseudoentropy", "g_pair_conditional"),
    ("pseudoentropy", "peg_product"),
    ("pseudoentropy", "distinguisher_to_inverter"),
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


def _imports(tree, modules, in_package):
    """A file's qclab imports: local module aliases to module names, and
    local names to the (module, name) they were imported as."""
    aliases, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _module_of(node, in_package)
            if source is None:
                continue
            for alias in node.names:
                if source == "" and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (source or "__init__", alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qclab.") and alias.asname:
                    aliases[alias.asname] = alias.name.split(".", 1)[1]
    return aliases, names


def _reached(tree, modules, in_package):
    """(module, name) pairs a file reaches through imports or attributes."""
    aliases, names = _imports(tree, modules, in_package)
    used = set(names.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                used.add((aliases[node.value.id], node.attr))
    return used


def _traced():
    """(module, attribute path) pairs perfbench/tracer.py patches."""
    tree = ast.parse((REPO / "perfbench" / "tracer.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "TARGETS":
            return {(module.split(".", 1)[1], path)
                    for _, module, path, _ in ast.literal_eval(stmt.value)}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _callers():
    """The files outside the package whose calls count: the acceptance
    suite, tools/ and perfbench/, parsed."""
    paths = [REPO / "tests" / "test_acceptance.py",
             *(REPO / "tools").glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    return [ast.parse(path.read_text()) for path in paths]


def unused_names():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    defined = set()
    used = {(module, path.split(".")[0]) for module, path in _traced()}
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
    for tree in _callers():
        used |= _reached(tree, set(trees), in_package=False)
    return defined - used


def test_only_the_named_chain_steps_lack_a_caller():
    assert unused_names() == UNCALLED


def unread_members(trees, callers, traced=frozenset()):
    """(module, class, name) of each public method or property of a
    top-level class in the package modules `trees` whose name no attribute
    in `trees` or `callers` reads and no traced attribute path names."""
    read = {node.attr for tree in [*trees.values(), *callers]
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {part for _, path in traced for part in path.split(".")[1:]}
    unread = set()
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            unread |= {(module, cls.name, fn.name) for fn in cls.body
                       if isinstance(fn, ast.FunctionDef)
                       and not fn.name.startswith("_") and fn.name not in read}
    return unread


def test_every_public_method_has_a_reader():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert unread_members(trees, _callers(), _traced()) == set()


# public member names that more than one class defines, each read on
# every class that defines it
SHARED_MEMBERS = {"default", "prob", "support"}


def shared_member_names(trees):
    """Names of public methods or properties that more than one top-level
    class in the package modules `trees` defines."""
    owners = {}
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    owners.setdefault(fn.name, set()).add((module, cls.name))
    return {name for name, classes in owners.items() if len(classes) > 1}


def test_only_the_named_members_share_a_name():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert shared_member_names(trees) == SHARED_MEMBERS


def test_guard_sees_a_shared_member_name():
    a = ast.parse("class A:\n    def run(self):\n        return 1\n"
                  "    def _own(self):\n        return 2\n")
    b = ast.parse("class B:\n    def run(self):\n        return 3\n"
                  "    def _own(self):\n        return 4\n"
                  "    def other(self):\n        return 5\n")
    assert shared_member_names({"efi": a, "gf2": b}) == {"run"}
    assert shared_member_names({"efi": a}) == set()


def test_guard_sees_an_unread_method():
    tree = ast.parse("class C:\n    def read(self):\n        return self.shown\n"
                     "    def unread(self):\n        return 1\n"
                     "    @property\n    def shown(self):\n        return 2\n"
                     "    def _private(self):\n        return 3\n")
    caller = ast.parse("from qclab import efi\nefi.C().read()\n")
    assert unread_members({"efi": tree}, []) == {("efi", "C", "read"), ("efi", "C", "unread")}
    assert unread_members({"efi": tree}, [caller]) == {("efi", "C", "unread")}
    assert unread_members({"efi": tree}, [], {("efi", "C.read")}) == {("efi", "C", "unread")}


# the methods of a class that only carries fields
CARRIER_METHODS = {"__init__", "__repr__", "as_dict"}


def field_carriers(trees):
    """(module, class) of each top-level class in the package modules
    `trees` whose methods are all CARRIER_METHODS and whose __init__
    raises nothing."""
    found = set()
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = [fn for fn in cls.body if isinstance(fn, ast.FunctionDef)]
            checks = any(isinstance(node, ast.Raise) for fn in methods
                         if fn.name == "__init__" for node in ast.walk(fn))
            if {fn.name for fn in methods} <= CARRIER_METHODS and not checks:
                found.add((module, cls.name))
    return found


def test_no_class_only_carries_fields():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert field_carriers(trees) == set()


def test_guard_sees_a_field_carrier():
    tree = ast.parse("class Report:\n    __slots__ = ('gap',)\n"
                     "    def __init__(self, gap):\n        self.gap = gap\n"
                     "    def __repr__(self):\n        return 'Report'\n"
                     "    def as_dict(self):\n        return {'gap': self.gap}\n"
                     "class Checked:\n    def __init__(self, d):\n"
                     "        if d < 0:\n            raise ValueError(d)\n"
                     "        self.d = d\n"
                     "class Computed:\n    def __init__(self, d):\n        self.d = d\n"
                     "    def value(self):\n        return self.d\n")
    assert field_carriers({"m": tree}) == {("m", "Report")}


# defaults no caller overrides, kept because the binding definition
# quantifies over adversaries: a strategy may hold a private register and
# its own measurement
UNSET_DEFAULTS = {
    ("commit", "AdversaryStrategy", "e_qubits"),
    ("commit", "AdversaryStrategy", "measurement"),
}


def _defaults(tree):
    """(name, parameter, position) of each defaulted parameter of a
    top-level function or class constructor; keyword-only ones have
    position None, and a constructor's positions do not count self."""
    for stmt in tree.body:
        fn, skip = stmt, 0
        if isinstance(stmt, ast.ClassDef):
            fn = next((f for f in stmt.body if isinstance(f, ast.FunctionDef)
                       and f.name == "__init__"), None)
            skip = 1
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        for k in range(len(positional) - len(args.defaults), len(positional)):
            yield stmt.name, positional[k].arg, k - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield stmt.name, arg.arg, None


def _passed(tree, module, modules, in_package):
    """((module, name), positional count, keywords) of each call in a file
    whose callee resolves to a qclab top-level name; a call that unpacks
    * or ** arguments passes every parameter (count inf, keywords None)."""
    aliases, names = _imports(tree, modules, in_package)
    own = {stmt.name for stmt in tree.body
           if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))} if module else set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in own:
            callee = (module, func.id)
        elif isinstance(func, ast.Name) and func.id in names:
            callee = names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in aliases):
            callee = (aliases[func.value.id], func.attr)
        else:
            continue
        keywords = {k.arg for k in node.keywords}
        if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
            yield callee, math.inf, None
        else:
            yield callee, len(node.args), keywords


def unset_defaults(trees, callers):
    """(module, name, parameter) of each defaulted parameter no call in
    the package modules `trees` or the `callers` trees passes, outside
    UNCALLED."""
    calls = []
    for module, tree in trees.items():
        calls += _passed(tree, module, set(trees), in_package=True)
    for tree in callers:
        calls += _passed(tree, None, set(trees), in_package=False)
    unset = set()
    for module, tree in trees.items():
        for name, param, position in _defaults(tree):
            if (module, name) in UNCALLED:
                continue
            if not any(callee == (module, name)
                       and (keywords is None or param in keywords
                            or position is not None and position < count)
                       for callee, count, keywords in calls):
                unset.add((module, name, param))
    return unset


def test_every_default_is_set_by_a_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert unset_defaults(trees, _callers()) == UNSET_DEFAULTS


def test_guard_sees_an_unset_default():
    tree = ast.parse("def f(x, width=None):\n    return x\n"
                     "def g(rng, n=3, *, strict=False):\n    return f(rng)\n"
                     "class C:\n    def __init__(self, a, b=2):\n        g(a, 4)\n"
                     "C(1, 3)\n")
    assert unset_defaults({"m": tree}, []) == {("m", "f", "width"), ("m", "g", "strict")}
    caller = ast.parse("from qclab.m import f\nfrom qclab import m\n"
                       "f(1, width=2)\nm.g(1, **{})\n")
    assert unset_defaults({"m": tree}, [caller]) == set()


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
