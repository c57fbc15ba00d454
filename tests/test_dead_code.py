"""No dead helpers: every import in the package, its scripts and its tests
is used, and in the package every module-level function and class is
named outside its own definition and every function reads each of its
parameters. And one seam for gradients: only ``_GradTarget._accumulate``
adds into a ``.grad``, only ``autodiff._make`` records a graph node, and
only backward reads a node's gradient functions."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "dualfuse")
# where a package name may be used: the package, its scripts and the
# benchmark (tests do not count, so a helper only a test calls is dead)
USERS = [os.path.join(ROOT, d) for d in ("src", "scripts", "perfbench")]
# where every import must be used: the package, its scripts and its tests
IMPORTERS = [PACKAGE] + [os.path.join(ROOT, d) for d in ("scripts", "tests")]


def parse_tree(top: str) -> dict:
    trees = {}
    for folder, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    trees[path] = ast.parse(fh.read(), path)
    return trees


def names_in(node) -> set:
    """Every name ``node`` reads, as a variable, an attribute or an
    imported name."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
    return found


@pytest.fixture(scope="module")
def trees() -> dict:
    found = {}
    for top in USERS:
        found.update(parse_tree(top))
    return found


def package_modules(trees: dict) -> list:
    return sorted(p for p in trees if p.startswith(PACKAGE + os.sep))


def test_no_module_imports_a_name_it_never_uses():
    trees = {}
    for top in IMPORTERS:
        trees.update(parse_tree(top))
    unused = []
    for path, tree in sorted(trees.items()):
        read = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unused.append("%s: %s" % (os.path.relpath(path, ROOT),
                                                  bound))
    assert unused == []


def test_every_module_level_function_and_class_is_named_elsewhere(trees):
    # per file and top-level statement, the names it reads: a definition
    # counts as used when any statement but its own names it
    reads = {(path, i): names_in(stmt) for path, tree in trees.items()
             for i, stmt in enumerate(tree.body)}
    dead = []
    for path in package_modules(trees):
        for i, stmt in enumerate(trees[path].body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not any(
                    stmt.name in names for where, names in reads.items()
                    if where != (path, i)):
                dead.append("%s: %s" % (os.path.relpath(path, ROOT),
                                        stmt.name))
    assert dead == []


# (module, function, parameter) that a caller fixes but the body need not
# read, each with its reason
UNREAD_ALLOWED = {
    # argparse dispatch calls every subcommand handler with the namespace
    ("cli.py", "_cmd_bench", "args"),
    # the benchmark's workloads pass cfg positionally; dropping it changes
    # them (ROADMAP item 12)
    ("model.py", "fuse_pair_arrays", "cfg"),
}


def unread_parameters(trees: dict) -> set:
    """(module, function, parameter) for every parameter a function of the
    package never reads; self and *varargs (an ``__exit__(*exc)``) are
    exempt."""
    unread = set()
    for path in package_modules(trees):
        for fn in ast.walk(trees[path]):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            args = fn.args
            names = [a.arg for a in args.posonlyargs + args.args
                     + args.kwonlyargs] + ([args.kwarg.arg] if args.kwarg
                                           else [])
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)}
            where = (os.path.basename(path), getattr(fn, "name", "<lambda>"))
            unread.update((*where, name) for name in names
                          if name != "self" and name not in read)
    return unread


def test_every_function_reads_each_of_its_parameters(trees):
    assert sorted(unread_parameters(trees) - UNREAD_ALLOWED) == []


def test_every_allowed_parameter_exists_and_is_still_unread(trees):
    # a stale entry fails here instead of lingering
    assert sorted(UNREAD_ALLOWED - unread_parameters(trees)) == []


# (module, function, statement) of each store to a ``.grad`` or into one
# that is not a None clear, each with its reason. Only ``_accumulate`` adds
# into a gradient, so every contribution passes that one seam.
GRAD_STORES_ALLOWED = {
    # a target's first contribution is copied in, every later one added
    ("autodiff.py", "_GradTarget._accumulate", "Assign"),
    ("autodiff.py", "_GradTarget._accumulate", "AugAssign"),
}


def stores_to_grad(target) -> bool:
    """Whether an assignment target stores to a ``.grad`` attribute or to a
    subscript of one."""
    if isinstance(target, ast.Tuple):
        return any(map(stores_to_grad, target.elts))
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr == "grad"


def scoped_nodes(trees: dict):
    """(module, enclosing function, node) for every syntax node of the
    package but the function and class definitions themselves, whose
    bodies are listed under their dotted names."""
    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name], module)
                continue
            yield module, ".".join(scope), child
            yield from visit(child, scope, module)

    for path in package_modules(trees):
        yield from visit(trees[path], [], os.path.basename(path))


def grad_stores(trees: dict) -> set:
    """(module, enclosing function, statement type) of every store to a
    ``.grad`` in the package but a store of None."""
    found = set()
    for module, scope, node in scoped_nodes(trees):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            cleared = isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Constant) \
                and node.value.value is None
            if not cleared and any(map(stores_to_grad, targets)):
                found.add((module, scope, type(node).__name__))
    return found


def test_only_accumulate_adds_into_a_gradient(trees):
    found = grad_stores(trees)
    assert sorted(found - GRAD_STORES_ALLOWED) == []
    assert sorted(GRAD_STORES_ALLOWED - found) == []


# (module, function, use) of each ``Node(...)`` call and each read of a
# ``.grad_fns``, each with its reason. One constructor records every graph
# node, and one backward loop applies its gradient functions.
NODE_USES_ALLOWED = {
    # every op returns through _make, which alone records a node
    ("autodiff.py", "_make", "Node"),
    # the one backward loop, in both processes, applies a node's functions
    ("autodiff.py", "_run", "grad_fns"),
    # a spent node (functions None) refuses a second backward
    ("autodiff.py", "Tensor.backward", "grad_fns"),
}


def node_uses(trees: dict) -> set:
    """(module, enclosing function, use) of every call to ``Node`` (bare
    or as a module attribute) and every load of a ``.grad_fns`` in the
    package."""
    found = set()
    for module, scope, node in scoped_nodes(trees):
        if isinstance(node, ast.Call) and "Node" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.add((module, scope, "Node"))
        elif isinstance(node, ast.Attribute) and node.attr == "grad_fns" \
                and isinstance(node.ctx, ast.Load):
            found.add((module, scope, "grad_fns"))
    return found


def test_only_make_records_a_node_and_only_backward_reads_its_functions(trees):
    found = node_uses(trees)
    assert sorted(found - NODE_USES_ALLOWED) == []
    assert sorted(NODE_USES_ALLOWED - found) == []
