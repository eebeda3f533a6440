"""Static gate: every module-level name in the package is used somewhere in it.

A function, class or assigned name at module level counts as used when some
code in ``src/onlinepred`` outside its own definitions names it: as a loaded
name, as an attribute or in an import.  Self-recursion and a name's own
re-assignments do not count, and dunders are the interpreter's.
"""

import ast
from pathlib import Path

import onlinepred

SRC = Path(onlinepred.__file__).parent

# Module-level names with no caller in the package, each with the caller that keeps it
ALLOWED_UNUSED = {
    "ski_demand.demand_level_error": "bench/cases.py, the demand-eval workload",
    "ski_demand.demand_opt_levels": "bench/cases.py, the demand-eval workload",
}


def package_sources():
    """``{module: source}`` for every module of the package."""
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def definitions(tree):
    """(name, statement) for each module-level function, class and assigned name."""
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield statement.name, statement
        elif isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            for node in (node for target in targets for node in ast.walk(target)):
                if isinstance(node, ast.Name):
                    yield node.id, statement


def uses(tree):
    """(name, node) for each node that uses a name: loaded, as an attribute or imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node


def dead_names(sources):
    """The sorted ``module.name`` of each module-level name no code outside its
    own definitions uses, over the modules ``{module: source}``."""
    trees = {module: ast.parse(source, module) for module, source in sources.items()}
    used_at = {}
    for tree in trees.values():
        for name, node in uses(tree):
            used_at.setdefault(name, set()).add(id(node))
    dead = set()
    for module, tree in trees.items():
        defined = {}
        for name, statement in definitions(tree):
            defined.setdefault(name, set()).update(map(id, ast.walk(statement)))
        dead.update(
            f"{module}.{name}" for name, own in defined.items()
            if not (name.startswith("__") and name.endswith("__"))
            and not used_at.get(name, set()) - own
        )
    return sorted(dead)


def test_every_module_level_name_is_used_in_the_package():
    assert dead_names(package_sources()) == sorted(ALLOWED_UNUSED)


def test_gate_flags_planted_unused_names():
    # a function that only calls itself, and a constant only its own update reads
    sources = package_sources()
    sources["workloads"] += (
        "\n\ndef _planted(seed):\n    return _planted(seed - 1) if seed else _words(seed)\n"
        "\n\n_PLANTED = 1\n_PLANTED += _PLANTED\n"
    )
    found = dead_names(sources)
    assert found == sorted([*ALLOWED_UNUSED, "workloads._planted", "workloads._PLANTED"])
