"""Import layering of the package, read from its sources with ``ast``:
the module graph has no cycle, the model module stands below training,
evaluation, the CLI and the data generators, and every import of a
crossrec module sits at module level."""

import ast
import os

import crossrec

PACKAGE_DIR = os.path.dirname(crossrec.__file__)


def imported_modules(node: ast.AST) -> set:
    """Names of the crossrec modules that the imports under ``node``
    name, relative or absolute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom):
            base = sub.module or ""
            if sub.level == 0:
                if not (base == "crossrec" or base.startswith("crossrec.")):
                    continue
                base = base[len("crossrec."):] if "." in base else ""
            if base:
                found.add(base.split(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Import):
            found.update(alias.name.split(".")[1] for alias in sub.names
                         if alias.name.startswith("crossrec."))
    return found


def package_sources() -> dict:
    return {name[:-3]: ast.parse(open(os.path.join(PACKAGE_DIR, name), encoding="utf-8").read())
            for name in sorted(os.listdir(PACKAGE_DIR)) if name.endswith(".py")}


def import_graph() -> dict:
    """module -> the package modules it imports anywhere in its source,
    function-local imports included."""
    sources = package_sources()
    return {name: imported_modules(tree) & set(sources) - {name}
            for name, tree in sources.items()}


def find_cycle(graph: dict):
    """One import cycle as a list of modules, or None."""
    state = {}  # module -> "open" while on the walk's stack, "done" after

    def visit(module, stack):
        state[module] = "open"
        stack.append(module)
        for dep in sorted(graph[module]):
            if state.get(dep) == "open":
                return stack[stack.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, stack)
                if cycle:
                    return cycle
        stack.pop()
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module, [])
            if cycle:
                return cycle
    return None


def test_imports_are_read_from_every_module():
    graph = import_graph()
    assert {"model", "training", "cli", "baselines"} <= set(graph)
    assert {"data", "graph", "numeric"} <= graph["model"]


def test_module_graph_has_no_cycle():
    assert find_cycle(import_graph()) is None


def test_find_cycle_sees_a_function_local_import():
    tree = ast.parse("def load():\n    from .baselines import MfModel\n")
    graph = {"model": imported_modules(tree), "baselines": {"model"}}
    assert find_cycle(graph) == ["baselines", "model", "baselines"]


def test_model_imports_nothing_above_it():
    assert not import_graph()["model"] & {"baselines", "training", "evaluation", "cli"}


def test_no_function_imports_a_crossrec_module():
    for name, tree in package_sources().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not imported_modules(node), f"{name}.{node.name} imports locally"
