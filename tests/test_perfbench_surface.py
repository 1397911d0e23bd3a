"""The benchmark in perfbench/ calls the library by name and keyword, and it
changes only with the benchmark.  This test keeps those calls valid without
running the benchmark: it parses perfbench/*.py (importing nothing from
there) and checks that every stochmann name they import or reach resolves,
and that every keyword they pass is in the callee's signature.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MISSING = object()


def _bound_names(tree, where, failures):
    """The names a file binds to stochmann modules and objects, wherever the
    import statement is."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "stochmann":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
                    else:
                        bound["stochmann"] = importlib.import_module("stochmann")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "stochmann":
            module = importlib.import_module(node.module)
            for alias in node.names:
                target = getattr(module, alias.name, MISSING)
                if target is MISSING:  # a submodule not imported yet
                    try:
                        target = importlib.import_module(
                            f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        pass
                if target is MISSING:
                    failures.append(f"{where}:{node.lineno}: {node.module} "
                                    f"has no name {alias.name!r}")
                else:
                    bound[alias.asname or alias.name] = target
    return bound


def _resolve(node, bound):
    """The stochmann object an expression names: None when it names none,
    MISSING when it names an attribute a stochmann module lacks."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, bound)
        if inspect.ismodule(base):
            return getattr(base, node.attr, MISSING)
    return None


def test_perfbench_calls_resolve_in_the_library():
    failures, keywords = [], 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _bound_names(tree, path.name, failures)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and _resolve(node, bound) is MISSING:
                failures.append(f"{path.name}:{node.lineno}: "
                                f"{ast.unparse(node)} does not resolve")
            if not isinstance(node, ast.Call):
                continue
            callee = _resolve(node.func, bound)
            if callee is None or callee is MISSING:
                continue
            params = inspect.signature(callee).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                keywords += 1
                if kw.arg not in params:
                    failures.append(f"{path.name}:{kw.lineno}: "
                                    f"{ast.unparse(node.func)} takes no "
                                    f"keyword {kw.arg!r}")
    assert keywords > 0, "no stochmann call with keywords found in perfbench/"
    assert not failures, "\n".join(failures)
