"""Static checks over the package source: no dead imports or helpers, and
no heavy import on the package's import path.

Uses only the stdlib ast module.  The package __init__ is left out of the
unused-import check because its imports are re-exports.
"""
import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lglab

SRC = Path(lglab.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
READERS = [*SRC.glob("*.py"), *TESTS.glob("*.py"),
           *(TESTS.parent / "perfbench").glob("*.py")]


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree):
    """Every bare name and attribute name read anywhere in the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _called_names(tree):
    """Names that appear as the target of a call."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            out.add(f.id if isinstance(f, ast.Name)
                    else getattr(f, "attr", ""))
    return out


def _module_imports(tree):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def _private_defs(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name.startswith("_") \
                and not node.name.startswith("__"):
            yield node


def _is_pass_through(fn):
    """A def whose whole body returns one call on its own parameters."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return) \
            or not isinstance(body[0].value, ast.Call):
        return False
    call = body[0].value
    params = [a.arg for a in fn.args.args]
    parts = list(call.args) + [k.value for k in call.keywords]
    if isinstance(call.func, ast.Attribute):
        parts.append(call.func.value)
    names = [p.id for p in parts if isinstance(p, ast.Name)]
    return len(names) == len(parts) and sorted(names) == sorted(params)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [name for name in _module_imports(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_private_helpers_are_referenced_and_do_work():
    trees = {p.name: _tree(p) for p in [SRC / "__init__.py", *MODULES]}
    used = set().union(*(_used_names(t) for t in trees.values()))
    called = set().union(*(_called_names(t) for t in trees.values()))
    dead, wrappers = [], []
    for name, tree in trees.items():
        for node in _private_defs(tree):
            if node.name not in used:
                dead.append(f"{name}:{node.name}")
            elif node.name in called and isinstance(node, ast.FunctionDef) \
                    and _is_pass_through(node):
                # a wrapper only stored as a value (a suite table entry)
                # binds its target late, which a direct reference would not
                wrappers.append(f"{name}:{node.name}")
    assert not dead, f"private helpers nothing references: {dead}"
    assert not wrappers, f"private one-call wrappers, call the target: " \
                         f"{wrappers}"


def _public_functions(tree):
    """Public module-level functions and public methods of module classes."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                yield fn


def test_public_functions_are_read_somewhere():
    """Every public function or method is read in src/, tests/ or perfbench/.

    The check is name-based: a def counts as read when any name or attribute
    with its name is read anywhere, so a dead method with a common name
    (say, value) cannot be caught.  Dunders are exempt.  A re-export in
    lglab.__all__ is not a read, so an exported function must be used too.
    """
    used = set().union(*(_used_names(_tree(p)) for p in READERS))
    unread = [f"{p.name}:{fn.name}" for p in [SRC / "__init__.py", *MODULES]
              for fn in _public_functions(_tree(p))
              if fn.name not in used]
    assert not unread, f"public functions nothing reads: {unread}"


def _passed_params(trees):
    """{callee name: (positions passed, keywords passed)} over every call.

    A call through functools.partial counts against the function it wraps.
    A starred argument passes every position, a ** argument every keyword.
    """
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f, args = node.func, node.args
            if getattr(f, "id", getattr(f, "attr", "")) == "partial" and args:
                f, args = args[0], args[1:]
            name = getattr(f, "id", getattr(f, "attr", ""))
            pos, kws = out.setdefault(name, (set(), set()))
            pos.add(math.inf if any(isinstance(a, ast.Starred) for a in args)
                    else len(args))
            kws.update(k.arg or "**" for k in node.keywords)
    return out


def test_optional_parameters_are_passed_somewhere():
    """Every defaulted parameter of a public function is passed by a call.

    Name-based like the check above: a call to any function of the same name
    that passes the parameter by keyword or by position counts.  A bound
    method's positions are counted without self.
    """
    passed = _passed_params(_tree(p) for p in READERS)
    unpassed = []
    for path in MODULES:
        for node in _tree(path).body:
            is_class = isinstance(node, ast.ClassDef)
            for fn in node.body if is_class else [node]:
                if not isinstance(fn, ast.FunctionDef) \
                        or fn.name.startswith("_"):
                    continue
                params = fn.args.args[1:] if is_class else fn.args.args
                pos, kws = passed.get(fn.name, ((), ()))
                optional = list(enumerate(params))[
                    len(params) - len(fn.args.defaults):]
                optional += [(math.inf, a) for a, d in zip(
                    fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
                unpassed += [f"{path.name}:{fn.name}({a.arg})"
                             for i, a in optional
                             if a.arg not in kws and "**" not in kws
                             and not any(n > i for n in pos)]
    assert not unpassed, f"optional parameters no call passes: {unpassed}"


def test_every_tracer_patch_target_exists():
    # the benchmark's tracer wraps each target in its owner's own namespace;
    # a refactor that drops or moves one would break only a traced run
    sys.path.insert(0, str(TESTS.parent / "perfbench"))
    try:
        from layers import patches
    finally:
        sys.path.pop(0)
    missing = [f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}"
               for p in patches() if p.attr not in vars(p.owner)]
    assert not missing, f"tracer patch targets not found: {missing}"


def _package_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH", "")) if p)
    return env


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize costs about a third of `import lglab`, and only tests
    # use it
    code = "import lglab, sys; sys.exit('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          timeout=120)
    assert proc.returncode == 0


def test_figure_runs_without_loading_scipy(tmp_path):
    # only an oracle query needs scipy; the benchmark's tracer still wraps
    # the oracle's module-level dijkstra, so that name must stay there
    code = (
        "import sys, lglab\n"
        "from lglab import cli\n"
        "rc = cli.main(['figure', 'heavy_diamond', '--resolution', '64',\n"
        "               '--levels', '16', '--outdir', sys.argv[1]])\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m == 'scipy' or m.startswith('scipy.'))\n"
        "if rc or loaded or 'dijkstra' not in vars(lglab.oracle):\n"
        "    sys.exit(f'exit {rc}, scipy modules {loaded}')\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=_package_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "heavy_diamond" / "solution.pgm").exists()
