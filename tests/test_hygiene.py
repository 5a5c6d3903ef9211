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
import textwrap
from pathlib import Path

import pytest

import lglab

SRC = Path(lglab.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
CALLERS = [*SRC.glob("*.py"), *(TESTS.parent / "perfbench").glob("*.py")]
READERS = [*CALLERS, *TESTS.glob("*.py")]


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts, so the package raises typed errors instead
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts on lines {lines}"


def test_only_pick_prices_level_curve_routes():
    # the families propose routes and _pick alone prices them
    callers = [getattr(top, "name", f"line {top.lineno}")
               for top in _tree(SRC / "curves.py").body
               for node in ast.walk(top)
               if isinstance(node, ast.Call) and "weighted_length" in (
                   getattr(node.func, "id", None),
                   getattr(node.func, "attr", None))]
    assert callers == ["_pick"], f"curves.py prices routes in {callers}"


def test_only_sweep_walks_profile_pieces():
    # one closed-form walk over the profile pieces, whose tables are built
    # and cached in one place
    tree = _tree(SRC / "curves.py")

    def users(name):
        return [getattr(top, "name", f"line {top.lineno}")
                for top in tree.body
                if not isinstance(top, (ast.Import, ast.ImportFrom))
                for node in ast.walk(top)
                if name in (getattr(node, "id", None),
                            getattr(node, "attr", None))]

    assert set(users("_drift")) == {"_sweep"}, \
        f"curves.py walks profile pieces in {users('_drift')}"
    assert users("lru_cache") + users("cache") == ["sweep_tables"], \
        "sweep_tables must be curves.py's only cache"


def test_tracing_has_one_generation_loop():
    # every ray is a row of the fan: one loop spends the leg budget, and
    # the rows refract by the fan's own vector law, not by snell_refract
    tree = _tree(SRC / "tracing.py")
    loops = [top.name for top in tree.body
             if isinstance(top, ast.FunctionDef) for node in ast.walk(top)
             if isinstance(node, (ast.For, ast.While))
             and "_MAX_LEGS" in _used_names(node)]
    assert loops == ["_trace"], f"tracing.py loops over legs in {loops}"
    assert "snell_refract" not in _used_names(tree)


def test_level_curves_read_no_shell_grid():
    # sweeps and rays are solved in closed form: no module defines or
    # reads a shell staircase, and the tracer integrates its sloped legs
    # with the level curves' drift kernel, not one of its own
    for path in MODULES:
        names = {getattr(node, key, None) for node in ast.walk(_tree(path))
                 for key in ("id", "attr", "name")}
        assert not names & {"shell_grid", "SWEEP_SHELLS", "_run"}, path.name
    tracing = _tree(SRC / "tracing.py")
    assert "_BLOCK" not in _used_names(tracing)
    assert "_drift" in _called_names(tracing)
    assert any(isinstance(node, ast.ImportFrom) and node.module == "curves"
               and "_drift" in [a.name for a in node.names]
               for node in tracing.body)
    assert not [node.name for node in ast.walk(tracing)
                if isinstance(node, ast.FunctionDef)
                and ("log1p" in _used_names(node) or node.name == "_drift")]


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
    """(name, def) of public module-level functions and of public methods of
    module classes, which are named Class.method."""
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        for fn in node.body if is_class else [node]:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                yield (f"{node.name}.{fn.name}" if is_class else fn.name), fn


# Public functions that only tests and the README call, each with the reason
# it stays; every other one must be read by the program itself.
TEST_ONLY_NAMES = {
    "snell.py:snell_chain": "acceptance criterion 1's subject",
    "snell.py:heavy_disk_arc_test": "acceptance criterion 3's subject",
    "snell.py:H_of": "acceptance criterion 4's jump height",
    "stacker.py:local_oscillation": "acceptance criterion 4's measured jump",
    "stacker.py:trace_error": "the boundary trace, for a planned verify suite",
    "stacker.py:jump_set": "the tight jump, for a planned verify suite",
    "analysis.py:nonuniqueness_gap":
        "the core's two solutions, for a planned verify suite",
    "stacker.py:GridField.value_at": "the README's field lookup",
}


def test_public_functions_are_read_somewhere():
    """Every public function or method is read in src/ or perfbench/, or is
    listed in TEST_ONLY_NAMES.

    The check is name-based: a def counts as read when any name or attribute
    with its name is read anywhere, so a dead method with a common name
    (say, value) cannot be caught.  Dunders are exempt.  A re-export in
    lglab.__all__ is not a read, so an exported function must be used too.
    """
    used = set().union(*(_used_names(_tree(p)) for p in CALLERS))
    unread = [f"{p.name}:{name}" for p in [SRC / "__init__.py", *MODULES]
              for name, fn in _public_functions(_tree(p))
              if fn.name not in used]
    unlisted = sorted(set(unread) - set(TEST_ONLY_NAMES))
    stale = sorted(set(TEST_ONLY_NAMES) - set(unread))
    assert not unlisted, f"public functions no program code reads: " \
                         f"{unlisted}"
    assert not stale, f"listed as test-only, but read by the program or " \
                      f"gone: {stale}"


def _dataclass_fields(tree):
    """(class name, field name) of every module-level dataclass."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or not any(
                getattr(getattr(d, "func", d), "id", "") == "dataclass"
                for d in node.decorator_list):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                yield node.name, stmt.target.id


def test_dataclass_fields_are_read_somewhere():
    """Every dataclass field in the package is read as an attribute in
    src/, tests/ or perfbench/; a field nothing reads is state every caller
    must still supply.  Name-based like the checks above: obj.field read
    anywhere, on any object, counts.
    """
    read = {node.attr for p in READERS for node in ast.walk(_tree(p))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{p.name}:{cls}.{name}" for p in MODULES
              for cls, name in _dataclass_fields(_tree(p)) if name not in read]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def _catalog_dispatch(tree):
    """(builder names, call alias) of a module-level _CATALOG table whose
    entries start with their builder, and the name the builder is unpacked
    to (make_weight's ``builder, takes = _CATALOG[name][:2]``)."""
    builders, alias = set(), None
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if any(getattr(t, "id", "") == "_CATALOG" for t in node.targets):
            builders.update(v.elts[0].id for v in node.value.values)
        elif isinstance(node.targets[0], ast.Tuple) and any(
                getattr(n, "id", "") == "_CATALOG"
                for n in ast.walk(node.value)):
            alias = node.targets[0].elts[0].id
    return builders, alias


def _passed_params(trees):
    """{callee name: (positions passed, keywords passed)} over every call.

    A call through functools.partial counts against the function it wraps,
    and a call through the name a _CATALOG builder is unpacked to counts
    against every builder in the table.  A starred argument passes every
    position, a ** argument every keyword.
    """
    out, dispatch = {}, []
    for tree in trees:
        dispatch.append(_catalog_dispatch(tree))
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
    for builders, alias in dispatch:
        via_pos, via_kws = out.get(alias, ((), ()))
        for name in builders:
            pos, kws = out.setdefault(name, (set(), set()))
            pos.update(via_pos)
            kws.update(via_kws)
    return out


# Optional parameters that only tests set, each with the reason a test
# needs it; every other one must be passed by the program itself.
TEST_ONLY_PARAMETERS = {
    "analysis.py:nonuniqueness_gap(res)": "shrinks the gap's field grid",
    "analysis.py:nonuniqueness_gap(levels)": "shrinks the gap's level count",
    "analysis.py:rectangle_submodularity_exhaustive(w)":
        "runs the exhaustive sweep on a custom weight",
    "analysis.py:rectangle_submodularity_exhaustive(spot_checks)":
        "shrinks the sweep's brute-force spot checks",
    "weights.py:make_weight(pieces)": "builds a custom piecewise weight",
    "weights.py:make_weight(default)": "sets a custom weight's background",
}


def test_optional_parameters_are_passed_somewhere():
    """Every defaulted parameter of a public function, a public method or a
    module-level private function is passed by a call in src/ or perfbench/,
    or is listed in TEST_ONLY_PARAMETERS.

    Name-based like the check above: a call to any function of the same name
    that passes the parameter by keyword or by position counts.  A bound
    method's positions are counted without self.
    """
    passed = _passed_params(_tree(p) for p in CALLERS)
    unpassed = []
    for path in MODULES:
        for node in _tree(path).body:
            is_class = isinstance(node, ast.ClassDef)
            for fn in node.body if is_class else [node]:
                if not isinstance(fn, ast.FunctionDef) \
                        or fn.name.startswith("__") \
                        or is_class and fn.name.startswith("_"):
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
    unlisted = sorted(set(unpassed) - set(TEST_ONLY_PARAMETERS))
    stale = sorted(set(TEST_ONLY_PARAMETERS) - set(unpassed))
    assert not unlisted, f"optional parameters no program call passes: " \
                         f"{unlisted}"
    assert not stale, f"listed as test-only, but passed by the program or " \
                      f"gone: {stale}"


def test_catalog_builders_count_make_weights_starred_call():
    # make_weight passes alpha to every builder as builder(*args), so a
    # builder no program calls by name still has its alpha passed
    passed = _passed_params([_tree(SRC / "weights.py")])
    for name in ("heavy_disk", "light_diamond", "three_heavy_diamonds"):
        assert math.inf in passed[name][0], name


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


def test_the_benchmarks_selftest_passes():
    # its tests trace a figure pass with every patch installed, so a
    # refactor that breaks `perfbench/run.py --trace 1` fails here as well
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/selftest.py"], cwd=TESTS.parent, env=_package_env(),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_the_benchmarks_stackable_table_matches_the_package():
    # the benchmark keeps its own copy, since it also runs trees older
    # than weights.STACKABLE; a drifted copy would time other presets
    sys.path.insert(0, str(TESTS.parent / "perfbench"))
    try:
        from layers import STACKABLE
    finally:
        sys.path.pop(0)
    assert STACKABLE == lglab.weights.STACKABLE


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


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # on failure hypothesis imports libcst to print a patch; under the
    # warnings-as-errors config that import's DeprecationWarning used to end
    # the session with INTERNALERROR (exit 3) before the next test ran
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
        """))
    config = TESTS.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
