"""The public API surface: everything advertised must exist and import."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.sim",
    "repro.memory",
    "repro.proc",
    "repro.osmodel",
    "repro.workloads",
    "repro.system",
    "repro.realsys",
    "repro.core",
    "repro.analysis",
    "repro.cli",
]


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert int(major) >= 1

    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_subpackages_import(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize("module", SUBPACKAGES[:-1])
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert getattr(mod, name, None) is not None, f"{module}.{name}"


class TestReadmeQuickstart:
    def test_quickstart_snippet_names_exist(self):
        """The README quickstart's imports must stay valid."""
        from repro import (  # noqa: F401
            RunConfig,
            SystemConfig,
            compare_configurations,
            run_space,
        )

    def test_docstring_quickstart_names_exist(self):
        from repro import run_simulation, summarize, make_workload  # noqa: F401


class TestPublicDocstrings:
    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_modules_documented(self, module):
        assert importlib.import_module(module).__doc__

    def test_key_classes_documented(self):
        from repro import Machine, Checkpoint, SimulationResult, SystemConfig

        for item in (Machine, Checkpoint, SimulationResult, SystemConfig):
            assert item.__doc__


# ----------------------------------------------------------------------
# Dead names: everything defined in src/repro is mentioned somewhere
# ----------------------------------------------------------------------
REPO = Path(__file__).resolve().parent.parent

#: names nothing in the repository mentions because a framework calls
#: them by name; each entry says which
CALLED_BY_A_FRAMEWORK = {
    "do_GET": "http.server dispatches GET requests to it",
    "do_POST": "http.server dispatches POST requests to it",
    "log_message": "http.server calls it for every request line",
    "run": "threading.Thread.start() calls it (service.worker._Heartbeat)",
    "on_cache": "ProbeBus.attach looks a collector's on_<hook> methods up by built name",
}


def mentions(tree: ast.AST):
    """``(name, line)`` for every mention of an identifier in ``tree``:
    a bare name, an attribute, a keyword, or a string that spells an
    identifier or dotted path (``getattr(obj, "name")``, a by-name wrap)
    -- but not an import statement and not an ``__all__`` list."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            skipped.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


def definitions(tree: ast.AST):
    """Module-level functions and classes, and the classes' public methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds[:2]) and not member.name.startswith("_"):
                        yield member


def test_no_unreferenced_names():
    """A module-level function or class, or a public method, that nothing
    mentions outside its own definition, import statements and
    ``__all__`` lists -- not ``src/``, a test, a benchmark or an example
    -- is dead: delete it rather than maintain it."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in ("src", "tests", "benchmarks", "examples")
        for path in sorted((REPO / root).rglob("*.py"))
    }
    mentioned: dict[str, list] = {}
    for path, tree in trees.items():
        if path == Path(__file__):
            continue  # the allowlist above is not a use
        for name, line in mentions(tree):
            mentioned.setdefault(name, []).append((path, line))
    dead = []
    for path, tree in trees.items():
        if REPO / "src" not in path.parents:
            continue
        for node in definitions(tree):
            outside = [
                (where, line)
                for where, line in mentioned.get(node.name, ())
                if where != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside and node.name not in CALLED_BY_A_FRAMEWORK:
                dead.append(f"{path.relative_to(REPO)}:{node.lineno} {node.name}")
    assert not dead, "defined but never mentioned:\n" + "\n".join(dead)


# ----------------------------------------------------------------------
# A stdlib-only runtime: importing the package loads nothing third-party
# ----------------------------------------------------------------------
#: top-level names that importing ``repro`` adds to ``sys.modules`` but
#: that are neither standard library nor ours; each entry says who puts it
#: there
NOT_IMPORTED_BY_US = {
    "__mp_main__": "the stdlib's multiprocessing aliases __main__ to it on import",
}
#: likewise, by prefix: the build's config data, loaded by the stdlib's sysconfig
SYSCONFIG_DATA = "_sysconfigdata_"


def test_runtime_imports_only_the_standard_library():
    """``dependencies = []`` is true (DESIGN section 19), checked twice.

    At run time: the modules that importing the library, the CLI and the
    service adds to a fresh interpreter are stdlib or ``repro`` modules.
    What was in ``sys.modules`` before that import is the baseline, not
    the package's doing: site ``.pth`` hooks load modules (setuptools'
    ``_distutils_hack``, a CA-bundle hook's ``certifi``) before any user
    code runs.  Statically: every absolute import in ``src/`` names a
    stdlib module or ``repro``, which also catches a third-party module
    that a site hook happened to preload.  A lazy import would pass the
    run-time half and pay at first use, which is why ``src/`` has none
    to find."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro, repro.cli, repro.service\n"
        "print(*sorted({name.partition('.')[0] for name in sys.modules.keys() - before}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    foreign = [
        name
        for name in done.stdout.split()
        if name not in sys.stdlib_module_names
        and name != "repro"
        and name not in NOT_IMPORTED_BY_US
        and not name.startswith(SYSCONFIG_DATA)
    ]
    assert not foreign, f"third-party modules loaded at import: {foreign}"
    ours = {*sys.stdlib_module_names, "repro"}
    imported = []
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported += [
                f"{path.relative_to(REPO)}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in ours
            ]
    assert not imported, "third-party modules imported in src/:\n" + "\n".join(imported)
    sources = [*(REPO / "src").rglob("*.py"), *(REPO / "examples").rglob("*.py"),
               *(REPO / "benchmarks").glob("*.py")]
    for path in sorted(sources):
        assert not re.search(r"scipy|numpy", path.read_text()), path


def test_importing_the_paper_figure_harness_creates_no_store(tmp_path):
    """``benchmarks/common.py`` opens its run store on first use, so a
    script that only imports it (pytest collecting the benches, say)
    leaves no directory behind."""
    root = tmp_path / "store"
    done = subprocess.run(
        [sys.executable, "-c", "import benchmarks.common"],
        env={**os.environ, "PYTHONPATH": f"{REPO / 'src'}{os.pathsep}{REPO}",
             "REPRO_STORE_DIR": str(root)},
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert not root.exists()
    assert list(tmp_path.iterdir()) == []
