import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import apreval
from apreval import minicorpus
from apreval.pipeline import _adapter_env, load_config, run_pipeline

#: what a process needs to decide that every stage is cached
ORCHESTRATOR = ["apreval", "apreval.cli", "apreval.errors", "apreval.pipeline", "apreval.terms"]

#: modules that only building a stage needs: the report parsing, and the
#: standard modules that it or the old config classes brought in
NOT_ON_A_CACHE_HIT = {"apreval.violations", "dataclasses", "inspect", "csv"}


def _apreval_modules_after(code: str) -> tuple[list[str], list[str]]:
    """Run ``code`` in a fresh interpreter; its stdout lines and the apreval modules it loaded."""
    probe = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'apreval')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_adapter_env(), check=True
    )
    *lines, loaded = out.stdout.splitlines()
    return lines, json.loads(loaded)


def _modules_after(code: str) -> tuple[list[str], set[str]]:
    """Run ``code`` in a fresh interpreter; its stdout lines and every module it loaded."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_adapter_env(), check=True
    )
    *lines, loaded = out.stdout.splitlines()
    return lines, set(json.loads(loaded))


@pytest.fixture(scope="module")
def cached_mini(tmp_path_factory) -> Path:
    """The config of a mini-corpus workspace whose every stage is built."""
    config = minicorpus.materialize(tmp_path_factory.mktemp("cached"), seed=17)
    run_pipeline(load_config(config))
    return config


class TestLazyPackage:
    def test_stub_import_loads_only_stubs(self):
        probe = (
            "import apreval.stubs, json, sys; "
            "print(json.dumps({'numpy': 'numpy' in sys.modules, "
            "'apreval': sorted(m for m in sys.modules if m.startswith('apreval.'))}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_adapter_env(), check=True
        )
        loaded = json.loads(out.stdout)
        assert loaded == {"numpy": False, "apreval": ["apreval.stubs"]}

    def test_every_public_name_resolves(self):
        assert len(apreval.__all__) == len(set(apreval.__all__)) == 40
        listed = dir(apreval)
        for name in apreval.__all__:
            assert getattr(apreval, name) is not None, name
            assert name in listed, name

    def test_unknown_name_is_attribute_error(self):
        assert not hasattr(apreval, "no_such_name")

    def test_normalization_policy_is_one_object(self):
        from apreval import newviol, violations

        assert apreval.NormalizationPolicy is newviol.NormalizationPolicy
        assert apreval.NormalizationPolicy is violations.NormalizationPolicy


class TestLeanStartup:
    def test_cli_import_loads_only_the_orchestrator(self):
        _, loaded = _apreval_modules_after("import apreval.cli")
        assert loaded == ORCHESTRATOR

    def test_cached_run_loads_only_the_orchestrator(self, tmp_path):
        config = minicorpus.materialize(tmp_path, seed=17)
        run_pipeline(load_config(config))
        lines, loaded = _apreval_modules_after(
            "from apreval.cli import main\n"
            f"assert main(['run', '--config', {str(config)!r}]) == 0"
        )
        statuses = dict(line.split() for line in lines if not line.startswith("workspace:"))
        assert len(statuses) == 10
        assert set(statuses.values()) == {"cached"}
        assert loaded == ORCHESTRATOR

    def test_cached_parallel_run_starts_no_thread(self, tmp_path):
        config = minicorpus.materialize(tmp_path, seed=17)
        run_pipeline(load_config(config))
        lines, loaded = _apreval_modules_after(
            "import sys, threading\n"
            "started = []\n"
            "start = threading.Thread.start\n"
            "threading.Thread.start = lambda self: (started.append(self.name), start(self))[1]\n"
            "from apreval.cli import main\n"
            f"assert main(['run', '--config', {str(config)!r}, '--jobs', '2']) == 0\n"
            "print('threads', len(started), 'concurrent.futures' in sys.modules, 'queue' in sys.modules)"
        )
        assert lines[-1] == "threads 0 False False"
        statuses = dict(line.split() for line in lines[:-1] if not line.startswith("workspace:"))
        assert set(statuses.values()) == {"cached"} and len(statuses) == 10
        assert loaded == ORCHESTRATOR

    @pytest.mark.parametrize("flags", [[], ["--jobs", "2"]])
    def test_only_the_decision_is_loaded_beyond_a_bare_interpreter(self, cached_mini, flags):
        _, bare = _modules_after("pass")
        lines, loaded = _modules_after(
            "from apreval.cli import main\n"
            f"assert main(['run', '--config', {str(cached_mini)!r}, *{flags!r}]) == 0"
        )
        statuses = dict(line.split() for line in lines if not line.startswith("workspace:"))
        assert len(statuses) == 10 and set(statuses.values()) == {"cached"}
        beyond = loaded - bare
        assert set(ORCHESTRATOR) <= beyond
        assert beyond & NOT_ON_A_CACHE_HIT == set()


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never uses, counting names in string annotations as used."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        annotation
        for node in ast.walk(tree)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if annotation is not None
    ]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {name.id for name in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(name, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


class TestImports:
    def test_every_imported_name_is_used(self):
        modules = sorted(Path(apreval.__file__).parent.glob("*.py"))
        assert modules
        unused = {
            path.name: names
            for path in modules
            if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
        }
        assert unused == {}

    def test_a_name_in_a_string_annotation_counts_as_used(self):
        code = "from a import B, C, D\ndef f(x: 'B') -> 'list[C]':\n    pass\n"
        assert _unused_imports(ast.parse(code)) == ["D (line 1)"]


def _read_names(tree: ast.Module) -> set[str]:
    """The names a module reads, bare or as an attribute, outside the
    top-level definition of the same name."""
    read = set()
    for top in tree.body:
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }
        read |= names - {getattr(top, "name", None)}
    return read


class TestExports:
    #: where a public name counts as used: the package's own modules, the
    #: benchmark, and the acceptance suite, which states the public contract
    ROOT = Path(__file__).resolve().parents[1]
    CALLERS = (
        [path for path in Path(apreval.__file__).parent.glob("*.py") if path.name != "__init__.py"]
        + sorted((ROOT / "bench").glob("*.py"))
        + [ROOT / "tests" / "test_acceptance.py"]
    )

    def test_every_export_has_a_caller(self):
        read = set()
        for path in self.CALLERS:
            read |= _read_names(ast.parse(path.read_text(encoding="utf-8")))
        assert [name for name in apreval.__all__ if name not in read] == []

    def test_every_public_member_has_a_caller(self):
        # a method or property of a package class, read as an attribute
        read = set()
        for path in self.CALLERS:
            read |= {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        members = [
            f"{path.name}: {cls.name}.{member.name}"
            for path in sorted(Path(apreval.__file__).parent.glob("*.py"))
            for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(cls, ast.ClassDef)
            for member in cls.body if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
        ]
        assert [member for member in members if member.rsplit(".", 1)[1] not in read] == []

    def test_a_name_read_only_inside_its_own_definition_is_not_a_caller(self):
        code = "def g():\n    return C.y\n\ndef f(n):\n    return f(n - 1)\n\nclass C:\n    x = C\n"
        assert _read_names(ast.parse(code)) == {"n", "C", "y"}
