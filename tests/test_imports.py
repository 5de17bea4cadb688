"""A command imports what it runs; package exports resolve on first use.

Every package ``__init__`` declares its exports with
``repro._lazy.lazy_exports`` (PEP 562), and ``repro.cli`` imports a
command's modules inside that command.  The isolation tests run fresh
interpreters and read ``sys.modules``; the export tests check that the
lazy names are exactly the objects the eager imports used to bind.
"""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import repro
from repro.rules.rule import RecurrentRule
from repro.specs.repository import SpecificationRepository

SRC_ROOT = Path(repro.__file__).resolve().parents[1]
README = SRC_ROOT.parent / "README.md"

#: Every package with an ``__all__``: ``repro`` and its subpackages.
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def _modules_after(code: str, *args: str) -> set:
    """The modules a fresh interpreter holds after running ``code``, which
    prints ``sorted(sys.modules)`` as JSON on its last stdout line."""
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC_ROOT), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout.strip().splitlines()[-1]))


def _under(modules: set, *roots: str) -> list:
    return sorted(
        name for name in modules if any(name == root or name.startswith(root + ".") for root in roots)
    )


# --------------------------------------------------------------------- #
# Import isolation
# --------------------------------------------------------------------- #
def test_import_repro_loads_no_subpackage():
    modules = _modules_after("import json, sys, repro; print(json.dumps(sorted(sys.modules)))")
    assert _under(modules, "repro") == ["repro", "repro._lazy"]


def test_a_miner_loads_no_serving_plane_and_no_multiprocessing():
    modules = _modules_after(
        "import json, sys, repro.patterns.closed_miner; print(json.dumps(sorted(sys.modules)))"
    )
    assert "repro.patterns.closed_miner" in modules
    assert _under(modules, "repro.serving", "repro.obs.httpexpo", "http.server", "multiprocessing") == []


SERVE_PROBE = """
import json, sys
from repro.serving import server

bound_with = []

def bound(self):
    # The socket is bound: record what the command has imported, then serve
    # on a thread so the command's own shutdown path runs as usual.
    bound_with.extend(sorted(sys.modules))
    self.start()

server.EventPushServer.serve_forever = bound
from repro.cli import main
assert main(["serve", "--rules", sys.argv[1], "--port", "0", "--shards", "1"]) == 0
print(json.dumps(bound_with))
"""


def test_serve_loads_no_miner_engine_or_daemon(tmp_path):
    specs = tmp_path / "rules.json"
    repository = SpecificationRepository(name="serve-imports")
    repository.add_rule(
        RecurrentRule(premise=("open",), consequent=("close",), s_support=2, i_support=2, confidence=1.0)
    )
    repository.save(specs)
    modules = _modules_after(SERVE_PROBE, str(specs))
    assert "repro.serving.server" in modules and "repro.obs.metrics" in modules
    assert _under(
        modules,
        "repro.patterns",
        "repro.engine",
        "repro.ingest.formats",
        "repro.ingest.incremental",
        "repro.serving.daemon",
    ) == []
    # No --http-port: the HTTP sidecar (and http.server) stays unloaded.
    assert _under(modules, "repro.obs.httpexpo", "http.server") == []


def test_mine_patterns_loads_no_serving_plane_and_no_rule_miner(tmp_path):
    traces = tmp_path / "traces.txt"
    traces.write_text("lock\nuse\nunlock\n\nlock\nunlock\n")
    modules = _modules_after(
        "import json, sys\n"
        "from repro.cli import main\n"
        "assert main(['mine-patterns', '--input', sys.argv[1], '--min-support', '2']) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        str(traces),
    )
    assert "repro.patterns.closed_miner" in modules and "repro.obs.metrics" in modules
    assert _under(
        modules, "repro.serving", "repro.obs.httpexpo", "repro.rules", "multiprocessing"
    ) == []


def test_help_loads_no_miner():
    modules = _modules_after(
        "import json, sys\n"
        "from repro.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.cli" in modules
    assert _under(
        modules, "repro.patterns", "repro.rules", "repro.engine", "repro.serving", "repro.ingest.formats"
    ) == []


# --------------------------------------------------------------------- #
# Export completeness
# --------------------------------------------------------------------- #
def _declared_exports(package: str) -> dict:
    """``{name: (submodule, attribute)}`` from the init's ``lazy_exports`` call."""
    module = importlib.import_module(package)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    declared = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            for submodule, names in ast.literal_eval(node.args[1]).items():
                for entry in names:
                    name, attribute = (entry, entry) if isinstance(entry, str) else entry
                    declared[name] = (f"{package}.{submodule}", attribute)
    return declared


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_the_object_its_submodule_defines(package):
    module = importlib.import_module(package)
    declared = _declared_exports(package)
    assert set(declared) <= set(module.__all__)
    for name, (submodule, attribute) in declared.items():
        expected = getattr(importlib.import_module(submodule), attribute)
        assert getattr(module, name) is expected, (package, name)
    for name in module.__all__:
        value = getattr(module, name)
        if package != "repro.testing":  # its one export is the faults submodule
            assert not isinstance(value, ModuleType), (package, name)
        assert name in dir(module), (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_the_whole_all(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    assert sorted(set(module.__all__) - set(namespace)) == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_module(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        getattr(module, "no_such_export")


def test_a_submodule_import_does_not_shadow_the_function_it_exports():
    instrument_module = importlib.import_module("repro.traces.instrument")
    from repro.traces import instrument

    assert instrument is instrument_module.instrument
    assert repro.instrument is instrument


def test_readme_library_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["patterns"]) > 0
    assert len(namespace["rules"]) > 0
