"""The simulator's module layout: one concern per module, imports one way.

The protocol layers never import the simulator; `config`, `adversary` and
`recorder` never import the event loop, which only `cli`, the acceptance
grid and the package import; and the names the benchmark reads as `simnet.X` are the objects
their home modules define.
"""
import ast
import importlib
from pathlib import Path

import pytest

from slimabc import simnet

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "slimabc"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
PROTOCOL_LAYERS = ("protocol", "invocation", "abba", "ppb", "committee", "crypto", "messages")
SIMULATOR = ("config", "adversary", "recorder", "simnet", "grid")
SIMNET_DEFINES = {"TRACE_FORMAT", "deliver", "collector_paused", "sim_run", "replay_trace",
                  "make_proven_pair", "HarnessParty", "abba_harness_run"}


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text())


def package_imports(name: str) -> set:
    """The slimabc modules that module `name` imports, anywhere in its body."""
    found = set()
    for node in ast.walk(parse(name)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and module:
                found.add(module.split(".")[0])
            elif node.level == 1:  # from . import x
                found.update(alias.name for alias in node.names)
            elif module.startswith("slimabc."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("slimabc."))
    return found


GRAPH = {name: package_imports(name) for name in MODULES}


def test_only_cli_grid_and_the_package_import_the_event_loop():
    assert {name for name, deps in GRAPH.items() if "simnet" in deps} \
        == {"cli", "grid", "__init__"}
    assert GRAPH["grid"] == {"config", "metrics", "simnet"}


@pytest.mark.parametrize("name", PROTOCOL_LAYERS)
def test_protocol_layers_import_no_simulator_module(name):
    assert not GRAPH[name] & {"simnet", "recorder", "adversary"}


def test_no_module_imports_type_checking():
    for name in MODULES:
        assert "TYPE_CHECKING" not in (SRC / f"{name}.py").read_text(), name


def test_import_graph_has_no_cycle():
    done, active = set(), []

    def visit(name):
        assert name not in active, f"import cycle: {' -> '.join(active + [name])}"
        if name in done:
            return
        active.append(name)
        for dep in sorted(GRAPH[name] - {"__init__"}):
            visit(dep)
        active.pop()
        done.add(name)

    for name in MODULES:
        visit(name)


@pytest.mark.parametrize("name", SIMULATOR)
def test_simulator_modules_stay_small(name):
    assert len((SRC / f"{name}.py").read_text().splitlines()) <= 400


def test_simnet_defines_only_the_loop():
    defined = set()
    for node in parse("simnet").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert defined == SIMNET_DEFINES


def perfbench_simnet_names() -> set:
    """Every `simnet.X` attribute and `from slimabc.simnet import X` in perfbench."""
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "simnet":
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "slimabc.simnet":
                names.update(alias.name for alias in node.names)
    return names


def test_perfbench_reads_each_simnet_name_from_its_home():
    names = perfbench_simnet_names()
    assert {"RunRecorder", "FifoPolicy", "Behavior", "HarnessParty"} <= names
    for name in names:
        obj = getattr(simnet, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
