"""The package's layers: each module imports only the modules below it.

Every module under replaycheck/ is parsed, and each import of a package
module, at any depth (a function-level import counts too), must appear in
that module's row of ALLOWED. Every name a module exports in __all__
must exist in it.
"""

import ast
import importlib
from pathlib import Path

import pytest

import replaycheck

PACKAGE = Path(replaycheck.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# The library's layers, lowest first; the model layer reads plain rows of
# floats and the loopback servers carry bytes, so neither imports anything
# from the package.
LIBRARY = {
    "features": set(),
    "pcap": set(),
    "models": set(),
    "loopback": set(),
    "capture": {"pcap"},
    "replay": {"capture"},
    "protocols": {"capture", "features"},
    "verdict": {"capture", "features", "models", "protocols", "replay"},
    "artifacts": {"models", "replay"},
    "simdevices": {"capture", "loopback", "protocols", "replay"},
}
ALLOWED = {
    **LIBRARY,
    # simdevices only for the benchmark's span hooks; test_assessed_device
    # pins which names and that pipeline never calls them.
    "pipeline": set(LIBRARY),
    "cli": set(MODULES),
    "__init__": set(MODULES),
    "__main__": set(MODULES),
}


def package_imports(source: str) -> set[str]:
    """The package modules a module's source imports; a name imported from
    the package root that is not a module counts as __init__."""
    found = set()

    def add(dotted: str, names=()):
        parts = dotted.split(".") if dotted else []
        if parts:
            found.add(parts[0])
            return
        found.update(name if name in MODULES else "__init__" for name in names)

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level:
                add(node.module or "", names)
            elif node.module == "replaycheck" or (node.module or "").startswith("replaycheck."):
                add(node.module.removeprefix("replaycheck").lstrip("."), names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "replaycheck" or alias.name.startswith("replaycheck."):
                    add(alias.name.removeprefix("replaycheck").lstrip("."), ["__init__"])
    return found


def test_every_module_has_a_row():
    assert sorted(ALLOWED) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_its_layers(module):
    imported = package_imports((PACKAGE / f"{module}.py").read_text()) - {module}
    assert imported <= ALLOWED[module], f"{module} imports {sorted(imported - ALLOWED[module])}"


def test_nested_and_absolute_imports_are_seen():
    source = (
        "import json\n"
        "from . import pcap, __version__\n"
        "import replaycheck.replay\n"
        "def f():\n"
        "    from .features import featurize\n"
        "    from replaycheck.models import classify\n"
    )
    assert package_imports(source) == {"pcap", "__init__", "replay", "features", "models"}


# __main__ runs the CLI when imported.
@pytest.mark.parametrize("module", [name for name in MODULES if name != "__main__"])
def test_every_exported_name_resolves(module):
    path = "replaycheck" if module == "__init__" else f"replaycheck.{module}"
    namespace = importlib.import_module(path)
    dangling = [name for name in getattr(namespace, "__all__", ()) if not hasattr(namespace, name)]
    assert dangling == [], f"{path}.__all__ names {dangling}"
