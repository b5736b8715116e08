"""The layering rule: the kernels (``repro.core``) and the durable engine
(``repro.storage``) import nothing from the layers built on them — the
serving tier, the command-line tools, or ``DSLog`` itself.  An import
inside a function counts too: a lazy import is still a dependency."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
FORBIDDEN = ("repro.service", "repro.tools", "repro.dslog")


def offending(path, root=SRC):
    """The forbidden modules *path* imports, relative imports resolved
    against its own package under *root*."""
    package = list(path.relative_to(root).with_suffix("").parts[:-1])
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            # ``from .. import service`` names the module in the alias
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return sorted(
        name for name in names if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
    )


LOWER_LAYERS = sorted((SRC / "repro" / "core").rglob("*.py")) + sorted(
    (SRC / "repro" / "storage").rglob("*.py")
)


@pytest.mark.parametrize("path", LOWER_LAYERS, ids=lambda p: str(p.relative_to(SRC)))
def test_lower_layers_import_no_upper_layer(path):
    assert offending(path) == []


def test_the_scan_sees_relative_and_lazy_imports(tmp_path):
    probe = tmp_path / "repro" / "storage" / "probe.py"
    probe.parent.mkdir(parents=True)
    probe.write_text(
        "from ..service.query import QueryExecutor\n"
        "from .. import tools\n"
        "from .store import LineageStore\n"
        "from ..core.serialize import serialize_table\n"
        "def lazy():\n"
        "    import repro.dslog\n"
    )
    assert offending(probe, root=tmp_path) == [
        "repro.dslog",
        "repro.service.query.QueryExecutor",
        "repro.tools",
    ]
