"""Documentation-coverage checks: every public item carries a docstring.

The deliverable requires doc comments on every public item; this test
walks the package and enforces it mechanically, so regressions fail CI
rather than review.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import re

import pytest

import repro

SKIP_NAMES = {"__main__"}


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        short = info.name.rsplit(".", 1)[-1]
        if short in SKIP_NAMES:
            continue
        yield importlib.import_module(info.name)


MODULES = list(_iter_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), f"{module.__name__} lacks a docstring"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its definition site
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(obj):
            for method_name, method in vars(obj).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if method.__doc__ and method.__doc__.strip():
                    continue
                # An override inherits its contract from a documented base
                # method (standard Python convention).
                inherited = any(
                    getattr(base, method_name, None) is not None
                    and getattr(base, method_name).__doc__
                    for base in obj.__mro__[1:]
                )
                if not inherited:
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"{module.__name__}: missing docstrings on {sorted(undocumented)}"
    )


def test_architecture_prints_the_operator_plan_table():
    """docs/architecture.md's operator-plan table is generated from the
    code (``render_plan_table``), and its recovery column agrees with
    Table 4's reboot-safety verdicts."""
    from pathlib import Path

    from repro.core.summary import is_reboot_safe
    from repro.engine.operators import OPERATORS, render_plan_table

    text = (Path(__file__).parent.parent / "docs" / "architecture.md").read_text()
    for row in render_plan_table():
        assert row in text, f"architecture.md is missing the generated row:\n{row}"
    for kind, plan in OPERATORS.values():
        assert kind in plan.completion
        assert plan.recovery.startswith("reboot-safe") == is_reboot_safe(kind)


HOST_KNOBS = {
    "ClusterConfig": lambda: [f.name for f in dataclasses.fields(repro.ClusterConfig)],
    "QueryService": lambda: list(
        inspect.signature(repro.serve.QueryService).parameters
    ),
    "FleetController": lambda: list(
        inspect.signature(repro.fleet.FleetController).parameters
    ),
}


@pytest.mark.parametrize("owner", sorted(HOST_KNOBS))
def test_api_lists_every_host_facing_knob(owner):
    """docs/api.md names each host-facing knob, in order: a knob cannot
    be added or removed without the doc changing with it."""
    from pathlib import Path

    api = Path(__file__).resolve().parents[1] / "docs" / "api.md"
    pattern = re.compile(rf"^`{owner}` (?:fields|parameters), in order: (.*)$")
    lines = [
        match.group(1)
        for match in map(pattern.match, api.read_text().splitlines())
        if match
    ]
    assert len(lines) == 1, f"docs/api.md must list {owner}'s knobs once"
    assert re.findall(r"`(\w+)`", lines[0]) == HOST_KNOBS[owner]()


DOCS_WITH_PATHS = (
    "docs/paper_mapping.md",
    "DESIGN.md",
    "README.md",
    "docs/architecture.md",
    "docs/api.md",
    "EXPERIMENTS.md",
)


def _defines(path, qualname: str) -> bool:
    """True when ``qualname`` (``Name``, ``Class.method`` or pytest's
    ``Class::test``) is a definition or assignment in the file."""
    import ast

    body = ast.parse(path.read_text()).body
    for part in re.split(r"::|\.", qualname):
        found = None
        for node in body:
            if getattr(node, "name", None) == part:
                found = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Name) and t.id == part for t in targets):
                    found = node
        if found is None:
            return False
        body = getattr(found, "body", [])
    return True


@pytest.mark.parametrize("doc", DOCS_WITH_PATHS)
def test_backticked_source_paths_exist(doc):
    """Every backticked ``.../x.py`` path in the prose names a file that
    exists (relative to the repo root, ``src/`` or ``src/repro/``; a
    ``*`` must match at least one), and a ``.../x.py::Name`` also names a
    definition in that file, so deleting a module or a definition forces
    its doc rows to go with it."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    refs = set(
        re.findall(r"`([^`\s]*/[^`\s]*\.py)(?:::([^`\s]+))?`", (root / doc).read_text())
    )
    stale = []
    for path, name in sorted(refs):
        files = [
            match
            for base in (root, root / "src", root / "src" / "repro")
            for match in base.glob(path)
        ]
        if not files:
            stale.append(path)
        elif name and not any(_defines(f, name) for f in files):
            stale.append(f"{path}::{name}")
    assert not stale, f"{doc} names missing files or definitions: {stale}"
