"""Caller census: no definition under ``src/`` whose only callers are tests.

Every function, class and method under ``src/repro`` must be reached
from ``src/``, ``benchmarks/``, ``examples/`` or ``scripts/``.  A name
counts as reached when it appears there as a code reference (a name, an
attribute or an imported name) or inside a string that is a dotted name
and nothing else, so the ledger's probe strings such as
``"CountMinSketch.estimate_batch"`` count.  These do not count: a
mention in a comment, a docstring or prose, a re-export from a package
``__init__``, and a reference inside the definition's own body.  A
second check flags a module-level import that its module never reads,
unless another module imports that name from it.

The census parses files with ``ast`` and nothing else: it imports no
``repro`` module and writes nothing.  Run ``python tests/test_callers.py``
to print every finding as ``path:line qualified.name (N lines)``.
"""

from __future__ import annotations

import ast
import functools
import gc
import re
import time
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "scripts")
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
WORD = re.compile(r"[A-Za-z_]\w*")

#: Definitions kept although nothing outside ``tests/`` reaches them,
#: keyed ``path::qualified.name`` relative to ``src/repro``.  An entry
#: for a class covers its members.
ALLOWLIST: Dict[str, str] = {
    "core/join.py::OuterJoinPruner": "paper footnote 3: OUTER join pruning",
    "core/join.py::AsymmetricJoinPruner": "paper §4.3: the small-table JOIN variant",
    "core/skyline.py::DirectionalSkylinePruner": "paper footnote 4: MIN/MAX SKYLINE directions",
    "core/skyline.py::master_directional_skyline": "paper footnote 4: the directional master",
    "core/join.py::master_join": "test oracle: the exact inner join JOIN tests compare against",
    "core/having.py::reference_having": "test oracle: the exact HAVING answer tests compare against",
    "switch/programs.py::PipelineTopNDeterministic": "ROADMAP item 9: register-level TOP N oracle",
    "switch/programs.py::PipelineGroupBy": "ROADMAP item 9: register-level GROUP BY oracle",
    "switch/programs.py::PipelineCountMin": "ROADMAP item 9: register-level Count-Min oracle",
    "net/reliability.py::MultiFlowTransfer": "paper §7.2 multi-flow transfer; ROADMAP item 15 replaces it",
    "net/services.py::CWorker": "paper §7.2 worker endpoint; ROADMAP item 15 replaces it",
    "net/services.py::CMaster": "paper §7.2 master endpoint; ROADMAP item 15 replaces it",
    "faults/links.py::ChaosLink": "paper §7.2 lossy link; ROADMAP item 15 replaces it",
    "engine/operators.py::render_plan_table": "generates docs/architecture.md's plan table",
}

Finding = Tuple[str, int, str, int]  # (path, line, qualified name, lines)
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


class _File:
    """One parsed file and what it refers to, gathered in a single walk."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        self.in_src = SRC in path.parents
        self.refs: List[Tuple[str, int]] = []  # may reach a definition
        self.read: Set[str] = set()  # may satisfy one of this file's imports
        self.imports_from: List[Tuple[str, str]] = []  # (module, name)
        is_init = path.name == "__init__.py"
        docstrings: Set[int] = set()
        exported: Set[int] = set()  # an __init__'s __all__: read, no caller
        for node in ast.walk(self.tree):
            kind = type(node)
            if kind is ast.Name:
                self.refs.append((node.id, node.lineno))
                self.read.add(node.id)
            elif kind is ast.Attribute:
                self.refs.append((node.attr, node.lineno))
            elif kind is ast.Constant:
                if type(node.value) is str and id(node) not in docstrings:
                    if id(node) not in exported and DOTTED_NAME.fullmatch(node.value):
                        self.refs.extend((part, node.lineno) for part in node.value.split("."))
                    if self.in_src:  # string annotations read imports too
                        self.read.update(WORD.findall(node.value))
            elif kind is ast.ImportFrom:
                module = self._resolve(node)
                for alias in node.names:
                    self.imports_from.append((module, alias.name))
                    if not is_init:
                        self.refs.append((alias.name, node.lineno))
            elif kind in _SCOPES:
                first = node.body[0] if node.body else None
                if type(first) is ast.Expr and type(first.value) is ast.Constant:
                    docstrings.add(id(first.value))
            elif kind is ast.Assign and is_init:
                if any(type(t) is ast.Name and t.id == "__all__" for t in node.targets):
                    exported.update(id(sub) for sub in ast.walk(node.value))

    @property
    def rel(self) -> str:
        return self.path.relative_to(SRC).as_posix()

    @property
    def module(self) -> str:
        parts = list(self.path.relative_to(ROOT / "src").with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)

    def _resolve(self, node: ast.ImportFrom) -> str:
        """The absolute module an ``ImportFrom`` names."""
        if not node.level:
            return node.module or ""
        if not self.in_src:
            return ""  # a relative import outside the package names no repro module
        package = list(self.path.relative_to(ROOT / "src").parts[:-1])
        base = package[: len(package) - node.level + 1]
        return ".".join(base + ([node.module] if node.module else []))


def _module_level(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements at module or class level, looking inside ``if``/``try``."""
    for node in body:
        if isinstance(node, ast.If):
            yield from _module_level(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [stmt for h in node.handlers for stmt in h.body]
            yield from _module_level(node.body + handlers + node.orelse + node.finalbody)
        else:
            yield node


def _definitions(body: List[ast.stmt], prefix: str = "") -> Iterator[Tuple[str, ast.AST]]:
    """``(qualified name, node)`` of every non-dunder module-level or
    class-level function and class."""
    for node in _module_level(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, prefix + node.name + ".")


def uncalled_definitions(files: List[_File]) -> List[Finding]:
    """Definitions under ``src/repro`` that nothing outside tests reaches;
    a flagged or allowlisted class covers its members."""
    refs: Dict[str, List[Tuple[Path, int]]] = {}
    for f in files:
        for name, line in f.refs:
            refs.setdefault(name, []).append((f.path, line))
    findings: List[Finding] = []
    covering = set(ALLOWLIST)
    for f in (f for f in files if f.in_src):
        for qualname, node in _definitions(f.tree.body):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            last = node.end_lineno
            if any(
                where != f.path or not first <= line <= last
                for where, line in refs.get(node.name, ())
            ):
                continue
            outer = qualname.split(".")
            if any(f"{f.rel}::{'.'.join(outer[:i])}" in covering for i in range(1, len(outer))):
                continue
            covering.add(f"{f.rel}::{qualname}")
            findings.append((f"src/repro/{f.rel}", node.lineno, qualname, last - first + 1))
    return findings


def unread_imports(files: List[_File]) -> List[Finding]:
    """Module-level imports under ``src/repro`` that their module never
    reads and no other module imports from it."""
    imported = {pair for f in files for pair in f.imports_from}
    findings: List[Finding] = []
    for f in (f for f in files if f.in_src):
        for node in _module_level(f.tree.body):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in f.read and (f.module, bound) not in imported:
                    findings.append((f"src/repro/{f.rel}", node.lineno, f"import {bound}", 1))
    return findings


def census() -> Tuple[List[Finding], List[Finding]]:
    """Parse every caller file once; return (uncalled definitions, unread
    imports).  The cyclic collector pauses meanwhile: the parse allocates
    only objects that stay live until it returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        files = [_File(p) for name in CALLER_DIRS for p in sorted((ROOT / name).rglob("*.py"))]
        return uncalled_definitions(files), unread_imports(files)
    finally:
        if enabled:
            gc.enable()


def _report(findings: List[Finding]) -> str:
    return "\n".join(f"{path}:{line} {name} ({n} lines)" for path, line, name, n in findings)


def _key(finding: Finding) -> str:
    return f"{finding[0][len('src/repro/'):]}::{finding[2]}"


@functools.lru_cache(maxsize=1)
def _findings() -> Tuple[List[Finding], List[Finding]]:
    return census()


def test_every_definition_has_a_caller_outside_tests():
    unexplained = [f for f in _findings()[0] if _key(f) not in ALLOWLIST]
    assert not unexplained, (
        "definitions under src/ that only tests reach (delete them, or add an "
        "ALLOWLIST entry with a reason):\n" + _report(unexplained)
    )


def test_allowlist_is_small_and_current():
    assert len(ALLOWLIST) <= 14
    stale = sorted(set(ALLOWLIST) - {_key(f) for f in _findings()[0]})
    assert not stale, f"allowlisted definitions that have a caller now: {stale}"
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_every_module_level_import_is_read():
    unread = _findings()[1]
    assert not unread, "imports their module never reads:\n" + _report(unread)


def test_census_is_fast():
    # CPU time, so other jobs on the host do not make the census look slow.
    start = time.process_time()
    census()
    assert time.process_time() - start < 2.0


if __name__ == "__main__":
    start = time.perf_counter()
    found = sum(census(), [])
    print(_report(found))
    print(f"{len(found)} findings, {sum(f[3] for f in found)} lines, "
          f"{time.perf_counter() - start:.2f} s")
