"""Caller census: nothing under ``src/`` that only tests reach.

Every function, class, method and defaulted parameter under
``src/repro`` must be reached from ``src/``, ``benchmarks/``,
``examples/`` or ``scripts/``.  Three checks share one parse:

* **Definitions.**  A name counts as reached when it appears as a code
  reference (a name, an attribute or an imported name) or inside a
  string that is a dotted name and nothing else, so the ledger's probe
  strings such as ``"CountMinSketch.estimate_batch"`` count.  These do
  not count: a mention in a comment, a docstring or prose, a re-export
  from a package ``__init__``, a reference inside the definition's own
  body, and a reference made inside an allowlisted definition: what
  only the allowlist reaches is on the allowlist itself.
* **Members.**  An attribute whose receiver the AST can name reaches
  only that class's member: ``self.x`` and ``cls.x`` inside a class
  (its bases and subclasses too), ``ClassName.x``, ``ClassName(...).x``,
  ``super().x``, and a parameter or local annotated with a class.  Any
  other receiver, or a named class with no member of that name, reaches
  every member of that name.  A plain name reaches a member only inside
  its own class's body.
* **Parameters.**  Every defaulted parameter of a definition not on
  ``ALLOWLIST``, and every ``@dataclass`` field with a default, is set
  by some call of its name: by keyword, by position or through a
  ``**{literal}``.  A ``*args`` or any other ``**mapping`` at such a call
  sets every parameter, and a keyword passed to a callee the AST cannot
  name (``table[key](...)``) sets that parameter of every definition
  whose name is used as a value somewhere; a field is also set by
  ``dataclasses.replace(..., field=...)`` or by assigning an attribute
  of its name.  A class's parameters are its ``__init__``'s or its
  fields; calling a subclass, ``cls(...)`` or ``super().__init__(...)``
  sets them too.  A call made inside an allowlisted definition sets
  nothing; ``PARAM_ALLOWLIST`` names the parameters kept anyway.

A fourth check flags a module-level import that its module never reads,
unless another module imports that name from it.

The census parses files with ``ast`` and nothing else: it imports no
``repro`` module and writes nothing.  Run ``python tests/test_callers.py``
to print every finding as ``path:line name (N lines)`` and the count of
settable values; it exits non-zero on a finding no allowlist names.
"""

from __future__ import annotations

import ast
import functools
import gc
import re
import sys
import time
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

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
    "core/skyline.py::reflect_point": "paper footnote 4: the directional pruner's reflection",
    "core/join.py::master_join": "test oracle: the exact inner join JOIN tests compare against",
    "core/having.py::reference_having": "test oracle: the exact HAVING answer tests compare against",
    "switch/programs.py::PipelineTopNDeterministic": "ROADMAP item 9: register-level TOP N oracle",
    "switch/programs.py::PipelineGroupBy": "ROADMAP item 9: register-level GROUP BY oracle",
    "switch/programs.py::PipelineCountMin": "ROADMAP item 9: register-level Count-Min oracle",
    "net/reliability.py::MultiFlowTransfer": "paper §7.2 multi-flow transfer; ROADMAP item 15 replaces it",
    "net/services.py::CWorker": "paper §7.2 worker endpoint; ROADMAP item 15 replaces it",
    "net/services.py::CMaster": "paper §7.2 master endpoint; ROADMAP item 15 replaces it",
    "net/services.py::ValueCodec": "paper §7.2 endpoints' value codec; ROADMAP item 15 replaces it",
    "net/services.py::FlowState": "paper §7.2 endpoints' flow state; ROADMAP item 15 replaces it",
    "faults/links.py::ChaosLink": "paper §7.2 lossy link; ROADMAP item 15 replaces it",
    "engine/operators.py::render_plan_table": "ROADMAP item 23: renders docs/architecture.md's plan table",
}

#: Defaulted parameters kept although no call outside ``tests/`` sets
#: them, keyed ``path::qualified.name(parameter)``; a class's key names
#: its ``__init__`` parameter or field.  A reason is of one of three
#: kinds: ``deployment:`` (a setting or per-call deadline of the
#: host-facing ``QueryService``, ``FleetController`` or ``ServeClient``),
#: ``safety:`` (the only way a test reaches an error path, a retry cap
#: or a timeout) or ``ROADMAP item N:`` (a consumer that item names).
PARAM_ALLOWLIST: Dict[str, str] = {
    "serve/server.py::QueryService(trace_requests)": "deployment: per-request trace roots on or off",
    "serve/server.py::QueryService(max_spans)": "deployment: the span ring's bound in a long-running service",
    "serve/server.py::QueryService.query(tenant)": "deployment: the tenant a blocking query is billed to",
    "serve/server.py::QueryService.query(timeout)": "deployment: a blocking query's deadline",
    "serve/server.py::QueryService.shutdown(timeout)": "deployment: how long a graceful drain may take",
    "fleet/controller.py::FleetController.query(tenant)": "deployment: the tenant a blocking fleet query is billed to",
    "fleet/controller.py::FleetController.query(timeout)": "deployment: a blocking fleet query's deadline",
    "fleet/controller.py::FleetController.rolling_update(drain_timeout)": "deployment: how long one replica may take to drain",
    "fleet/tenancy.py::TenantQuota(limits)": "deployment: per-tenant queue limits a service's quota= enforces",
    "fleet/tenancy.py::WeightedFairPolicy(weights)": "deployment: per-tenant weights a service's fairness= schedules by",
    "serve/client.py::ServeClient(timeout)": "deployment: the client's default per-call deadline",
    "serve/client.py::ServeClient(backoff)": "deployment: the base sleep between the client's retries",
    "serve/client.py::ServeClient.query(timeout)": "deployment: one blocking call's deadline",
    "adapt/engine.py::RemediationEngine(clock)": "safety: the only way a test steps the cooldown and breaker-freeze timers without sleeping",
    "core/distinct.py::FingerprintDistinctPruner(fingerprint_bits)": "safety: the only way a test makes fingerprints collide, so run_verified's contract check fires",
    "faults/plan.py::FaultEvent(target)": "safety: the only way a test drops a switch-to-master frame, whose recovery is §7.2's",
    "net/reliability.py::TransferBase(max_rounds)": "safety: the only way a test reaches the round cap's ProtocolError",
    "core/base.py::Pruner.survivors(batch_size)": "ROADMAP item 18: the figure benches move to the batch kernels through it",
    "workloads/bigdata.py::BigDataScale(string_agents)": "ROADMAP item 22: string-keyed batch columns",
}

#: What a reason must name.
REASON = re.compile(r"paper (?:§|footnote)|test oracle|ROADMAP item \d+|safety")
PARAM_REASON = re.compile(r"(?:deployment|safety|ROADMAP item \d+): \S")

Finding = Tuple[str, int, str, int]  # (path, line, qualified name, lines)
Tag = Optional[Tuple[str, str]]  # ("inst" | "exact" | "super", class name)
BARE: Tag = ("bare", "")  # a plain name: reaches a member only from its class body
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.Module, ast.ClassDef) + _FUNCS


_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _child_fields(kind: type) -> Tuple[str, ...]:
    """The fields of an AST node type that may hold nodes worth walking
    (a load/store context is not)."""
    fields = tuple(f for f in kind._fields if f != "ctx")
    _CHILD_FIELDS[kind] = fields
    return fields


class _Scope:
    """A function's annotated names, looked up through its enclosing
    functions once the whole file is walked."""

    __slots__ = ("names", "parent")

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.names: Dict[str, Tuple[str, str]] = {}
        self.parent = parent

    def lookup(self, name: str) -> Tag:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class _Call(NamedTuple):
    name: str
    tag: Tag  # the receiver, if the AST names one; for a bare call, what a scope binds
    bare: bool  # f(...), not x.f(...)
    positional: int
    keywords: FrozenSet[str]
    star: bool  # a *args or a non-literal **mapping: sets everything
    line: int


def _class_name(node: Optional[ast.expr]) -> Optional[str]:
    """The class an annotation or a base names: ``C``, ``mod.C``, ``"C"``,
    ``C[T]`` or ``Optional[C]``."""
    kind = type(node)
    if kind is ast.Name:
        return node.id
    if kind is ast.Attribute:
        return node.attr
    if kind is ast.Constant and type(node.value) is str and DOTTED_NAME.fullmatch(node.value):
        return node.value.rsplit(".", 1)[-1]
    if kind is ast.Subscript:
        name = _class_name(node.value)
        return _class_name(node.slice) if name == "Optional" else name
    return None


class _File:
    """One parsed file and what it refers to, gathered in a single walk.
    ``text`` stands in for the file's contents (the census self-tests)."""

    def __init__(self, path: Path, text: Optional[str] = None) -> None:
        self.path = path
        if text is None:
            text = path.read_text(encoding="utf-8")
        self.tree = ast.parse(text, str(path))
        self.in_src = SRC in path.parents
        self.refs: List[Tuple[str, int, Tag]] = []  # may reach a definition
        self.read: Set[str] = set()  # may satisfy one of this file's imports
        self.imports_from: List[Tuple[str, str]] = []  # (module, name)
        self.calls: List[_Call] = []
        self.assigned: List[Tuple[str, Tag]] = []  # attributes stored to: may set a field
        self.anonymous: Set[str] = set()  # keywords passed to a callee the AST cannot name
        self.escaped: Set[str] = set()  # names used as a value, not called: callable anywhere
        self._callees: Set[int] = set()
        self._is_init = path.name == "__init__.py"
        self._docstrings: Set[int] = set()
        self._exported: Set[int] = set()  # an __init__'s __all__: read, no caller
        self._lazy: List[Tuple[_Scope, str, str]] = []  # receivers named by a scope
        self._walk()
        tags = [scope.lookup(name) or ((kind, name) if kind else None)
                for scope, name, kind in self._lazy]
        self.refs = [(n, line, tags[t] if type(t) is int else t) for n, line, t in self.refs]
        self.calls = [c._replace(tag=tags[c.tag]) if type(c.tag) is int else c
                      for c in self.calls]
        self.assigned = [(n, tags[t] if type(t) is int else t) for n, t in self.assigned]
        del self._lazy

    def _receiver(self, node: ast.expr, scope: _Scope, owner: Optional[str]):
        """A tag for ``node`` as an attribute's receiver, or an index
        into ``_lazy`` when a scope must name it once the walk is done."""
        kind = type(node)
        if kind is ast.Name:
            self._lazy.append((scope, node.id, "exact"))
            return len(self._lazy) - 1
        if kind is ast.Call and type(node.func) is ast.Name:
            if node.func.id == "super":
                return ("super", owner) if owner and not node.args else None
            self._lazy.append((scope, node.func.id, "exact"))
            return len(self._lazy) - 1
        return None

    def _call(self, node: ast.Call, scope: _Scope, owner: Optional[str]) -> None:
        func, args = node.func, node.args
        if type(func) is ast.Name:
            name, tag = func.id, None
            if scope.parent is not None:  # cls(...) where a scope names cls
                self._lazy.append((scope, name, ""))
                tag = len(self._lazy) - 1
        elif type(func) is ast.Attribute:
            name = func.attr
            tag = self._receiver(func.value, scope, owner)
        else:  # table[key](...): its keywords may set any escaped definition's
            self.anonymous.update(kw.arg for kw in node.keywords if kw.arg)
            return
        self._callees.add(id(func))
        if name == "partial" and args:  # functools.partial(f, ...) calls f
            inner = ast.Call(func=args[0], args=args[1:], keywords=node.keywords)
            ast.copy_location(inner, node)
            return self._call(inner, scope, owner) if type(args[0]) in (ast.Name, ast.Attribute) else None
        if name in ("setattr", "__setattr__") and len(args) >= 2:
            target = args[1]
            if type(target) is ast.Constant and type(target.value) is str:
                self.assigned.append((target.value, self._receiver(args[0], scope, owner)))
        star = any(type(a) is ast.Starred for a in args)
        keywords: Set[str] = set()
        for kw in node.keywords:
            if kw.arg is not None:
                keywords.add(kw.arg)
            elif type(kw.value) is ast.Dict and all(
                type(k) is ast.Constant and type(k.value) is str for k in kw.value.keys
            ):
                keywords.update(k.value for k in kw.value.keys)
            else:
                star = True
        if name == "replace":  # dataclasses.replace(obj, field=...)
            self.assigned.extend((k, None) for k in keywords)
        self.calls.append(_Call(name, tag, type(func) is ast.Name, len(args),
                                frozenset(keywords), star, node.lineno))

    def _walk(self) -> None:
        refs, read = self.refs, self.read
        # (node, scope, enclosing class, node sits in that class's body)
        stack: List[Tuple[ast.AST, _Scope, Optional[str], bool]] = [
            (self.tree, _Scope(), None, False)]
        while stack:
            node, scope, owner, in_class = stack.pop()
            kind = type(node)
            if kind is ast.Name:
                refs.append((node.id, node.lineno, BARE))
                read.add(node.id)
                if id(node) not in self._callees:
                    self.escaped.add(node.id)
            elif kind is ast.Attribute:
                tag = self._receiver(node.value, scope, owner)
                refs.append((node.attr, node.lineno, tag))
                if id(node) not in self._callees:
                    self.escaped.add(node.attr)
                if type(node.ctx) is ast.Store:
                    self.assigned.append((node.attr, tag))
            elif kind is ast.Call:
                self._call(node, scope, owner)
            elif kind is ast.Constant:
                if type(node.value) is str and id(node) not in self._docstrings:
                    if id(node) not in self._exported and DOTTED_NAME.fullmatch(node.value):
                        refs.extend((part, node.lineno, None) for part in node.value.split("."))
                    if self.in_src:  # string annotations read imports too
                        read.update(WORD.findall(node.value))
            elif kind is ast.ImportFrom:
                module = self._resolve(node)
                for alias in node.names:
                    self.imports_from.append((module, alias.name))
                    if not self._is_init:
                        refs.append((alias.name, node.lineno, None))
            elif kind is ast.AnnAssign and scope.parent is not None and not in_class:
                name = _class_name(node.annotation)
                if name and type(node.target) is ast.Name:
                    scope.names[node.target.id] = ("inst", name)
            elif kind is ast.Assign and self._is_init:
                if any(type(t) is ast.Name and t.id == "__all__" for t in node.targets):
                    self._exported.update(id(sub) for sub in ast.walk(node.value))
            if kind in _SCOPES:
                first = node.body[0] if node.body else None
                if type(first) is ast.Expr and type(first.value) is ast.Constant:
                    self._docstrings.add(id(first.value))
            if kind in _FUNCS:
                inner = _Scope(scope)
                params = node.args.posonlyargs + node.args.args
                static = any(_class_name(d) == "staticmethod" for d in node.decorator_list)
                for arg in params + node.args.kwonlyargs:
                    name = _class_name(arg.annotation)
                    if name:
                        inner.names[arg.arg] = ("inst", name)
                if in_class and params and not static:
                    inner.names[params[0].arg] = ("inst", owner)
                outer = node.decorator_list + [node.args] + ([node.returns] if node.returns else [])
                stack.extend((child, scope, owner, False) for child in outer)
                stack.extend((child, inner, owner, False) for child in node.body)
            elif kind is ast.ClassDef:
                stack.extend((child, scope, owner, False)
                             for child in node.bases + node.keywords + node.decorator_list)
                stack.extend((child, scope, node.name, True) for child in node.body)
            else:
                for field in _CHILD_FIELDS.get(kind) or _child_fields(kind):
                    value = getattr(node, field)
                    if type(value) is list:
                        stack.extend((child, scope, owner, False) for child in value
                                     if isinstance(child, ast.AST))
                    elif isinstance(value, ast.AST):
                        stack.append((value, scope, owner, False))

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


def _span(node: ast.AST) -> Tuple[int, int]:
    return min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno


def _covered(key: str, allowlist: Dict[str, str]) -> bool:
    """``key`` or a class that encloses it is on ``allowlist``."""
    path, _, qualname = key.partition("::")
    outer = qualname.split(".")
    return any(f"{path}::{'.'.join(outer[:i])}" in allowlist for i in range(1, len(outer) + 1))


class _Def(NamedTuple):
    file: _File
    qualname: str
    node: ast.AST
    owner: Optional[str]  # key of the enclosing class, for a member

    @property
    def key(self) -> str:
        return f"{self.file.rel}::{self.qualname}"


class _Target(NamedTuple):
    """What a call can set: a function's parameters, or a class's."""

    key: str  # the definition's key; a class's parameters sit under the class
    name: str  # the name a call uses
    owner: Optional[str]  # key of the enclosing class, for a member
    positional: List[str]  # parameters a positional argument fills, in order
    defaulted: List[Tuple[str, int]]  # (name, line)
    fields: bool  # a dataclass's fields, which attribute stores also set


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if type(deco) is ast.Call:
            deco = deco.func
        if _class_name(deco) == "dataclass":
            return True
    return any(_class_name(base) == "NamedTuple" for base in node.bases)


def _fields(node: ast.ClassDef) -> List[Tuple[str, int, bool]]:
    """``(name, line, has a default)`` of a dataclass's init fields."""
    out = []
    for stmt in _module_level(node.body):
        if type(stmt) is not ast.AnnAssign or type(stmt.target) is not ast.Name:
            continue
        if _class_name(stmt.annotation) == "ClassVar":
            continue
        value = stmt.value
        if type(value) is ast.Call and _class_name(value.func) == "field":
            if any(k.arg == "init" and getattr(k.value, "value", True) is False
                   for k in value.keywords):
                continue
            has_default = any(k.arg in ("default", "default_factory") for k in value.keywords)
        else:
            has_default = value is not None
        out.append((stmt.target.id, stmt.lineno, has_default))
    return out


def _signature(node: ast.AST, skip_self: bool) -> Tuple[List[str], List[Tuple[str, int]]]:
    """A function's positional parameters, in order, and its defaulted
    ones with their lines."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args][1 if skip_self else 0:]
    plain = args.posonlyargs + args.args
    defaulted = [(a.arg, a.lineno) for a in plain[len(plain) - len(args.defaults):]]
    defaulted += [(a.arg, a.lineno) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return positional, defaulted


class Census(NamedTuple):
    uncalled: List[Finding]
    unread: List[Finding]
    unset: List[Finding]
    settable: int  # defaulted parameters and defaulted fields under src/repro


class _Program:
    """Every definition under ``src/repro`` and the class hierarchy."""

    def __init__(self, files: List[_File], allowlist: Dict[str, str]) -> None:
        self.files = files
        self.allowlist = allowlist
        self.defs: List[_Def] = []
        self.classes: Dict[str, ast.ClassDef] = {}  # key -> node
        self.spans: Dict[str, Tuple[int, int]] = {}  # class key -> (first, last) line
        self.by_name: Dict[str, List[str]] = {}  # bare class name -> keys
        self.members: Dict[str, Set[str]] = {}  # class key -> member names
        for f in (f for f in files if f.in_src):
            for qualname, node in _definitions(f.tree.body):
                parent = qualname.rpartition(".")[0]
                owner = f"{f.rel}::{parent}" if parent else None
                d = _Def(f, qualname, node, owner)
                self.defs.append(d)
                if owner:
                    self.members.setdefault(owner, set()).add(node.name)
                if isinstance(node, ast.ClassDef):
                    self.spans[d.key] = _span(node)
                    self.classes[d.key] = node
                    self.by_name.setdefault(node.name, []).append(d.key)
        self.parents = {key: [p for base in node.bases for p in self.by_name.get(_class_name(base), ())]
                        for key, node in self.classes.items()}
        self.children: Dict[str, List[str]] = {}
        for key, parents in self.parents.items():
            for p in parents:
                self.children.setdefault(p, []).append(key)
        # the (first, last) lines of every allowlisted definition, by file
        self.allowed_spans: Dict[Path, List[Tuple[int, int]]] = {}
        for d in self.defs:
            if d.key in allowlist:
                self.allowed_spans.setdefault(d.file.path, []).append(_span(d.node))
        self._resolved: Dict[Tag, Optional[FrozenSet[str]]] = {}

    def in_allowlisted(self, path: Path, line: int) -> bool:
        return any(a <= line <= b for a, b in self.allowed_spans.get(path, ()))

    def _closure(self, key: str, edges: Dict[str, List[str]]) -> Set[str]:
        out, todo = set(), [key]
        while todo:
            for k in edges.get(todo.pop(), ()):
                if k not in out:
                    out.add(k)
                    todo.append(k)
        return out

    def resolve(self, tag: Tag) -> Optional[FrozenSet[str]]:
        """The class keys a receiver names, or None when it names none:
        an instance may be of a subclass, a class object or ``super()``
        reaches only up."""
        if tag is None or tag is BARE:
            return None
        if tag not in self._resolved:
            kind, name = tag
            out: Set[str] = set()
            for key in self.by_name.get(name, ()):
                out |= self._closure(key, self.parents)
                if kind != "super":
                    out.add(key)
                if kind == "inst":
                    out |= self._closure(key, self.children)
            self._resolved[tag] = frozenset(out) or None
        return self._resolved[tag]

    def hits(self, tag: Tag, member: str) -> Optional[FrozenSet[str]]:
        """The classes whose ``member`` a reference reaches; None for
        every definition of that name."""
        classes = self.resolve(tag)
        if classes and any(member in self.members.get(k, ()) for k in classes):
            return classes
        return None

    def mro(self, key: str) -> List[str]:
        """``key`` and every base it inherits from."""
        return [key] + sorted(self._closure(key, self.parents))


def uncalled_definitions(program: _Program) -> List[Finding]:
    """Definitions under ``src/repro`` that nothing outside tests and the
    allowlist reaches; a flagged or allowlisted class covers its members."""
    refs: Dict[str, List[Tuple[Path, int, Tag]]] = {}
    for f in program.files:
        for name, line, tag in f.refs:
            if not program.in_allowlisted(f.path, line):
                refs.setdefault(name, []).append((f.path, line, tag))
    findings: List[Finding] = []
    covering = set(program.allowlist)
    for d in program.defs:
        first, last = _span(d.node)
        name = d.node.name
        for where, line, tag in refs.get(name, ()):
            if where == d.file.path and first <= line <= last:
                continue
            if tag is BARE:
                if d.owner is None or (where == d.file.path and
                                       program.spans[d.owner][0] <= line <= program.spans[d.owner][1]):
                    break
                continue
            classes = program.hits(tag, name)
            if classes is None or d.owner in classes:
                break
        else:
            outer = d.qualname.split(".")
            if any(f"{d.file.rel}::{'.'.join(outer[:i])}" in covering for i in range(1, len(outer))):
                continue
            covering.add(d.key)
            findings.append((f"src/repro/{d.file.rel}", d.node.lineno, d.qualname, last - first + 1))
    return findings


def _targets(program: _Program) -> Dict[str, _Target]:
    """Every function's and class's parameters, by key.  A class takes its
    own ``__init__``'s, else its fields after its bases' (a dataclass),
    else its nearest base's."""
    targets: Dict[str, _Target] = {}
    own: Dict[str, Tuple[List[str], List[Tuple[str, int]], bool]] = {}
    for d in program.defs:
        node = d.node
        if isinstance(node, ast.ClassDef):
            init = next((s for s in _module_level(node.body)
                         if type(s) in _FUNCS and s.name == "__init__"), None)
            if init is not None:
                own[d.key] = (*_signature(init, True), False)
            elif _is_dataclass(node):
                found = _fields(node)
                own[d.key] = ([n for n, _, _ in found], [(n, ln) for n, ln, dflt in found if dflt], True)
        else:
            static = any(_class_name(x) == "staticmethod" for x in node.decorator_list)
            targets[d.key] = _Target(d.key, node.name, d.owner,
                                     *_signature(node, d.owner is not None and not static), False)
    for d in program.defs:
        if isinstance(d.node, ast.ClassDef):
            positional: List[str] = []
            for key in reversed(program.mro(d.key)):
                if key in own:
                    names, _, fields = own[key]
                    positional = positional + names if fields else list(names)
            _, defaulted, fields = own.get(d.key, ([], [], False))
            targets[d.key] = _Target(d.key, d.node.name, d.owner, positional, defaulted, fields)
    return targets


def unset_parameters(program: _Program) -> Tuple[List[Finding], int]:
    """Defaulted parameters and fields of definitions not on the allowlist
    that no call outside tests and the allowlist sets; and how many
    defaulted parameters and fields ``src/repro`` has in all."""
    targets = _targets(program)
    by_name: Dict[str, List[_Target]] = {}
    for t in targets.values():
        by_name.setdefault(t.name, []).append(t)
    fields = {key for key, t in targets.items() if t.fields}
    set_params: Set[Tuple[str, str]] = set()
    star: Set[str] = set()  # keys whose every parameter some call sets
    anonymous: Set[str] = set()
    escaped: Set[str] = set()
    for f in program.files:
        anonymous |= f.anonymous
        escaped |= f.escaped
        for name, tag in f.assigned:
            set_params.update((key, name) for key in program.resolve(tag) or fields
                              if key in fields)
        for call in f.calls:
            if program.in_allowlisted(f.path, call.line):
                continue
            named = program.resolve(call.tag)
            if call.name == "__init__" or (call.bare and named):  # super().__init__(), cls()
                hits = [targets[k] for k in named or program.classes]
            else:
                member = None if call.bare else program.hits(call.tag, call.name)
                hits = [t for t in by_name.get(call.name, ())
                        if member is None or t.owner in member]
            for target in hits:
                names = call.keywords.union(target.positional[:call.positional])
                chain = program.mro(target.key) if target.key in program.classes else [target.key]
                for key in chain:
                    if call.star:
                        star.add(key)
                    set_params.update((key, n) for n in names)
    findings: List[Finding] = []
    for t in targets.values():
        if _covered(t.key, program.allowlist) or t.key in star:
            continue
        path, _, qualname = t.key.partition("::")
        for name, line in t.defaulted:
            if (t.key, name) not in set_params and not (name in anonymous and t.name in escaped):
                findings.append((f"src/repro/{path}", line, f"{qualname}({name})", 1))
    return sorted(findings), sum(len(t.defaulted) for t in targets.values())


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


def census(files: Optional[List[_File]] = None, allowlist: Dict[str, str] = ALLOWLIST) -> Census:
    """Parse every caller file once (or take ``files``) and run the
    checks; the findings include what the allowlists name.  The cyclic
    collector pauses meanwhile: the parse allocates only objects that
    stay live until it returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        if files is None:
            files = [_File(p) for name in CALLER_DIRS for p in sorted((ROOT / name).rglob("*.py"))]
        program = _Program(files, allowlist)
        unset, settable = unset_parameters(program)
        return Census(uncalled_definitions(program), unread_imports(files), unset, settable)
    finally:
        if enabled:
            gc.enable()


def _report(findings: List[Finding]) -> str:
    return "\n".join(f"{path}:{line} {name} ({n} lines)" for path, line, name, n in findings)


def _key(finding: Finding) -> str:
    return f"{finding[0][len('src/repro/'):]}::{finding[2]}"


def unexplained(result: Census) -> List[Finding]:
    """Findings that no allowlist names."""
    return ([f for f in result.uncalled if _key(f) not in ALLOWLIST] + result.unread
            + [f for f in result.unset if _key(f) not in PARAM_ALLOWLIST])


@functools.lru_cache(maxsize=1)
def _findings() -> Census:
    return census()


def test_every_definition_has_a_caller_outside_tests():
    unlisted = [f for f in _findings().uncalled if _key(f) not in ALLOWLIST]
    assert not unlisted, (
        "definitions under src/ that only tests or the allowlist reach (delete "
        "them, or add an ALLOWLIST entry with a reason):\n" + _report(unlisted)
    )


def test_every_defaulted_parameter_is_set_outside_tests():
    unlisted = [f for f in _findings().unset if _key(f) not in PARAM_ALLOWLIST]
    assert not unlisted, (
        "defaulted parameters that no call outside tests sets (delete them with "
        "the branches their default makes dead, or add a PARAM_ALLOWLIST entry "
        "with a reason):\n" + _report(unlisted)
    )


def test_every_module_level_import_is_read():
    unread = _findings().unread
    assert not unread, "imports their module never reads:\n" + _report(unread)


def test_allowlist_is_small_and_current():
    assert (len(ALLOWLIST), len(PARAM_ALLOWLIST)) == (17, 19)
    stale = sorted(set(ALLOWLIST) - {_key(f) for f in _findings().uncalled})
    assert not stale, f"allowlisted definitions with a caller outside the allowlist now: {stale}"
    stale = sorted(set(PARAM_ALLOWLIST) - {_key(f) for f in _findings().unset})
    assert not stale, f"allowlisted parameters that a call outside tests sets now: {stale}"
    vague = [k for k, why in ALLOWLIST.items() if not REASON.search(why)]
    vague += [k for k, why in PARAM_ALLOWLIST.items() if not PARAM_REASON.match(why)]
    assert not vague, f"allowlist reasons that name no paper section, oracle, safety path or ROADMAP item: {vague}"


#: One synthetic program per check: ``(sources, allowlist, check, the
#: injected finding, its control)``.  The control sits beside the
#: injected case and must pass.
SELF_TESTS = {
    "uncalled": (
        {"src/repro/_census/mod.py": "def used():\n    pass\n\n\ndef unused():\n    pass\n",
         "scripts/_census.py": "from repro._census.mod import used\nused()\n"},
        {}, "uncalled", "_census/mod.py::unused", "_census/mod.py::used",
    ),
    "unread import": (
        {"src/repro/_census/mod.py": "import json\nimport os\n\n\ndef f():\n    return os.sep\n",
         "scripts/_census.py": "from repro._census.mod import f\nf()\n"},
        {}, "unread", "_census/mod.py::import json", "_census/mod.py::import os",
    ),
    "allowlist reach": (
        {"src/repro/_census/mod.py": (
            "class Kept:\n    def run(self):\n        return only_kept() + shared()\n\n\n"
            "def only_kept():\n    return 1\n\n\ndef shared():\n    return 2\n"),
         "scripts/_census.py": "from repro._census.mod import shared\nshared()\n"},
        {"_census/mod.py::Kept": "test oracle"}, "uncalled",
        "_census/mod.py::only_kept", "_census/mod.py::shared",
    ),
    "shared member name": (
        {"src/repro/_census/mod.py": (
            "class Live:\n    def table(self):\n        return 1\n\n\n"
            "class Dead:\n    def table(self):\n        return 2\n"),
         "scripts/_census.py": (
             "from repro._census.mod import Dead, Live\n\n\n"
             "def use(live: Live):\n    return live.table(), Dead()\n\n\ntable = use(Live())\n")},
        {}, "uncalled", "_census/mod.py::Dead.table", "_census/mod.py::Live.table",
    ),
    "unset parameter": (
        {"src/repro/_census/mod.py": "def f(x, used=1, unused=2):\n    return x + used + unused\n",
         "scripts/_census.py": "from repro._census.mod import f\nf(0, used=3)\n"},
        {}, "unset", "_census/mod.py::f(unused)", "_census/mod.py::f(used)",
    ),
}


def _self_test(case: str) -> None:
    sources, allowlist, check, injected, control = SELF_TESTS[case]
    files = [_File(ROOT / path, text) for path, text in sources.items()]
    flagged = {_key(f) for f in getattr(census(files, allowlist), check)}
    assert injected in flagged, f"{case}: the census missed {injected}"
    assert control not in flagged, f"{case}: the census flagged its control {control}"


def test_census_flags_an_uncalled_definition():
    _self_test("uncalled")


def test_census_flags_an_unread_import():
    _self_test("unread import")


def test_census_flags_what_only_the_allowlist_reaches():
    _self_test("allowlist reach")


def test_census_flags_a_dead_member_that_shares_a_live_name():
    _self_test("shared member name")


def test_census_flags_an_unset_defaulted_parameter():
    _self_test("unset parameter")


def test_census_is_fast():
    # CPU time, so other jobs on the host do not make the census look slow.
    start = time.process_time()
    census()
    assert time.process_time() - start < 2.0


if __name__ == "__main__":
    start = time.perf_counter()
    result = census()
    found = result.uncalled + result.unread + result.unset
    print(_report(found))
    print(f"{len(found)} findings, {sum(f[3] for f in found)} lines, "
          f"{time.perf_counter() - start:.2f} s")
    print(f"{result.settable} settable values (defaulted parameters and defaulted "
          f"dataclass fields) under src/repro, {len(PARAM_ALLOWLIST)} of them on PARAM_ALLOWLIST")
    missing = unexplained(result)
    if missing:
        print("\nnot on an allowlist:\n" + _report(missing))
    sys.exit(1 if missing else 0)
