"""Timing probes for the traced run: spans at each layer boundary.

The probe table below is data.  Each entry names one public callable of
the program; :meth:`Tracer.install` wraps it wherever callers look the
name up (a class attribute, or every loaded ``repro`` module that bound
the function by name) and :meth:`Tracer.remove` puts the original back.
An entry whose callable a later change renamed or deleted is skipped and
listed in :attr:`Tracer.unavailable`; the per-layer metrics that needed
it report ``None``.  Nothing here touches a private name, and the
end-to-end metrics never depend on a probe.

A span is ``[name, start, end, parent, request]`` (monotonic seconds,
indices into :attr:`Tracer.spans`, ``-1`` for none).  Per-entry callables
(``Pruner.process``) are never wrapped: scalar-loop time lands in the
self time of ``engine.run``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence

NAME, START, END, PARENT, REQUEST = range(5)
#: ``parent`` arguments of :meth:`Tracer._begin` that are not a span index.
INNERMOST, ROOT = -1, -2

#: ``(span name, module, dotted attribute, options)``.  The span name's
#: first component is the layer.  Options: ``entries=i`` counts
#: ``len(args[i])`` into ``<layer>.entries``; ``subclasses`` wraps the
#: method on every subclass that overrides it; ``hook`` names a
#: :class:`Tracer` method run on the callable's result.
PROBES = (
    ("sketches.bloom_add", "repro.sketches.bloom", "BloomFilter.add_batch", {"entries": 1}),
    ("sketches.bloom_contains", "repro.sketches.bloom", "BloomFilter.contains_batch", {"entries": 1}),
    ("sketches.regbloom_add", "repro.sketches.bloom", "RegisterBloomFilter.add_batch", {"entries": 1}),
    ("sketches.regbloom_contains", "repro.sketches.bloom", "RegisterBloomFilter.contains_batch", {"entries": 1}),
    ("sketches.cache_row_of", "repro.sketches.cachematrix", "CacheMatrix.row_of_batch", {"entries": 1}),
    ("sketches.cache_lookup_insert", "repro.sketches.cachematrix", "CacheMatrix.lookup_insert_batch", {"entries": 1}),
    ("sketches.rollmin_offer", "repro.sketches.cachematrix", "RollingMinMatrix.offer_batch", {"entries": 1}),
    ("sketches.keyed_row_of", "repro.sketches.cachematrix", "KeyedAggregateMatrix.row_of_batch", {"entries": 1}),
    ("sketches.keyed_observe", "repro.sketches.cachematrix", "KeyedAggregateMatrix.observe_batch", {"entries": 1}),
    ("sketches.countmin_estimate", "repro.sketches.countmin", "CountMinSketch.estimate_batch", {"entries": 1}),
    ("sketches.countmin_add", "repro.sketches.countmin", "CountMinSketch.add_batch", {"entries": 1}),
    ("sketches.fingerprint_of", "repro.sketches.fingerprint", "FingerprintScheme.of_batch", {"entries": 1}),
    ("sketches.canonical", "repro.sketches.hashing", "canonical_batch", {"entries": 0}),
    ("sketches.hash64", "repro.sketches.hashing", "hash64_batch", {"entries": 0}),
    ("sketches.hash_range", "repro.sketches.hashing", "hash_range_batch", {"entries": 0}),
    ("sketches.fingerprint", "repro.sketches.hashing", "fingerprint_batch", {"entries": 0}),
    ("core.process_batch", "repro.core.base", "Pruner.process_batch", {"subclasses": True, "hook": "_after_process_batch"}),
    ("core.probe_batch", "repro.core.join", "JoinPruner.probe_batch", {}),
    ("core.master_topn", "repro.core.topn", "master_topn", {}),
    ("core.master_groupby", "repro.core.groupby", "master_groupby", {}),
    ("core.master_having", "repro.core.having", "master_having", {}),
    ("core.master_skyline", "repro.core.skyline", "master_skyline", {}),
    ("core.master_distinct", "repro.core.distinct", "master_distinct", {}),
    ("switch.plan_fused", "repro.switch.fuse", "plan_fused", {}),
    ("switch.run_batch", "repro.switch.fuse", "FusedProgram.run_batch", {}),
    ("switch.pack", "repro.switch.compiler", "pack", {}),
    ("switch.check_fits", "repro.switch.compiler", "check_fits_cached", {}),
    ("engine.run", "repro.engine.cluster", "Cluster.run", {"hook": "_after_run", "plan": 1}),
    ("engine.run_packed", "repro.engine.cluster", "Cluster.run_packed", {"hook": "_after_run_packed", "plan": 1}),
    ("engine.parse", "repro.engine.sql", "parse", {}),
    ("parallel.run_parallel", "repro.parallel.runner", "run_parallel", {"hook": "_after_run_parallel"}),
    ("parallel.export", "repro.parallel.shm", "SharedColumnStore.__init__", {}),
    ("parallel.plan_hash_shards", "repro.parallel.shard", "plan_hash_shards", {}),
    ("serve.submit", "repro.serve.server", "QueryService.submit", {"hook": "_after_submit"}),
    ("fleet.route", "repro.fleet.router", "QueryRouter.route", {}),
    ("fleet.submit", "repro.fleet.controller", "FleetController.submit", {}),
    ("fleet.rolling_update", "repro.fleet.controller", "FleetController.rolling_update", {}),
)


def _subclasses(cls) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class _RequestTag:
    """Context manager opening a request's root span on this thread."""

    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __enter__(self) -> int:
        self._index = self._tracer._begin("request", ROOT)
        return self._index

    def __exit__(self, *exc) -> None:
        self._tracer._end(self._index)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Probe targets that could not be resolved: ``module:attribute``.
        self.unavailable: List[str] = []
        self._installed: set = set()
        self._patched: List[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``id(plan)`` of a submitted query -> its request's root span,
        #: so engine spans on an executor thread find their request.
        self._by_plan: Dict[int, int] = {}

    # -- recording -----------------------------------------------------------

    def request(self) -> _RequestTag:
        """The workloads' ``tag`` hook: a root span around one request."""
        return _RequestTag(self)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str, parent: int) -> int:
        """Open a span under span ``parent``, under the thread's
        innermost open span (:data:`INNERMOST`), or as a request's
        :data:`ROOT`."""
        stack = self._stack()
        if parent == INNERMOST and stack:
            parent = stack[-1]
        record = [name, 0.0, 0.0, max(parent, -1), -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        if parent == ROOT:
            record[REQUEST] = index
        elif parent >= 0:
            record[REQUEST] = self.spans[parent][REQUEST]
        stack.append(index)
        record[START] = time.monotonic()
        return index

    def _end(self, index: int) -> None:
        self.spans[index][END] = time.monotonic()
        self._stack().pop()

    def _add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def _wrap(self, original: Callable, name: str, options: dict) -> Callable:
        layer = name.split(".", 1)[0]
        entries_arg = options.get("entries")
        plan_arg = options.get("plan")
        hook = getattr(self, options["hook"]) if "hook" in options else None
        tracer = self

        @functools.wraps(original)
        def probe(*args, **kwargs):
            parent = INNERMOST
            if plan_arg is not None and not tracer._stack():
                plan = args[plan_arg]
                if isinstance(plan, (list, tuple)):
                    plan = plan[0]
                parent = tracer._by_plan.get(id(plan), INNERMOST)
            index = tracer._begin(name, parent)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._end(index)
            if entries_arg is not None:
                record = tracer.spans[index]
                outer = record[PARENT]
                # Nested kernels see the same entries; count the outermost.
                if outer < 0 or not tracer.spans[outer][NAME].startswith(layer + "."):
                    try:
                        tracer._add(layer + ".entries", len(args[entries_arg]))
                    except (TypeError, IndexError):
                        pass
            if hook is not None:
                hook(index, args, result)
            return result

        return probe

    # -- result hooks (counts read off public result objects) ----------------

    def _after_process_batch(self, index, args, result) -> None:
        parent = self.spans[index][PARENT]
        if parent >= 0 and self.spans[parent][NAME] == "core.process_batch":
            return  # a subclass delegating to its base: count once
        self._add("core.entries_in", len(result))
        self._add("core.entries_forwarded", int(result.sum()))

    def _account_run(self, index: int, result, kind: Optional[str]) -> None:
        record = self.spans[index]
        self._add("engine.entries_streamed", result.total_streamed)
        self._add("engine.entries_forwarded", result.total_forwarded)
        if kind is not None:
            self._add("engine.run_s." + kind, record[END] - record[START])
        self._add_master_complete(result)
        if result.metrics is None:
            return
        for key, value in result.metrics.counter_values().items():
            family = key.split("{", 1)[0]
            if family == "fused_fallback_total":
                self._add("switch.fused_fallbacks", value)
            elif family == "pool_respawns_total":
                self._add("parallel.pool_respawns", value)
            elif family == "shard_timeouts_total":
                self._add("parallel.shard_timeouts", value)

    def _add_master_complete(self, result) -> None:
        """The program's own ``master-complete`` spans of one result."""
        if result.metrics is not None:
            for span in result.metrics.spans:
                if span.name == "master-complete":
                    self._add("core.master_complete_s", span.seconds)

    def _after_run(self, index, args, result) -> None:
        self._account_run(index, result, result.op_kind)

    def _after_run_packed(self, index, args, result) -> None:
        self._account_run(index, result, None)
        for member in result.results:
            self._add_master_complete(member)

    def _after_run_parallel(self, index, args, result) -> None:
        record = self.spans[index]
        self._add("parallel.run_s." + result.op_kind, record[END] - record[START])

    def _after_submit(self, index, args, result) -> None:
        request = self.spans[index][REQUEST]
        if request >= 0:
            self._by_plan[id(result.query)] = request

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, options in PROBES:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.unavailable.append(f"{module_name}:{path}")
                continue
            self._installed.add(name)
            if options.get("subclasses"):
                owners = [owner, *_subclasses(owner)]
                for cls in owners:
                    if attr in vars(cls):
                        self._patch(cls, attr, name, options)
            elif parents:
                self._patch(owner, attr, name, options)
            else:
                # A module-level function: patch every loaded repro module
                # that bound it by name, the defining one included.
                for module in list(sys.modules.values()):
                    if (
                        getattr(module, "__name__", "").startswith("repro")
                        and vars(module).get(attr) is original
                    ):
                        self._patch(module, attr, name, options)

    def _patch(self, owner, attr: str, name: str, options: dict) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(original, name, options))
        self._patched.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def has(self, *prefixes: str) -> bool:
        """True when every probe under each ``layer.name`` prefix installed."""
        for prefix in prefixes:
            wanted = [name for name, *_ in PROBES if name.startswith(prefix)]
            if not wanted or any(n not in self._installed for n in wanted):
                return False
        return True

    # -- after the window ----------------------------------------------------

    def attach(self, samples: Sequence) -> None:
        """Stretch each request's root span over ``[due, done]`` and add
        the phases only the request's own timeline knows about."""
        by_parent: Dict[int, List[int]] = defaultdict(list)
        for index, record in enumerate(self.spans):
            by_parent[record[PARENT]].append(index)
        for sample in samples:
            root = sample.request_id
            if root < 0:
                continue
            record = self.spans[root]
            children = by_parent.get(root, [])
            # From the generator's stamp to the send is the load generator's time.
            sent = min((self.spans[c][START] for c in children), default=sample.done)
            if sent > sample.due:
                self._synthetic("loadgen.late", sample.due, sent, root)
            record[START], record[END] = sample.due, sample.done
            timeline = sample.timeline
            if not timeline or "executed" not in timeline:
                continue
            self._synthetic("serve.queue_wait", timeline["queued"], timeline["scheduled"], root)
            execute = self._synthetic("serve.exec", timeline["scheduled"], timeline["executed"], root)
            self._synthetic("serve.deliver", timeline["executed"], timeline["completed"], root)
            for child in children:
                if self.spans[child][NAME].startswith("engine.run"):
                    self.spans[child][PARENT] = execute

    def _synthetic(self, name: str, start: float, end: float, parent: int) -> int:
        self.spans.append([name, start, end, parent, parent])
        return len(self.spans) - 1

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its child spans cover."""
        children: Dict[int, List[tuple]] = defaultdict(list)
        for record in self.spans:
            if record[PARENT] >= 0:
                children[record[PARENT]].append((record[START], record[END]))
        out = []
        for index, record in enumerate(self.spans):
            lo, hi = record[START], record[END]
            covered, edge = 0.0, lo
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, edge), min(end, hi)
                if end > start:
                    covered += end - start
                    edge = end
            out.append(max(0.0, (hi - lo) - covered))
        return out

    def write(self, path: str, origin: float) -> None:
        """One JSON object per span, times in seconds from ``origin``."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "request": request,
                }) + "\n")
