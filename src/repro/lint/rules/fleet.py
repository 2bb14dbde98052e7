"""RPL105–RPL108 — process-fleet hygiene rules.

The shared engine ships work across a process boundary (RunSpec pickles
into a persistent fleet, memo entries travel in worker start-up
snapshots and back with each result, batch solvers collate by
position), so a second family of hazards exists that never mattered
in-process:

* RPL105 — unpicklable payloads (lambdas, local functions, local-class
  instances) *inside* the kwargs/args that travel with submitted work.
  RPL006 already checks the callable itself; this rule checks the cargo.
* RPL106 — pools/locks/Manager constructed at import time.  Import runs
  in every fleet worker too (workers import the module to unpickle its
  functions), so an import-time pool forks pools recursively, and an
  import-time lock can be copied *held* through ``fork``.
* RPL107 — unordered collections (sets, dict views) feeding batch APIs
  whose outputs are collated positionally.  Set iteration order varies
  with hash seeding; a reordered batch row silently reassigns results.
* RPL108 — ``BrokenProcessPool`` (or a broad except around fleet calls)
  swallowed with a no-op handler.  A broken pool means a worker died
  mid-task; dropping that error silently loses the task's results.

These are heuristics: the runtime sanitizer (RPL153) checks the memo
entries that come home, and deliberate exceptions take
``# repro: noqa[RPL10x]`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import Finding, ImportMap, ParsedModule, Rule, Severity

__all__ = [
    "UnpicklablePayloadRule",
    "ImportTimeConcurrencyRule",
    "UnorderedBatchRule",
    "SwallowedFleetFailureRule",
]

#: Dotted constructors that spin up concurrency machinery.
_CONCURRENCY_FACTORIES = frozenset(
    {
        "multiprocessing.Manager",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "multiprocessing.Condition",
        "multiprocessing.Semaphore",
    }
)

#: Batch entry points whose results are collated by input position.
_BATCH_FUNCTIONS = frozenset(
    {
        "solve_tasks_multi",
        "solve_mva_batch",
        "measure_batch",
        "prefetch_configs",
    }
)

#: Receiver-name fragments marking a pool/fleet handle for ``.map``.
_POOL_RECEIVERS = ("pool", "executor", "fleet")


def _last_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class UnpicklablePayloadRule(Rule):
    """Flag unpicklable values travelling with cross-process work.

    Everything inside ``RunSpec(kwargs={...})``, the extra arguments of
    ``.submit(fn, *args, **kwargs)``, and a pool's ``initializer=`` /
    ``initargs=`` is pickled to reach a worker.  Lambdas, functions
    defined inside another function, and instances of classes defined
    inside a function all fail that pickling — but only on the actual
    multi-process path, so the bug ships as a works-serially-only
    landmine.  Pass module-level callables and plain data instead.
    """

    id = "RPL105"
    name = "unpicklable-payload"
    severity = Severity.ERROR

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        local_defs = self._local_defs(module.tree)
        local_classes = self._local_classes(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            for payload, where in self._payloads(node):
                yield from self._check_value(
                    module, payload, where, local_defs, local_classes
                )

    def _payloads(
        self, call: ast.Call
    ) -> Iterator[tuple[ast.expr, str]]:
        """(value, description) pairs that will cross the process boundary."""
        func = call.func
        if isinstance(func, ast.Name) and func.id == "RunSpec":
            for kw in call.keywords:
                if kw.arg == "kwargs":
                    yield from self._dict_values(kw.value, "RunSpec kwargs")
            if len(call.args) >= 3:
                yield from self._dict_values(call.args[2], "RunSpec kwargs")
        elif isinstance(func, ast.Attribute) and func.attr == "submit":
            for arg in call.args[1:]:
                yield arg, ".submit() argument"
            for kw in call.keywords:
                if kw.arg is not None and kw.value is not None:
                    yield kw.value, f".submit() keyword '{kw.arg}'"
        elif isinstance(func, ast.Name) and func.id in (
            "ProcessPoolExecutor",
            "Pool",
        ):
            for kw in call.keywords:
                if kw.arg == "initializer":
                    yield kw.value, "pool initializer"
                elif kw.arg == "initargs" and isinstance(
                    kw.value, (ast.Tuple, ast.List)
                ):
                    for element in kw.value.elts:
                        yield element, "pool initargs element"

    @staticmethod
    def _dict_values(
        node: ast.expr, where: str
    ) -> Iterator[tuple[ast.expr, str]]:
        if isinstance(node, ast.Dict):
            for value in node.values:
                if value is not None:
                    yield value, where
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Name
        ) and node.func.id == "dict":
            for kw in node.keywords:
                if kw.value is not None:
                    yield kw.value, where

    def _check_value(
        self,
        module: ParsedModule,
        value: ast.expr,
        where: str,
        local_defs: frozenset[str],
        local_classes: frozenset[str],
    ) -> Iterator[Finding]:
        for sub in ast.walk(value):
            if isinstance(sub, ast.Lambda):
                yield self.finding(
                    module,
                    sub,
                    f"lambda in {where} cannot be pickled to a fleet "
                    "worker; use a module-level function",
                )
            elif isinstance(sub, ast.Name) and sub.id in local_defs:
                yield self.finding(
                    module,
                    sub,
                    f"locally-defined function {sub.id!r} in {where} "
                    "cannot be pickled to a fleet worker; move it to "
                    "module level",
                )
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in local_classes
            ):
                yield self.finding(
                    module,
                    sub,
                    f"instance of locally-defined class {sub.func.id!r} in "
                    f"{where} cannot be pickled to a fleet worker; define "
                    "the class at module level",
                )

    @staticmethod
    def _local_defs(tree: ast.Module) -> frozenset[str]:
        names: set[str] = set()
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer:
                    continue
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(inner.name)
        return frozenset(names)

    @staticmethod
    def _local_classes(tree: ast.Module) -> frozenset[str]:
        names: set[str] = set()
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if isinstance(inner, ast.ClassDef):
                    names.add(inner.name)
        return frozenset(names)


class ImportTimeConcurrencyRule(Rule):
    """Flag pools, locks, and Managers constructed at import time.

    Module import runs in *every* process that unpickles a function from
    the module — including each fleet worker.  An import-time
    ``ProcessPoolExecutor``/``Manager`` therefore spawns helper processes
    recursively in every worker, and an import-time lock created in the
    parent is duplicated by ``fork`` in whatever state it happens to be
    in (possibly held, deadlocking the child).  Create concurrency
    machinery lazily, inside a function or method, after fork.
    """

    id = "RPL106"
    name = "import-time-concurrency"
    severity = Severity.ERROR

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        yield from self._scan(module, module.tree.body, module.imports)

    def _scan(
        self,
        module: ParsedModule,
        stmts: list[ast.stmt],
        imports: ImportMap,
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # lazy construction — exactly the fix
            if isinstance(stmt, ast.ClassDef):
                yield from self._scan(module, stmt.body, imports)
                continue
            # Manual stack walk pruning deferred-execution subtrees
            # (functions, lambdas): only code that runs *at import* counts.
            stack: list[ast.AST] = [stmt]
            while stack:
                sub = stack.pop()
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                stack.extend(ast.iter_child_nodes(sub))
                if (
                    isinstance(sub, ast.Call)
                    and imports.resolve(sub.func) in _CONCURRENCY_FACTORIES
                ):
                    what = imports.resolve(sub.func)
                    yield self.finding(
                        module,
                        sub,
                        f"'{what}' constructed at import time is fork-"
                        "unsafe: every fleet worker re-runs the import, "
                        "and fork can duplicate a held lock; construct it "
                        "lazily inside a function",
                    )


class UnorderedBatchRule(Rule):
    """Flag unordered collections feeding positionally-collated batches.

    ``solve_tasks_multi``/``measure_batch``/``pool.map`` and friends
    return results *by input position*; iterating a ``set`` (or raw
    ``.keys()``/``.values()``/``.items()`` views of an order-sensitive
    dict) to build their input makes that position depend on hash
    seeding, so the same run can assign solutions to different tasks on
    different interpreters.  Materialize through ``sorted(...)`` first.
    """

    id = "RPL107"
    name = "unordered-batch-input"
    severity = Severity.ERROR

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            label = self._batch_label(node)
            if label is None:
                continue
            values = list(node.args) + [
                kw.value for kw in node.keywords if kw.value is not None
            ]
            for value in values:
                culprit = self._unordered(value)
                if culprit is not None:
                    yield self.finding(
                        module,
                        culprit,
                        f"unordered {self._describe(culprit)} feeds "
                        f"'{label}', whose results are collated by input "
                        "position; wrap it in sorted(...) so batch order "
                        "is independent of hash seeding",
                    )

    @staticmethod
    def _batch_label(call: ast.Call) -> Optional[str]:
        func = call.func
        name = _last_name(func)
        if name in _BATCH_FUNCTIONS:
            return name
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "map"
            and (receiver := _last_name(func.value)) is not None
            and any(frag in receiver.lower() for frag in _POOL_RECEIVERS)
        ):
            return f"{receiver}.map"
        return None

    def _unordered(self, value: ast.expr) -> Optional[ast.expr]:
        """The unordered sub-expression making ``value`` order-unstable."""
        if isinstance(value, ast.Call):
            name = _last_name(value.func)
            if name in ("sorted",):
                return None  # explicitly ordered — the fix
            if isinstance(value.func, ast.Name) and name in (
                "set",
                "frozenset",
            ):
                return value
            if isinstance(value.func, ast.Attribute) and value.func.attr in (
                "keys",
                "values",
                "items",
            ):
                return value
            if isinstance(value.func, ast.Name) and name in ("list", "tuple"):
                for arg in value.args:
                    culprit = self._unordered(arg)
                    if culprit is not None:
                        return culprit
                return None
        if isinstance(value, ast.Set):
            return value
        if isinstance(
            value, (ast.ListComp, ast.GeneratorExp, ast.SetComp)
        ):
            for gen in value.generators:
                culprit = self._unordered(gen.iter)
                if culprit is not None:
                    return culprit
            if isinstance(value, ast.SetComp):
                return value
        return None

    @staticmethod
    def _describe(node: ast.expr) -> str:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set literal"
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                return f"'.{node.func.attr}()' dict view"
            return f"'{node.func.id}(...)'"  # type: ignore[union-attr]
        return "collection"


class SwallowedFleetFailureRule(Rule):
    """Flag handlers that drop a dead-worker error on the floor.

    ``BrokenProcessPool`` means a fleet worker died mid-task — its
    results are gone and the pool is unusable.  A handler that just
    ``pass``es (or ``continue``s, or ``return``s nothing) converts that
    hard failure into silently missing measurements.  Either re-raise
    after cleanup, rebuild the pool and retry (what
    ``SharedEngine._run_fleet`` does), or convert the loss into an
    explicit penalty the tuning loop can see.  Broad ``except Exception``
    with a no-op body gets the same treatment when the guarded code
    performs fleet operations (``.map``/``.submit``/pool construction).
    """

    id = "RPL108"
    name = "swallowed-fleet-failure"
    severity = Severity.ERROR

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            fleet_body = self._does_fleet_work(node.body)
            for handler in node.handlers:
                if not self._noop(handler.body):
                    continue
                if self._names_broken_pool(handler.type):
                    yield self.finding(
                        module,
                        handler,
                        "BrokenProcessPool swallowed with a no-op handler: "
                        "a dead worker's results are silently lost; "
                        "rebuild-and-retry or re-raise",
                    )
                elif fleet_body and self._is_broad(handler.type):
                    yield self.finding(
                        module,
                        handler,
                        "broad except with a no-op body around fleet "
                        "operations also swallows BrokenProcessPool; "
                        "handle worker death explicitly",
                    )

    @staticmethod
    def _names_broken_pool(type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return False
        names = (
            type_node.elts
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        return any(
            _last_name(n) == "BrokenProcessPool" for n in names
        )

    @staticmethod
    def _is_broad(type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return True  # bare except
        names = (
            type_node.elts
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        return any(
            isinstance(n, ast.Name) and n.id in ("Exception", "BaseException")
            for n in names
        )

    @staticmethod
    def _noop(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue
            if isinstance(stmt, ast.Return) and (
                stmt.value is None or isinstance(stmt.value, ast.Constant)
            ):
                continue
            return False
        return True

    @staticmethod
    def _does_fleet_work(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if isinstance(func, ast.Attribute) and func.attr in (
                    "map",
                    "submit",
                ):
                    return True
                if (
                    isinstance(func, ast.Name)
                    and func.id == "ProcessPoolExecutor"
                ):
                    return True
        return False
