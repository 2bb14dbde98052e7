"""RPL101–RPL104 — shared-state and lock-discipline rules.

PR 5's shared execution engine made the repository genuinely concurrent:
a persistent worker fleet, a Manager-backed cross-process store, and
layered L1/L2 caches.  The RPL00x family guards single-threaded
determinism; these rules guard the places where races now live.  All
four are AST heuristics over *lock-bearing* code — a class (or module)
that constructs a ``threading``/``multiprocessing`` synchronization
primitive is declaring "instances of me are shared", and that
declaration is what the rules key on:

* RPL101 — mutating a non-lock ``self`` attribute outside every
  ``with self.<lock>:`` block of a lock-bearing class.
* RPL102 — check-then-set lazy initialization (``if self._x is None:
  self._x = ...``) without holding a lock: two threads both see None and
  both initialize.
* RPL103 — inconsistent lock acquisition order: the module's nested
  ``with`` statements imply a lock-order graph; a cycle (A before B here,
  B before A there) is a deadlock waiting for the right interleaving.
* RPL104 — blocking calls (``pool.map``/``submit``/solver calls/
  cross-process store RPC) made while holding a lock, serializing the
  very work the lock-free design exists to overlap — or deadlocking when
  the blocked-on work needs the held lock.

The rules are heuristic by design; a deliberate exception takes a
``# repro: noqa[RPL10x]`` with a one-line justification, which is
repository policy anyway.  The runtime sanitizer
(:mod:`repro.lint.sanitizer`, rules RPL151–RPL153) re-checks the same
hazards dynamically with real held-lock sets.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import Finding, ImportMap, ParsedModule, Rule, Severity

__all__ = [
    "UnguardedSharedMutationRule",
    "UnlockedLazyInitRule",
    "LockOrderRule",
    "BlockingCallUnderLockRule",
]

#: Dotted constructors whose result is a synchronization primitive.
LOCK_FACTORIES = frozenset(
    {
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

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "pop",
        "popitem",
        "clear",
        "extend",
        "insert",
        "remove",
        "discard",
        "setdefault",
        "move_to_end",
    }
)

#: Methods where unguarded writes are construction, not sharing.
_CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "__del__", "__repr__"}
)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is ``self.attr`` / ``cls.attr``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
    ):
        return node.attr
    return None


def _creates_lock(value: ast.AST, imports: ImportMap) -> bool:
    """Whether evaluating ``value`` constructs a synchronization primitive.

    Walks the whole expression so wrapped constructions — e.g.
    ``sanitizer.wrap_lock("name", threading.Lock())`` or
    ``threading.Condition(threading.RLock())`` — still register.
    """
    for sub in ast.walk(value):
        if isinstance(sub, ast.Call) and imports.resolve(sub.func) in LOCK_FACTORIES:
            return True
    return False


def class_lock_attrs(cls: ast.ClassDef, imports: ImportMap) -> frozenset[str]:
    """Attribute names bound to locks anywhere in the class (incl. body)."""
    names: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign) and _creates_lock(stmt.value, imports):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and _creates_lock(node.value, imports):
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    names.add(attr)
    return frozenset(names)


def module_lock_names(tree: ast.Module, imports: ImportMap) -> frozenset[str]:
    """Module-level names bound to locks."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _creates_lock(stmt.value, imports):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    return frozenset(names)


def _with_locks(
    node: ast.With | ast.AsyncWith,
    class_locks: frozenset[str],
    module_locks: frozenset[str],
) -> list[str]:
    """Canonical keys of the known locks a ``with`` statement acquires."""
    keys: list[str] = []
    for item in node.items:
        expr = item.context_expr
        attr = _self_attr(expr)
        if attr is not None and attr in class_locks:
            keys.append(f"self.{attr}")
        elif isinstance(expr, ast.Name) and expr.id in module_locks:
            keys.append(expr.id)
    return keys


def _tested_attrs(test: ast.expr) -> frozenset[str]:
    """Self attributes read anywhere inside an ``if`` test expression."""
    found: set[str] = set()
    for sub in ast.walk(test):
        attr = _self_attr(sub)
        if attr is not None:
            found.add(attr)
    return frozenset(found)


class UnguardedSharedMutationRule(Rule):
    """Flag mutation of worker-visible shared state outside its lock.

    A class that constructs a lock is advertising that its instances are
    shared between threads or processes; every write to its non-lock
    ``self`` attributes (assignment, augmented assignment, subscript
    store, or an in-place container method like ``.append``/``.update``)
    must then happen inside a ``with self.<lock>:`` block — otherwise a
    second thread or a fleet callback can interleave mid-update and corrupt
    counters, caches, or the worker-visible structures the shared engine
    collates results from.  Construction (``__init__``/``__post_init__``)
    is exempt (the instance is not yet shared), and check-then-set lazy
    initialization is RPL102's finding, not this rule's.
    """

    id = "RPL101"
    name = "unguarded-shared-mutation"
    severity = Severity.ERROR
    path_markers = ("repro/parallel/",)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        module_locks = module_lock_names(module.tree, module.imports)
        for cls in (
            n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
        ):
            locks = class_lock_attrs(cls, module.imports)
            if not locks:
                continue
            for meth in cls.body:
                if not isinstance(
                    meth, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if meth.name in _CONSTRUCTION_METHODS:
                    continue
                yield from self._scan(
                    module, meth.body, locks, module_locks,
                    held=False, lazy=frozenset(),
                )

    def _scan(
        self,
        module: ParsedModule,
        stmts: list[ast.stmt],
        locks: frozenset[str],
        module_locks: frozenset[str],
        held: bool,
        lazy: frozenset[str],
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                guarded = held or bool(
                    _with_locks(stmt, locks, module_locks)
                )
                yield from self._scan(
                    module, stmt.body, locks, module_locks, guarded, lazy
                )
            elif isinstance(stmt, ast.If):
                tested = _tested_attrs(stmt.test) - locks
                yield from self._scan(
                    module, stmt.body, locks, module_locks, held,
                    lazy | tested,
                )
                yield from self._scan(
                    module, stmt.orelse, locks, module_locks, held, lazy
                )
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                yield from self._scan(
                    module, stmt.body + stmt.orelse, locks, module_locks,
                    held, lazy,
                )
            elif isinstance(stmt, ast.Try):
                bodies = stmt.body + stmt.orelse + stmt.finalbody
                for handler in stmt.handlers:
                    bodies = bodies + handler.body
                yield from self._scan(
                    module, bodies, locks, module_locks, held, lazy
                )
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested definitions run in their own context
            elif not held:
                yield from self._mutations(module, stmt, locks, lazy)

    def _mutations(
        self,
        module: ParsedModule,
        stmt: ast.stmt,
        locks: frozenset[str],
        lazy: frozenset[str],
    ) -> Iterator[Finding]:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
            ):
                attr = _self_attr(func.value)
                if attr is not None and attr not in locks and attr not in lazy:
                    yield self.finding(
                        module,
                        stmt.value,
                        f"in-place '.{func.attr}()' on shared attribute "
                        f"'self.{attr}' outside every lock of this class; "
                        "concurrent threads/workers can interleave — hold "
                        "the lock around the mutation",
                    )
            return
        else:
            return
        for target in targets:
            attr = _self_attr(target)
            if attr is None and isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
            if attr is None and isinstance(target, ast.Tuple):
                for element in target.elts:
                    attr = _self_attr(element)
                    if attr is not None:
                        break
            if attr is None or attr in locks or attr in lazy:
                continue
            yield self.finding(
                module,
                target,
                f"mutation of shared attribute 'self.{attr}' outside every "
                "lock of this lock-bearing class; guard it with the "
                "instance lock (or justify with a noqa comment)",
            )


class UnlockedLazyInitRule(Rule):
    """Flag check-then-set lazy initialization performed without a lock.

    ``if self._pool is None: self._pool = ProcessPoolExecutor(...)`` in a
    shared object is a textbook time-of-check/time-of-use race: two
    threads both observe None and both construct, leaking one pool (or
    one Manager process) and splitting subsequent work across two caches.
    Hold the instance lock around the whole check *and* set — the
    double-checked form (unlocked fast-path check, then re-check under
    the lock before assigning) also passes this rule.
    """

    id = "RPL102"
    name = "unlocked-lazy-init"
    severity = Severity.ERROR
    path_markers = ("repro/parallel/",)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        module_locks = module_lock_names(module.tree, module.imports)
        for cls in (
            n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
        ):
            locks = class_lock_attrs(cls, module.imports)
            if not locks:
                continue
            for meth in cls.body:
                if not isinstance(
                    meth, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if meth.name in _CONSTRUCTION_METHODS:
                    continue
                yield from self._scan(
                    module, meth.body, locks, module_locks, held=False
                )

    def _scan(
        self,
        module: ParsedModule,
        stmts: list[ast.stmt],
        locks: frozenset[str],
        module_locks: frozenset[str],
        held: bool,
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                guarded = held or bool(_with_locks(stmt, locks, module_locks))
                yield from self._scan(
                    module, stmt.body, locks, module_locks, guarded
                )
            elif isinstance(stmt, ast.If):
                tested = _tested_attrs(stmt.test) - locks
                if (
                    not held
                    and tested
                    and self._sets_unguarded(
                        stmt.body, tested, locks, module_locks
                    )
                ):
                    attrs = ", ".join(
                        f"self.{a}" for a in sorted(tested)
                    )
                    yield self.finding(
                        module,
                        stmt,
                        f"check-then-set lazy initialization of {attrs} "
                        "without a lock: two threads can both see the "
                        "uninitialized state and both initialize; hold the "
                        "instance lock around the check and the assignment",
                    )
                else:
                    yield from self._scan(
                        module, stmt.body, locks, module_locks, held
                    )
                yield from self._scan(
                    module, stmt.orelse, locks, module_locks, held
                )
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                yield from self._scan(
                    module, stmt.body + stmt.orelse, locks, module_locks, held
                )
            elif isinstance(stmt, ast.Try):
                bodies = stmt.body + stmt.orelse + stmt.finalbody
                for handler in stmt.handlers:
                    bodies = bodies + handler.body
                yield from self._scan(module, bodies, locks, module_locks, held)

    def _sets_unguarded(
        self,
        stmts: list[ast.stmt],
        tested: frozenset[str],
        locks: frozenset[str],
        module_locks: frozenset[str],
    ) -> bool:
        """Whether the body assigns a tested attr outside every lock."""
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                if _with_locks(stmt, locks, module_locks):
                    continue  # guarded (double-checked) — fine
                if self._sets_unguarded(stmt.body, tested, locks, module_locks):
                    return True
            elif isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
                inner = list(stmt.body) + list(stmt.orelse)
                if self._sets_unguarded(inner, tested, locks, module_locks):
                    return True
            elif isinstance(stmt, ast.Try):
                bodies = stmt.body + stmt.orelse + stmt.finalbody
                for handler in stmt.handlers:
                    bodies = bodies + handler.body
                if self._sets_unguarded(bodies, tested, locks, module_locks):
                    return True
            elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    attr = _self_attr(target)
                    if attr is None and isinstance(target, ast.Subscript):
                        attr = _self_attr(target.value)
                    if attr in tested:
                        return True
            elif isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Call
            ):
                func = stmt.value.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                    and _self_attr(func.value) in tested
                ):
                    return True
        return False


class LockOrderRule(Rule):
    """Flag modules whose nested ``with`` statements imply a lock cycle.

    Every lexically nested acquisition ``with A: ... with B:`` adds the
    edge A→B to a per-module lock-order graph.  If the reverse edge B→A
    also appears, the two code paths deadlock under the right
    interleaving — thread 1 holds A waiting for B while thread 2 holds B
    waiting for A.  The finding anchors at the later acquisition site and
    names the earlier one; the fix is a single global acquisition order
    (document it next to the lock definitions).
    """

    id = "RPL103"
    name = "lock-order-inversion"
    severity = Severity.ERROR

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        module_locks = module_lock_names(module.tree, module.imports)
        edges: dict[tuple[str, str], tuple[int, ast.AST]] = {}

        def scan(
            stmts: list[ast.stmt],
            stack: tuple[str, ...],
            class_locks: frozenset[str],
        ) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    keys = _with_locks(stmt, class_locks, module_locks)
                    new_stack = stack
                    for key in keys:
                        for held in new_stack:
                            if held != key:
                                edges.setdefault(
                                    (held, key), (stmt.lineno, stmt)
                                )
                        new_stack = new_stack + (key,)
                    scan(stmt.body, new_stack, class_locks)
                elif isinstance(stmt, ast.ClassDef):
                    locks = class_lock_attrs(stmt, module.imports)
                    scan(stmt.body, (), locks)
                elif isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    scan(stmt.body, (), class_locks)
                else:
                    for field_name in ("body", "orelse", "finalbody"):
                        inner = getattr(stmt, field_name, None)
                        if inner:
                            scan(inner, stack, class_locks)
                    for handler in getattr(stmt, "handlers", []):
                        scan(handler.body, stack, class_locks)

        scan(module.tree.body, (), frozenset())

        reported: set[frozenset[str]] = set()
        for (a, b), (line, node) in sorted(
            edges.items(), key=lambda kv: kv[1][0]
        ):
            reverse = edges.get((b, a))
            if reverse is None:
                continue
            pair = frozenset((a, b))
            if pair in reported:
                continue
            reported.add(pair)
            # Anchor at the later of the two conflicting sites.
            later_line, later_node = max(
                (line, node), reverse, key=lambda lv: lv[0]
            )
            first_line = min(line, reverse[0])
            yield self.finding(
                module,
                later_node,
                f"lock-order inversion: '{a}' and '{b}' are acquired in "
                f"opposite orders (other order at line {first_line}); "
                "two threads taking different paths deadlock — pick one "
                "global acquisition order",
            )


#: Attribute-call names that block for unbounded time.
_BLOCKING_ATTRS = frozenset({"map", "submit", "result", "shutdown", "join"})

#: Receiver-name fragments that mark a cross-process handle (Manager
#: proxies, shared stores): any RPC on them stalls the lock holder on IPC.
_RPC_RECEIVERS = ("shared", "store", "remote", "manager", "proxy")


def _receiver_name(node: ast.expr) -> Optional[str]:
    """The last identifier of the call receiver (``a.b.c`` → ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_solver_call(attr: str) -> bool:
    return (
        attr == "solve"
        or attr.startswith(("solve_", "_solve"))
        or attr.endswith("_solve")
        or attr in ("measure", "measure_batch", "prefetch_configs")
    )


class BlockingCallUnderLockRule(Rule):
    """Flag blocking work performed while a lock is held.

    ``pool.map``/``.submit``/``.result``/``.shutdown``/``.join``, solver
    entry points (``solve*``, ``measure``/``measure_batch``/
    ``prefetch_configs``), and RPC on cross-process handles (receivers
    named ``*shared*``/``*store*``/``*remote*``/``*manager*``/``*proxy*``)
    inside a ``with <lock>:`` block hold the lock across unbounded work:
    every other thread needing the lock stalls behind one solve, and if
    the blocked-on worker itself needs the lock, the fleet deadlocks.
    Snapshot state under the lock, then do the blocking work outside it.
    """

    id = "RPL104"
    name = "blocking-call-under-lock"
    severity = Severity.ERROR

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        module_locks = module_lock_names(module.tree, module.imports)

        def scan(
            stmts: list[ast.stmt],
            held: tuple[str, ...],
            class_locks: frozenset[str],
        ) -> Iterator[Finding]:
            for stmt in stmts:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    keys = _with_locks(stmt, class_locks, module_locks)
                    if held:
                        # The with-items' own expressions run while the
                        # outer lock is already held.
                        for item in stmt.items:
                            yield from self._check_expr(
                                module, item.context_expr, held
                            )
                    yield from scan(stmt.body, held + tuple(keys), class_locks)
                elif isinstance(stmt, ast.ClassDef):
                    locks = class_lock_attrs(stmt, module.imports)
                    yield from scan(stmt.body, (), locks)
                elif isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield from scan(stmt.body, (), class_locks)
                elif isinstance(stmt, (ast.If, ast.While)):
                    if held:
                        yield from self._check_expr(module, stmt.test, held)
                    yield from scan(stmt.body, held, class_locks)
                    yield from scan(stmt.orelse, held, class_locks)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    if held:
                        yield from self._check_expr(module, stmt.iter, held)
                    yield from scan(stmt.body, held, class_locks)
                    yield from scan(stmt.orelse, held, class_locks)
                elif isinstance(stmt, ast.Try):
                    yield from scan(stmt.body, held, class_locks)
                    for handler in stmt.handlers:
                        yield from scan(handler.body, held, class_locks)
                    yield from scan(stmt.orelse, held, class_locks)
                    yield from scan(stmt.finalbody, held, class_locks)
                elif held:
                    # Simple statement: all of its expressions execute
                    # under the held locks.
                    yield from self._check_expr(module, stmt, held)

        yield from scan(module.tree.body, (), frozenset())

    def _check_expr(
        self, module: ParsedModule, root: ast.AST, held: tuple[str, ...]
    ) -> Iterator[Finding]:
        # Manual stack walk so lambda bodies (deferred execution) are
        # skipped — ``ast.walk`` cannot prune subtrees.
        stack: list[ast.AST] = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            reason = self._blocking_reason(node)
            if reason is not None:
                yield self.finding(
                    module,
                    node,
                    f"{reason} while holding {', '.join(held)}; the "
                    "lock is held across unbounded work — snapshot "
                    "state under the lock and block outside it",
                )

    @staticmethod
    def _blocking_reason(call: ast.Call) -> Optional[str]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        if attr in _BLOCKING_ATTRS:
            if attr == "join" and isinstance(func.value, ast.Constant):
                return None  # "sep".join(...) — string join, not thread join
            return f"blocking '.{attr}()'"
        if _is_solver_call(attr):
            return f"solver call '.{attr}()'"
        receiver = _receiver_name(func.value)
        if receiver is not None and any(
            fragment in receiver.lower() for fragment in _RPC_RECEIVERS
        ):
            return f"cross-process RPC '.{attr}()' on '{receiver}'"
        return None
