"""Static rules for simulation-API misuse (``SIM105``–``SIM106``).

The kernel only accepts :class:`~repro.sim.core.Event` objects at a
``yield`` (anything else raises ``SimulationError`` at run time), and a
process that blocks on a second resource while holding a simulated mutex
is one half of a classic deadlock.  Both mistakes are visible in the AST
long before a simulation is run.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Tuple

from ..findings import Finding
from . import Rule, register

__all__ = ["BareYieldRule", "BlockWhileLockedRule"]

#: Method names whose call results are events a sim process may yield.
_EVENT_FACTORIES = {"timeout", "sleep", "event", "all_of", "get",
                    "request", "wait", "join"}


def _function_body_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own body, without descending into nested defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class BareYieldRule(Rule):
    """SIM105: a sim-process generator yields a bare (non-event) value."""

    id = "SIM105"
    name = "bare-yield"
    summary = ("generator mixes event yields with bare constant yields — "
               "the kernel only accepts Event objects, so a literal yield "
               "raises SimulationError at run time")

    def check(self, tree: ast.AST, filename: str) -> Iterable[Finding]:
        """Flag constant yields in functions that also yield sim events."""
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            constant_yields: List[ast.Yield] = []
            has_event_yield = False
            for node in _function_body_nodes(func):
                if isinstance(node, ast.YieldFrom):
                    has_event_yield = True
                elif isinstance(node, ast.Yield):
                    value = node.value
                    if isinstance(value, ast.Constant) and \
                            value.value is not None:
                        constant_yields.append(node)
                    elif isinstance(value, ast.Call) and \
                            isinstance(value.func, ast.Attribute) and \
                            value.func.attr in _EVENT_FACTORIES:
                        has_event_yield = True
            if has_event_yield:
                for node in constant_yields:
                    yield self.finding(
                        filename, node,
                        f"{func.name}() yields a bare constant alongside "
                        f"simulation events; the kernel only resumes on "
                        f"Event objects (wrap delays in sim.timeout())")


@register
class BlockWhileLockedRule(Rule):
    """SIM106: blocking on a second resource while holding a sim mutex."""

    id = "SIM106"
    name = "block-while-locked"
    summary = ("process blocks on another resource between mutex acquire() "
               "and release() — holds the lock across a wait, inviting "
               "deadlock and serializing the simulation")

    def check(self, tree: ast.AST, filename: str) -> Iterable[Finding]:
        """Flag acquire/request yields that occur while a lock is held."""
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            ops = sorted(self._lock_ops(func),
                         key=lambda op: (op[2].lineno, op[2].col_offset))
            held: List[str] = []
            for kind, receiver, node in ops:
                if kind == "acquire":
                    if held and receiver not in held:
                        yield self._blocked(filename, node, func.name,
                                            receiver, held[-1])
                    held.append(receiver)
                elif kind == "release":
                    if receiver in held:
                        held.remove(receiver)
                elif kind == "block" and held:
                    yield self._blocked(filename, node, func.name,
                                        receiver, held[-1])

    def _blocked(self, filename: str, node: ast.AST, func_name: str,
                 receiver: str, lock: str) -> Finding:
        """Finding for one blocking operation performed under ``lock``."""
        return self.finding(
            filename, node,
            f"{func_name}() blocks on {receiver} while still holding "
            f"{lock}; release the mutex before waiting on another "
            f"resource")

    @staticmethod
    def _lock_ops(func: ast.AST) -> Iterator[Tuple[str, str, ast.AST]]:
        """Yield ``(kind, receiver, node)`` lock/block operations in a
        function body: ``acquire`` for ``yield from x.acquire()``,
        ``release`` for ``x.release()``, ``block`` for yielded
        ``.request()`` events."""
        for node in _function_body_nodes(func):
            if isinstance(node, ast.YieldFrom) and \
                    isinstance(node.value, ast.Call) and \
                    isinstance(node.value.func, ast.Attribute):
                attr = node.value.func.attr
                recv = ast.unparse(node.value.func.value)
                if attr == "acquire":
                    yield "acquire", recv, node
            elif isinstance(node, ast.Yield) and \
                    isinstance(node.value, ast.Call) and \
                    isinstance(node.value.func, ast.Attribute):
                attr = node.value.func.attr
                recv = ast.unparse(node.value.func.value)
                if attr == "request":
                    yield "block", recv, node
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "release":
                yield "release", ast.unparse(node.func.value), node
