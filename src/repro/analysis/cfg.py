"""Per-function control-flow graphs for the flow-sensitive pass.

``simcheck`` (:mod:`repro.analysis.protocol`) needs to know *which
statements can follow which* to prove lifecycle facts like "this request
is waited on every exit path" — information a pattern-matching walk over
the AST cannot provide.  :func:`build_cfg` lowers one function body into
basic blocks of straight-line statements connected by edges for
``if``/``while``/``for``/``try``, ``break``/``continue``, ``return`` and
``raise``.

The graph is deliberately modest — intraprocedural, no exception-edge
precision beyond "any statement in a ``try`` body may jump to any
handler" — because the abstract interpreter on top of it is conservative
anyway: unknown control flow degrades to "no finding", never to a false
alarm.

Two lowering choices matter to the client:

* A ``for`` statement the client recognizes as *summarizable* (simple
  straight-line body, e.g. the early-bird ``for i in range(lo, hi):
  pready(i)`` idiom) is kept **atomic**: the whole ``ast.For`` node lands
  in the current block and the client applies a loop-summary transfer
  function instead of a fixpoint over an expanded body.
* An expanded loop head carries a :class:`LoopBind` pseudo-statement so
  the interpreter can bind the iteration variable to its abstract range
  before entering the body.

Exceptional exits (``raise``) flow to a distinct :attr:`CFG.raise_exit`
block so that "leak on some exit path" checks can reason about normal
completion only.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Block", "CFG", "LoopBind", "build_cfg"]


@dataclass
class LoopBind:
    """Pseudo-statement at an expanded loop head binding the loop target.

    ``node`` is the original ``ast.For``; the interpreter binds
    ``node.target`` to the abstract value of one iteration of
    ``node.iter`` (a ``range`` interval when the bounds are known).
    """

    node: ast.For


@dataclass
class Block:
    """One basic block: straight-line atoms plus successor edges."""

    bid: int
    atoms: List[object] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    #: Loop-head blocks are where the fixpoint driver applies widening.
    is_loop_head: bool = False

    def edge_to(self, bid: int) -> None:
        """Add a successor edge to block ``bid`` (once)."""
        if bid not in self.succs:
            self.succs.append(bid)


@dataclass
class CFG:
    """A function's control-flow graph.

    ``exit`` collects every normal completion (fall-off-the-end and
    ``return``); ``raise_exit`` collects explicit ``raise`` statements.
    """

    func: ast.AST
    blocks: Dict[int, Block]
    entry: int
    exit: int
    raise_exit: int

    def predecessors(self) -> Dict[int, List[int]]:
        """Block id -> ids of the blocks with an edge into it."""
        preds: Dict[int, List[int]] = {bid: [] for bid in self.blocks}
        for bid, block in self.blocks.items():
            for succ in block.succs:
                preds[succ].append(bid)
        return preds


class _Builder:
    """Recursive statement-list lowering with break/continue context."""

    def __init__(self, atomic_for: Callable[[ast.For], bool]):
        self.blocks: Dict[int, Block] = {}
        self.atomic_for = atomic_for
        self.exit = self.new_block().bid
        self.raise_exit = self.new_block().bid
        #: (break-target, continue-target) stack for enclosing loops.
        self.loops: List[Tuple[int, int]] = []

    def new_block(self, loop_head: bool = False) -> Block:
        block = Block(bid=len(self.blocks), is_loop_head=loop_head)
        self.blocks[block.bid] = block
        return block

    def lower(self, body: List[ast.stmt], current: Block) -> Block:
        """Lower ``body`` starting in ``current``; return the open block."""
        for stmt in body:
            current = self.stmt(stmt, current)
        return current

    def stmt(self, stmt: ast.stmt, current: Block) -> Block:
        if isinstance(stmt, ast.If):
            return self._if(stmt, current)
        if isinstance(stmt, ast.While):
            return self._while(stmt, current)
        if isinstance(stmt, ast.For):
            if self.atomic_for(stmt):
                current.atoms.append(stmt)
                return current
            return self._for(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, current)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                current.atoms.append(ast.Expr(value=item.context_expr))
            return self.lower(stmt.body, current)
        if isinstance(stmt, ast.Return):
            current.atoms.append(stmt)
            current.edge_to(self.exit)
            return self.new_block()  # unreachable continuation
        if isinstance(stmt, ast.Raise):
            current.atoms.append(stmt)
            current.edge_to(self.raise_exit)
            return self.new_block()
        if isinstance(stmt, ast.Break):
            if self.loops:
                current.edge_to(self.loops[-1][0])
            return self.new_block()
        if isinstance(stmt, ast.Continue):
            if self.loops:
                current.edge_to(self.loops[-1][1])
            return self.new_block()
        if isinstance(stmt, getattr(ast, "Match", ())):
            return self._match(stmt, current)
        # Straight-line statement (assignments, expressions, nested defs,
        # asserts, imports, ...): one atom in the current block.
        current.atoms.append(stmt)
        return current

    def _if(self, stmt: ast.If, current: Block) -> Block:
        after = self.new_block()
        then = self.new_block()
        current.edge_to(then.bid)
        self.lower(stmt.body, then).edge_to(after.bid)
        if stmt.orelse:
            other = self.new_block()
            current.edge_to(other.bid)
            self.lower(stmt.orelse, other).edge_to(after.bid)
        else:
            current.edge_to(after.bid)
        return after

    def _while(self, stmt: ast.While, current: Block) -> Block:
        head = self.new_block(loop_head=True)
        after = self.new_block()
        current.edge_to(head.bid)
        head.atoms.append(ast.Expr(value=stmt.test))
        is_infinite = (isinstance(stmt.test, ast.Constant)
                       and bool(stmt.test.value))
        if not is_infinite:
            head.edge_to(after.bid)
        body = self.new_block()
        head.edge_to(body.bid)
        self.loops.append((after.bid, head.bid))
        self.lower(stmt.body, body).edge_to(head.bid)
        self.loops.pop()
        if stmt.orelse:
            # while/else: the else suite runs on normal loop exit; fold it
            # between head and after (break paths skip it — approximated
            # by the direct head→after edge above).
            other = self.new_block()
            head.edge_to(other.bid)
            self.lower(stmt.orelse, other).edge_to(after.bid)
        return after

    def _for(self, stmt: ast.For, current: Block) -> Block:
        head = self.new_block(loop_head=True)
        after = self.new_block()
        current.atoms.append(ast.Expr(value=stmt.iter))
        current.edge_to(head.bid)
        head.atoms.append(LoopBind(stmt))
        head.edge_to(after.bid)  # zero-iteration path
        body = self.new_block()
        head.edge_to(body.bid)
        self.loops.append((after.bid, head.bid))
        self.lower(stmt.body, body).edge_to(head.bid)
        self.loops.pop()
        if stmt.orelse:
            other = self.new_block()
            head.edge_to(other.bid)
            self.lower(stmt.orelse, other).edge_to(after.bid)
        return after

    def _try(self, stmt: ast.Try, current: Block) -> Block:
        after = self.new_block()
        body_entry = self.new_block()
        current.edge_to(body_entry.bid)
        before = set(self.blocks)
        body_end = self.lower(stmt.body, body_entry)
        # Blocks created while lowering the body (plus the entry) may
        # transfer to any handler: conservative exception edges.
        created = [bid for bid in self.blocks
                   if bid not in before] + [body_entry.bid]
        handler_ends: List[Block] = []
        for handler in stmt.handlers:
            hentry = self.new_block()
            for bid in created:
                self.blocks[bid].edge_to(hentry.bid)
            handler_ends.append(self.lower(handler.body, hentry))
        if stmt.orelse:
            oentry = self.new_block()
            body_end.edge_to(oentry.bid)
            body_end = self.lower(stmt.orelse, oentry)
        ends = [body_end] + handler_ends
        if stmt.finalbody:
            fentry = self.new_block()
            for end in ends:
                end.edge_to(fentry.bid)
            self.lower(stmt.finalbody, fentry).edge_to(after.bid)
        else:
            for end in ends:
                end.edge_to(after.bid)
        return after

    def _match(self, stmt, current: Block) -> Block:
        after = self.new_block()
        current.atoms.append(ast.Expr(value=stmt.subject))
        exhaustive = False
        for case in stmt.cases:
            centry = self.new_block()
            current.edge_to(centry.bid)
            self.lower(case.body, centry).edge_to(after.bid)
            if (isinstance(case.pattern, ast.MatchAs)
                    and case.pattern.pattern is None and case.guard is None):
                exhaustive = True
        if not exhaustive:
            current.edge_to(after.bid)
        return after


def build_cfg(func: ast.AST,
              atomic_for: Optional[Callable[[ast.For], bool]] = None) -> CFG:
    """Lower one ``FunctionDef``/``AsyncFunctionDef`` body into a CFG.

    ``atomic_for`` decides which ``for`` loops stay un-expanded (see the
    module docstring); the default expands every loop.
    """
    builder = _Builder(atomic_for or (lambda node: False))
    entry = builder.new_block()
    end = builder.lower(list(func.body), entry)
    end.edge_to(builder.exit)
    return CFG(func=func, blocks=builder.blocks, entry=entry.bid,
               exit=builder.exit, raise_exit=builder.raise_exit)
