"""Call graph over the indexed program.

Edges are resolved by a deliberately small local type inference:
parameter annotations, ``self`` -> the owning class, ``x = ClassName(...)``
constructor bindings, factory/return annotations, and ``self.attr``
types collected by the module index.  Two extra edge kinds matter for
this codebase: constructor edges (``Site(...)`` reaches ``Site.__init__``)
and *reference* edges — a bare function name passed as an argument, the
``pool.submit(_execute_batch, batch)`` idiom, reaches the referenced
function even though no call syntax appears.

Unresolvable calls produce no edge; whole-program rules treat missing
edges as "can't prove reachable", which keeps PUR001 quiet on external
libraries while staying complete over ``src/repro``'s own plumbing.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass

from repro.analysis.flow.modindex import FunctionInfo, ProgramIndex, all_args, dotted_name

#: Rounds of local assignment propagation (`a = Foo(); b = a; c = b`).
_ENV_ROUNDS = 3


@dataclass(frozen=True)
class CallGraph:
    """Function-qname -> callee-qnames, deterministic (sorted) everywhere."""

    edges: dict[str, tuple[str, ...]]

    def reachable_from(self, entries: list[str]) -> dict[str, str | None]:
        """BFS closure; maps each reachable qname to its BFS parent
        (entries map to ``None``), so rules can print a witness chain."""
        parents: dict[str, str | None] = {}
        queue: deque[str] = deque()
        for entry in sorted(entries):
            if entry in self.edges and entry not in parents:
                parents[entry] = None
                queue.append(entry)
        while queue:
            cur = queue.popleft()
            for callee in self.edges.get(cur, ()):
                if callee not in parents:
                    parents[callee] = cur
                    queue.append(callee)
        return parents

    def witness_chain(self, parents: dict[str, str | None], qname: str) -> list[str]:
        """Entry -> ... -> qname along BFS parents."""
        chain = [qname]
        cur: str | None = qname
        while cur is not None:
            cur = parents.get(cur)
            if cur is not None:
                chain.append(cur)
        chain.reverse()
        return chain


def build_callgraph(index: ProgramIndex) -> CallGraph:
    edges: dict[str, tuple[str, ...]] = {}
    for qname in sorted(index.functions):
        edges[qname] = tuple(sorted(_edges_for(index.functions[qname], index)))
    return CallGraph(edges=edges)


def _edges_for(fi: FunctionInfo, index: ProgramIndex) -> set[str]:
    env = _local_env(fi, index)
    out: set[str] = set()
    call_func_ids: set[int] = set()
    inner_ids: set[int] = set()  # sub-chains of a longer Attribute chain
    calls: list[ast.Call] = []
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Call):
            calls.append(node)
            call_func_ids.add(id(node.func))
        if isinstance(node, ast.Attribute):
            inner_ids.add(id(node.value))
    for call in calls:
        target = _resolve_call(fi, env, call.func, index)
        if target is None:
            continue
        out.update(_as_function_edges(target, index))
    # reference edges: a function (or class) named in non-call position —
    # only maximal chains, so `Cls.method()` does not read as a `Cls` ref
    for node in ast.walk(fi.node):
        if id(node) in call_func_ids or id(node) in inner_ids:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            dotted = dotted_name(node)
            if dotted is None:
                continue
            resolved = _resolve_dotted_here(fi, dotted, index)
            if resolved is None and isinstance(node, ast.Attribute):
                # a bound method taken as a value (`hook = obj.method`)
                # is reached through whatever later calls the value
                recv = _expr_class(fi, env, node.value, index)
                if recv is not None:
                    resolved = index.lookup_method(recv, node.attr)
            if resolved is not None:
                out.update(_as_function_edges(resolved, index))
    out.discard(fi.qname)
    return out


def _as_function_edges(qname: str, index: ProgramIndex) -> set[str]:
    """Normalize a resolved target to function nodes: a class contributes
    its ``__init__`` (constructor edge) when one is indexed."""
    if qname in index.functions:
        return {qname}
    if qname in index.classes:
        init = index.lookup_method(qname, "__init__")
        return {init} if init is not None else set()
    return set()


def _resolve_dotted_here(fi: FunctionInfo, dotted: str, index: ProgramIndex) -> str | None:
    head, _, rest = dotted.partition(".")
    if not rest:
        return index.resolve_in_module(fi.ctx, head)
    imported = fi.ctx.imports.get(head)
    if imported is None:
        return None
    return index.resolve_dotted(f"{imported}.{rest}")


def _resolve_call(
    fi: FunctionInfo, env: dict[str, str], func: ast.expr, index: ProgramIndex
) -> str | None:
    """Resolve a call's target to an indexed function/class qname."""
    if isinstance(func, ast.Name):
        return index.resolve_in_module(fi.ctx, func.id)
    if isinstance(func, ast.Attribute):
        # imported dotted chain: repro.x.f(...) / alias.f(...)
        dotted = fi.ctx.qualified_name(func)
        if dotted is not None:
            resolved = index.resolve_dotted(dotted)
            if resolved is not None:
                return resolved
        # method on a typed receiver: site.compute.create_server(...)
        recv = _expr_class(fi, env, func.value, index)
        if recv is not None:
            return index.lookup_method(recv, func.attr)
    return None


def _expr_class(
    fi: FunctionInfo, env: dict[str, str], expr: ast.expr, index: ProgramIndex
) -> str | None:
    """The indexed class of an expression's value, when provable."""
    if isinstance(expr, ast.Name):
        return env.get(expr.id)
    if isinstance(expr, ast.Attribute):
        owner = _expr_class(fi, env, expr.value, index)
        if owner is None:
            return None
        return index.attr_class(owner, expr.attr)
    if isinstance(expr, ast.Call):
        target = _resolve_call(fi, env, expr.func, index)
        if target is None:
            return None
        if target in index.classes:
            return target
        return index.return_class(target)
    if isinstance(expr, ast.IfExp):
        return _expr_class(fi, env, expr.body, index) or _expr_class(
            fi, env, expr.orelse, index
        )
    return None


def _local_env(fi: FunctionInfo, index: ProgramIndex) -> dict[str, str]:
    """name -> class qname for this function's locals and parameters."""
    env: dict[str, str] = {}
    for arg in all_args(fi.node):
        cls = index.annotation_class(fi.ctx, arg.annotation)
        if cls is not None:
            env[arg.arg] = cls
    if fi.cls is not None:
        args = fi.node.args
        positional = [*args.posonlyargs, *args.args]
        if positional and positional[0].arg in ("self", "cls"):
            env.setdefault(positional[0].arg, fi.cls)
    assigns: list[tuple[str, ast.expr]] = []
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            t = node.targets[0]
            if isinstance(t, ast.Name):
                assigns.append((t.id, node.value))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            cls = index.annotation_class(fi.ctx, node.annotation)
            if cls is not None:
                env[node.target.id] = cls
    for _ in range(_ENV_ROUNDS):
        changed = False
        for name, value in assigns:
            if name in env:
                continue
            cls = _expr_class(fi, env, value, index)
            if cls is not None:
                env[name] = cls
                changed = True
        if not changed:
            break
    return env
