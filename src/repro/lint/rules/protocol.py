"""Protocol-schema rule: one declared registry, zero vocabulary drift.

The campaign dispatch protocol (``campaign/dispatch.py`` sender +
state machine, ``campaign/worker.py`` client) and the serve ingest
protocol (``serve/protocol.py``) speak in string ``op`` codes and
4-byte frame magics.  All of them are declared once, in
:mod:`repro.protocol_registry`; this *project* rule statically
cross-checks the three protocol sources against that declaration:

* every ``op`` literal — ``{"op": "lease", ...}`` construction, or a
  comparison against ``op`` / ``<expr>.get("op")`` — must be a
  registered op (typos get a "did you mean ...?"),
* every 4-byte bytes literal in a protocol file must be a registered
  magic (protocol files import their magic, they don't re-mint it),
* every registered op must be *used* by at least one protocol file —
  a handler removed while its message stays declared (or vice versa)
  is exactly the drift this rule exists to catch.

The registry is read by AST, never imported: the rule works on any
interpreter with no dependencies, including over fixture trees.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from . import make, rule

REGISTRY_PATH = "src/repro/protocol_registry.py"

#: The protocol sources this rule polices.
PROTOCOL_PATHS = (
    "src/repro/campaign/dispatch.py",
    "src/repro/campaign/worker.py",
    "src/repro/serve/protocol.py",
)


def _suggest_hint(name: str, options) -> str:
    from ..._suggest import suggest

    close = suggest(name, options)
    return f" — did you mean {', '.join(repr(c) for c in close)}?" if close else ""


def _load_registry(tree: ast.Module):
    """Extract op/magic declarations (with key line numbers) by AST."""
    ops: dict[str, int] = {}
    magics: set[str] = set()
    magic_consts: list[tuple[str, bytes, ast.AST]] = []
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id == "DISPATCH_OPS" and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    ops[key.value] = key.lineno
        elif target.id == "WIRE_MAGICS" and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    magics.add(key.value)
        elif target.id.endswith("MAGIC") and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, bytes):
                magic_consts.append((target.id, node.value.value, node))
    return ops, magics, magic_consts


def _is_op_expr(node: ast.expr) -> bool:
    """Is this expression "the op of a message"?

    Two spellings by convention: a variable named exactly ``op``, or
    ``<expr>.get("op")``.
    """
    if isinstance(node, ast.Name) and node.id == "op":
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "op"
    ):
        return True
    return False


def _op_literals(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """Every string literal used as an op value, with its node."""
    for node in ast.walk(tree):
        # {"op": "lease", ...} — message construction.
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "op"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    yield value.value, value
        # op == "grant" / message.get("op") != "welcome" — handling.
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if not any(_is_op_expr(side) for side in sides):
                continue
            for side, cmp_op in zip(sides[1:], node.ops):
                if isinstance(cmp_op, (ast.Eq, ast.NotEq)):
                    if isinstance(side, ast.Constant) and isinstance(
                        side.value, str
                    ):
                        yield side.value, side
                elif isinstance(cmp_op, (ast.In, ast.NotIn)):
                    # op in ("done", "wait")
                    if isinstance(side, (ast.Tuple, ast.List, ast.Set)):
                        for el in side.elts:
                            if isinstance(el, ast.Constant) and isinstance(
                                el.value, str
                            ):
                                yield el.value, el


def _bytes_literals(tree: ast.Module) -> Iterator[tuple[bytes, ast.AST]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, bytes):
            if len(node.value) == 4:
                yield node.value, node


@rule(
    "proto-op-unknown",
    family="protocol-schema",
    severity="error",
    summary="message op literal not declared in protocol_registry",
    project=True,
)
def check_protocol(project) -> Iterator[Finding]:
    """The whole cross-check lives here; it yields findings under all
    three ``proto-*`` ids (each can be selected on its own)."""
    registry_ctx = project.parse(REGISTRY_PATH)
    if registry_ctx is None:
        return  # tree without a registry (fixture roots): nothing to check
    ops, magics, magic_consts = _load_registry(registry_ctx.tree)

    for const_name, value, node in magic_consts:
        try:
            decoded = value.decode("ascii")
        except UnicodeDecodeError:
            decoded = ""
        if decoded not in magics:
            yield make(
                registry_ctx,
                "proto-magic",
                node,
                f"registry constant {const_name} = {value!r} is not a "
                "WIRE_MAGICS key — declare it there too",
            )

    used: set[str] = set()
    for rel in PROTOCOL_PATHS:
        ctx = project.parse(rel)
        if ctx is None:
            continue
        for op_value, node in _op_literals(ctx.tree):
            used.add(op_value)
            if op_value not in ops:
                yield make(
                    ctx,
                    "proto-op-unknown",
                    node,
                    f"op {op_value!r} is not declared in "
                    f"protocol_registry.DISPATCH_OPS"
                    + _suggest_hint(op_value, ops),
                )
        for value, node in _bytes_literals(ctx.tree):
            try:
                decoded = value.decode("ascii")
            except UnicodeDecodeError:
                decoded = ""
            if decoded not in magics:
                yield make(
                    ctx,
                    "proto-magic",
                    node,
                    f"4-byte literal {value!r} looks like an undeclared "
                    "frame magic — declare it in "
                    "protocol_registry.WIRE_MAGICS and import it",
                )

    for op_value, lineno in sorted(ops.items()):
        if op_value not in used:
            yield make(
                registry_ctx,
                "proto-op-unused",
                lineno,
                f"registered op {op_value!r} is used by no protocol "
                "file — drifted handler/message vocabulary (remove it "
                "or wire it back up)",
            )


# The two sibling ids yielded by check_protocol above.
@rule(
    "proto-magic",
    family="protocol-schema",
    severity="error",
    summary="4-byte frame-magic literal not declared in WIRE_MAGICS",
    project=True,
)
def _proto_magic_marker(project):
    return iter(())  # findings are produced by check_protocol


@rule(
    "proto-op-unused",
    family="protocol-schema",
    severity="warning",
    summary="registered op never used by any protocol file (drift)",
    project=True,
)
def _proto_unused_marker(project):
    return iter(())  # findings are produced by check_protocol
