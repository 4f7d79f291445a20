"""The mutation-rule vocabulary of the operator-spec DSL.

A rule is the edit half of an operator: given an anchor node that passed
every precondition, :meth:`MutationRule.enumerate` returns the sites the
rule derives from it — ``(payload, context)`` pairs, where ``payload``
becomes the :class:`~repro.gswfit.operators.base.Site` payload (part of
the stable site key) and ``context`` feeds extra placeholders into the
spec's description template — and :meth:`MutationRule.apply` performs
the edit on a fresh copy of the tree.  Rules that derive exactly one
site per anchor return one empty-payload pair, matching the built-in
operators' site keys.

Rules address sub-nodes through dotted *field paths* (``"test"``,
``"value"``); :func:`resolve_field` walks them.  Rules that inject new
code (``replace-field``, ``wrap-condition``, ``insert-before``) carry a
``source`` parameter holding Python source text, parsed at apply time —
the validator has already syntax-checked it, so a parse failure here is
impossible for a validated spec.
"""

import ast

from repro.gswfit.dsl.predicates import Param
from repro.gswfit.operators.base import replace_statement

__all__ = [
    "MUTATIONS",
    "MutationRule",
    "build_mutation",
    "perturb_constant",
    "resolve_field",
]

_BOOL_OP_NAMES = {ast.And: "and", ast.Or: "or"}

_ARITH_SWAP = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Add,
    ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv,
}

_ARITH_SYMBOLS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.FloorDiv: "//",
    ast.Mod: "%",
}


def resolve_field(node, path):
    """Walk a dotted attribute path from ``node``; None when absent."""
    target = node
    for part in path.split("."):
        target = getattr(target, part, None)
        if target is None:
            return None
    return target


def perturb_constant(value):
    """The replacement WVAV writes for ``value`` (deterministic)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2.0 + 1.0
    if isinstance(value, str):
        if len(value) > 1:
            return value[:-1]
        return value + "x"
    raise TypeError(f"not a perturbable constant: {value!r}")


def _perturbable(value):
    return isinstance(value, (bool, int, float, str))


#: The single empty-payload site most rules derive per anchor.
_ONE_SITE = (("", {}),)


class MutationRule:
    """Base class: site enumeration plus the tree edit for one kind."""

    #: Extra description-template placeholders this rule provides.
    context_keys = frozenset()

    def __init__(self, params):
        self.params = params

    def enumerate(self, image, node):
        """The ``(payload, context)`` pairs this rule derives.

        Rules return sequences (tuples/lists), not generators, to keep
        the scan's per-passing-node cost flat.
        """
        return _ONE_SITE

    def apply(self, tree, node, payload):
        """Perform the edit on ``node`` inside the fresh ``tree`` copy."""
        raise NotImplementedError


class _DeleteNode(MutationRule):
    """Remove the anchor statement (NOP-ing the instruction range)."""

    def apply(self, tree, node, payload):
        replace_statement(tree, node, [])


class _ReplaceWithBody(MutationRule):
    """Replace the anchor with its own body (drop a guard, keep code)."""

    def enumerate(self, image, node):
        return _ONE_SITE if getattr(node, "body", None) else ()

    def apply(self, tree, node, payload):
        replace_statement(tree, node, node.body)


class _PerturbConstant(MutationRule):
    """Rewrite the constant at ``field`` with its deterministic wrong value."""

    context_keys = frozenset({"old", "new"})

    def enumerate(self, image, node):
        constant = resolve_field(node, self.params["field"])
        if not isinstance(constant, ast.Constant):
            return ()
        if not _perturbable(constant.value):
            return ()
        return (("", {
            "old": repr(constant.value),
            "new": repr(perturb_constant(constant.value)),
        }),)

    def apply(self, tree, node, payload):
        constant = resolve_field(node, self.params["field"])
        constant.value = perturb_constant(constant.value)


class _RemoveBoolOperand(MutationRule):
    """Delete one operand of the boolean chain at ``field``; one site each."""

    context_keys = frozenset({"clause", "position"})

    def enumerate(self, image, node):
        chain = resolve_field(node, self.params["field"])
        if not isinstance(chain, ast.BoolOp):
            return ()
        return [
            (str(position), {
                "clause": ast.unparse(operand),
                "position": str(position),
            })
            for position, operand in enumerate(chain.values)
        ]

    def apply(self, tree, node, payload):
        chain = resolve_field(node, self.params["field"])
        position = int(payload)
        del chain.values[position]
        if len(chain.values) == 1:
            collapsed = chain.values[0]
            parent, _, attr = self.params["field"].rpartition(".")
            owner = resolve_field(node, parent) if parent else node
            setattr(owner, attr, collapsed)


class _SwapBoolOperator(MutationRule):
    """Flip ``and`` ↔ ``or`` in the boolean chain at ``field``."""

    context_keys = frozenset({"old_op", "new_op"})

    def enumerate(self, image, node):
        chain = resolve_field(node, self.params["field"])
        if not isinstance(chain, ast.BoolOp):
            return ()
        old = _BOOL_OP_NAMES[type(chain.op)]
        new = "or" if old == "and" else "and"
        return (("", {"old_op": old, "new_op": new}),)

    def apply(self, tree, node, payload):
        chain = resolve_field(node, self.params["field"])
        chain.op = ast.Or() if isinstance(chain.op, ast.And) else ast.And()


class _SwapBinopOperator(MutationRule):
    """Swap the arithmetic operator of the binary expression at ``field``."""

    context_keys = frozenset({"old_op", "new_op"})

    def enumerate(self, image, node):
        binop = resolve_field(node, self.params["field"])
        if not isinstance(binop, ast.BinOp):
            return ()
        replacement = _ARITH_SWAP.get(type(binop.op))
        if replacement is None:
            return ()
        return (("", {
            "old_op": _ARITH_SYMBOLS[type(binop.op)],
            "new_op": _ARITH_SYMBOLS[replacement],
        }),)

    def apply(self, tree, node, payload):
        binop = resolve_field(node, self.params["field"])
        binop.op = _ARITH_SWAP[type(binop.op)]()


class _ReplaceField(MutationRule):
    """Replace the sub-node at ``field`` with the parsed ``source`` expression."""

    context_keys = frozenset({"source"})

    def enumerate(self, image, node):
        if resolve_field(node, self.params["field"]) is None:
            return ()
        return (("", {"source": self.params["source"]}),)

    def apply(self, tree, node, payload):
        replacement = ast.parse(
            self.params["source"], mode="eval"
        ).body
        parent, _, attr = self.params["field"].rpartition(".")
        owner = resolve_field(node, parent) if parent else node
        setattr(owner, attr, replacement)


class _WrapCondition(MutationRule):
    """Wrap the anchor statement in ``if <source>:`` (an added guard)."""

    context_keys = frozenset({"source"})

    def enumerate(self, image, node):
        if not isinstance(node, ast.stmt):
            return ()
        return (("", {"source": self.params["source"]}),)

    def apply(self, tree, node, payload):
        guard = ast.If(
            test=ast.parse(self.params["source"], mode="eval").body,
            body=[node],
            orelse=[],
        )
        replace_statement(tree, node, [guard])


class _InsertBefore(MutationRule):
    """Insert the parsed ``source`` statements before the anchor."""

    context_keys = frozenset({"source"})

    def enumerate(self, image, node):
        if not isinstance(node, ast.stmt):
            return ()
        return (("", {"source": self.params["source"]}),)

    def apply(self, tree, node, payload):
        inserted = ast.parse(self.params["source"]).body
        replace_statement(tree, node, inserted + [node])


#: kind → (rule class, params schema, source-parse mode or None).
#: ``source`` params are syntax-checked by the validator in the given
#: parse mode ("eval" for expressions, "exec" for statement suites).
MUTATIONS = {
    "delete-node": (_DeleteNode, {}, None),
    "replace-with-body": (_ReplaceWithBody, {}, None),
    "perturb-constant": (_PerturbConstant, {
        "field": Param("string", default="value"),
    }, None),
    "remove-bool-operand": (_RemoveBoolOperand, {
        "field": Param("string", default="test"),
    }, None),
    "swap-bool-operator": (_SwapBoolOperator, {
        "field": Param("string", default="test"),
    }, None),
    "swap-binop-operator": (_SwapBinopOperator, {
        "field": Param("string", default="value"),
    }, None),
    "replace-field": (_ReplaceField, {
        "field": Param("string", required=True),
        "source": Param("string", required=True),
    }, "eval"),
    "wrap-condition": (_WrapCondition, {
        "source": Param("string", required=True),
    }, "eval"),
    "insert-before": (_InsertBefore, {
        "source": Param("string", required=True),
    }, "exec"),
}


def build_mutation(kind, params):
    """Instantiate the mutation rule ``kind`` with validated ``params``."""
    cls, schema, _mode = MUTATIONS[kind]
    resolved = {
        name: params.get(name, spec.default)
        for name, spec in schema.items()
    }
    return cls(resolved)
