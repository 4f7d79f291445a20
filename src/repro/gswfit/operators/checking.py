"""Checking-class operator: WLEC."""

import ast

from repro.faults.types import FaultType
from repro.gswfit.operators.base import MutationOperator, Site

__all__ = ["WrongLogicalExpression"]


_SWAP = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
}


class WrongLogicalExpression(MutationOperator):
    """WLEC: boundary error in a branch condition.

    Search pattern: an ordering comparison (``<``, ``<=``, ``>``, ``>=``)
    inside an ``if`` test.  Mutation: the classic off-by-one boundary swap
    (``<`` ↔ ``<=``, ``>`` ↔ ``>=``).  Equality tests are excluded: at
    machine level they compile to a different pattern family and the field
    data attributes them to other fault types.
    """

    fault_type = FaultType.WLEC
    node_types = (ast.If,)

    def begin_scan(self, image):
        # Comparisons already claimed by an earlier ``if`` test, so a
        # construct shared between tests yields exactly one site.
        return set()

    def visit_node(self, image, if_node, seen):
        sites = []
        for node in ast.walk(if_node.test):
            if not isinstance(node, ast.Compare):
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if len(node.ops) != 1:
                continue
            if type(node.ops[0]) not in _SWAP:
                continue
            old_text = ast.unparse(node)
            sites.append(Site(
                node_index=image.index_of(node),
                description=f"boundary swap in '{old_text}'",
                lineno=image.absolute_lineno(if_node),
            ))
        return sites

    def apply(self, tree, node_list, site):
        node = node_list[site.node_index]
        node.ops[0] = _SWAP[type(node.ops[0])]()
