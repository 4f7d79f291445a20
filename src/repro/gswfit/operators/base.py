"""Operator framework: sites, search patterns, tree surgery helpers.

Operators are written against a **visitor protocol**: each declares the
AST node classes its search pattern anchors on (:attr:`node_types`), or
that it scans statement blocks (:attr:`scans_blocks`), and implements
:meth:`visit_node` / :meth:`visit_block` plus an optional per-function
:meth:`begin_scan` that precomputes shared state.  Two drivers consume
the protocol:

* :meth:`MutationOperator.find_sites` — the per-operator reference pass:
  one full tree traversal dispatching to this operator only.  This is
  the historical 12-pass scan shape; the equivalence tests and the
  hot-path bench use it as the baseline.
* :func:`collect_sites` — the single-pass driver: one indexed walk per
  function (already paid for at :class:`FunctionImage` construction),
  dispatching every node to all interested operators at once.  The
  per-operator site order is identical to :meth:`find_sites` by
  construction, because both deliver candidates in walk order to the
  same visit methods.
"""

import ast
import inspect
from dataclasses import dataclass

from repro.gswfit.astutils import STATEMENT_BLOCK_FIELDS

__all__ = [
    "MutationOperator",
    "Site",
    "collect_sites",
    "replace_statement",
    "remove_statements",
]


@dataclass(frozen=True)
class Site:
    """One place where an operator can emulate its fault type.

    ``node_index`` addresses the anchor node in the deterministic walk of
    the function's AST; ``payload`` carries operator-specific detail (an
    operand position, a statement count, a replacement name).  Together
    they form the stable ``site_key``.
    """

    node_index: int
    payload: str = ""
    description: str = ""
    lineno: int = 0

    @property
    def key(self):
        if self.payload:
            return f"{self.node_index}#{self.payload}"
        return str(self.node_index)

    @classmethod
    def parse_key(cls, key):
        """Split a site key back into (node_index, payload)."""
        if "#" in key:
            index_text, payload = key.split("#", 1)
        else:
            index_text, payload = key, ""
        return int(index_text), payload


class MutationOperator:
    """Base class: a search pattern plus a mutation rule.

    Subclasses set :attr:`fault_type`, declare what the search pattern
    anchors on (:attr:`node_types` and/or :attr:`scans_blocks`), and
    implement :meth:`visit_node` / :meth:`visit_block` (emit sites for
    one candidate, in deterministic order) and :meth:`apply` (mutate a
    *fresh copy* of the tree in place, given the re-indexed node list).
    """

    fault_type = None
    #: Concrete AST classes whose instances :meth:`visit_node` receives.
    #: Exact classes, not bases — dispatch is by ``type(node)`` (AST
    #: trees produced by :func:`ast.parse` never contain subclasses).
    node_types = ()
    #: When True, :meth:`visit_block` receives every statement list of
    #: the function (bodies, else/finally arms) in walk order.
    scans_blocks = False

    def begin_scan(self, image):
        """Per-function precomputation; its result is passed to visits."""
        return None

    def visit_node(self, image, node, state):
        """Sites anchored on ``node`` (an instance of :attr:`node_types`)."""
        return ()

    def visit_block(self, image, block, state):
        """Sites anchored on the statement list ``block``."""
        return ()

    def find_sites(self, image):
        """Scan ``image`` with this operator alone (reference pass).

        Performs one full tree traversal — the historical per-operator
        scan shape.  :func:`collect_sites` produces the same sites for
        the whole library in a single shared pass; use that on hot
        paths.
        """
        state = self.begin_scan(image)
        sites = []
        if self.node_types:
            for node in ast.walk(image.fdef):
                if isinstance(node, self.node_types):
                    sites.extend(self.visit_node(image, node, state))
        if self.scans_blocks:
            for _owner, _field, block in _iter_statement_lists(image.fdef):
                sites.extend(self.visit_block(image, block, state))
        return sites

    def apply(self, tree, node_list, site):
        """Mutate ``tree`` (already a fresh copy) at ``site``.

        ``node_list`` is the walk index of ``tree``; the anchor node is
        ``node_list[site.node_index]``.
        """
        raise NotImplementedError

    def mutate(self, image, site):
        """Return a mutated copy of the image's tree."""
        tree, node_list = image.fresh_copy()
        self.apply(tree, node_list, site)
        ast.fix_missing_locations(tree)
        return tree

    def fingerprint_payload(self):
        """Text that captures this operator's behaviour for cache keys.

        Class operators fingerprint their source code, so editing an
        operator invalidates scan and mutant caches.  Spec-compiled
        operators override this with the canonical spec JSON — many
        share one class, so class source alone would under-key them.
        The cache layer adds the source of the modules both kinds call
        (:data:`repro.gswfit.cache.OPERATOR_CODE_MODULES`).
        """
        return inspect.getsource(type(self))

    def __repr__(self):
        name = self.fault_type.value if self.fault_type else "?"
        return f"<{type(self).__name__} ({name})>"


def collect_sites(image, operators):
    """One shared pass over ``image`` for every operator at once.

    Returns ``{operator: [sites]}`` where each list is identical —
    contents and order — to what ``operator.find_sites(image)`` returns,
    at the cost of zero tree traversals: candidates come from the typed
    node buckets the image indexed at construction, and statement blocks
    from its cached block list.
    """
    buckets = {}
    dispatch = {}
    block_ops = []
    for operator in operators:
        state = operator.begin_scan(image)
        sites = buckets[operator] = []
        for node_type in operator.node_types:
            dispatch.setdefault(node_type, []).append(
                (operator, sites, state)
            )
        if operator.scans_blocks:
            block_ops.append((operator, sites, state))
    for node_type, interested in dispatch.items():
        if len(interested) == 1:
            operator, sites, state = interested[0]
            for node in image.nodes_of_type(node_type):
                sites.extend(operator.visit_node(image, node, state))
        else:
            for node in image.nodes_of_type(node_type):
                for operator, sites, state in interested:
                    sites.extend(operator.visit_node(image, node, state))
    if block_ops:
        for block in image.statement_blocks():
            for operator, sites, state in block_ops:
                sites.extend(operator.visit_block(image, block, state))
    return buckets


def _iter_statement_lists(tree):
    """Yield every statement list in ``tree`` (bodies, else/finally arms)."""
    for node in ast.walk(tree):
        for field in STATEMENT_BLOCK_FIELDS:
            block = getattr(node, field, None)
            if isinstance(block, list):
                yield node, field, block


def replace_statement(tree, target, replacement):
    """Replace statement ``target`` (by identity) with ``replacement`` list.

    An emptied block gets a ``pass`` so the function still compiles —
    the machine-code analogue is NOP-ing the instruction range.
    """
    for _owner, _field, block in _iter_statement_lists(tree):
        for position, stmt in enumerate(block):
            if stmt is target:
                block[position:position + 1] = list(replacement)
                if not block:
                    block.append(ast.Pass())
                return True
    raise ValueError("target statement not found in tree")


def remove_statements(tree, first, count):
    """Remove ``count`` consecutive statements starting at ``first``."""
    for _owner, _field, block in _iter_statement_lists(tree):
        for position, stmt in enumerate(block):
            if stmt is first:
                del block[position:position + count]
                if not block:
                    block.append(ast.Pass())
                return True
    raise ValueError("first statement not found in tree")
