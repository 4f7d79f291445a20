"""Compilation of validated operator specs into scanner operators.

:func:`compile_spec` turns an :class:`~repro.gswfit.dsl.spec.OperatorSpec`
into a :class:`DslOperator` — a real
:class:`~repro.gswfit.operators.base.MutationOperator` that plugs into
both scan drivers (the per-operator ``find_sites`` reference pass and
the single-pass ``collect_sites`` visitor registry) unchanged.  The
compiled operator resolves the pattern's node-type names to the AST
classes, instantiates the predicate and mutation-rule vocabulary
entries, and renders the description template per site from a context
computed off the anchor node.

Fidelity contract: the eight built-in specs must produce the *same
sites* (keys, payloads, descriptions, line numbers) and the *same
mutants* as the class implementations they replaced — the golden
corpus test pins both, and the ``dsl-gate`` CI job holds whole
campaigns to the same ``metrics_digest``.
"""

import ast
import string

from repro.faults.types import DynamicFaultType, FaultType
from repro.gswfit.dsl.mutations import build_mutation
from repro.gswfit.dsl.predicates import build_predicate
from repro.gswfit.dsl.spec import OperatorSpec
from repro.gswfit.operators.base import MutationOperator, Site

__all__ = ["DslOperator", "compile_spec"]


def _call_of(node):
    """The Call node anchored at ``node`` (directly or Expr-wrapped)."""
    if isinstance(node, ast.Call):
        return node
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        return node.value
    return None


def _extract_test(node):
    test = getattr(node, "test", None)
    return ast.unparse(test) if isinstance(test, ast.AST) else None


def _extract_body_count(node):
    body = getattr(node, "body", None)
    return len(body) if isinstance(body, list) else None


def _extract_name(node):
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    return None


def _extract_target(node):
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return ast.unparse(node.targets[0])
    return None


def _extract_value(node):
    if isinstance(node, ast.Assign) and isinstance(
        node.value, ast.Constant
    ):
        return repr(node.value.value)
    return None


def _extract_call(node):
    call = _call_of(node)
    return ast.unparse(call) if call is not None else None


def _extract_func(node):
    call = _call_of(node)
    return ast.unparse(call.func) if call is not None else None


#: Base template placeholders → the per-node value extractor.  Each
#: returns None on a node whose shape lacks the key — a template naming
#: it then fails at scan time with a pointed error (the validator has
#: already confirmed the key is *known*, but cannot know every shape
#: the preconditions admit).
_EXTRACTORS = {
    "test": _extract_test,
    "body_count": _extract_body_count,
    "name": _extract_name,
    "target": _extract_target,
    "value": _extract_value,
    "call": _extract_call,
    "func": _extract_func,
}


class DslOperator(MutationOperator):
    """A mutation operator compiled from a declarative spec.

    Every instance shares this class; behaviour lives in the spec, so
    cache fingerprints use :meth:`fingerprint_payload` (the canonical
    spec JSON) rather than class source.
    """

    def __init__(self, spec):
        self.spec = spec
        name = spec.fault_type_name
        if spec.replaces:
            self.fault_type = FaultType(name)
        else:
            self.fault_type = DynamicFaultType(name)
        self.node_types = tuple(
            getattr(ast, type_name)
            for type_name in spec.pattern["node_types"]
        )
        self._predicates = tuple(
            build_predicate(entry["kind"], entry)
            for entry in spec.preconditions
        )
        self._rule = build_mutation(spec.mutation["kind"], spec.mutation)
        self._template = spec.mutation.get("description", "")
        # Compile the template into (literal, field, extractor) parts:
        # the per-site render is then one join over direct extractions,
        # no context dict and no format machinery.  Rule-provided keys
        # (extractor None) read the per-site context instead.
        rule_keys = self._rule.context_keys
        self._parts = tuple(
            (literal, field,
             None if field is None or field in rule_keys
             else _EXTRACTORS[field])
            for literal, field, _spec, _conv in string.Formatter().parse(
                self._template
            )
        )

    def begin_scan(self, image):
        """Fuse the predicates into one per-function checker closure.

        Preconditions prepare once per function, then fuse into a single
        short-circuit ``and`` chain — one closure call per candidate
        node instead of a loop over (predicate, state) pairs.  The scan
        visits every candidate node of both builds, and eight of the
        twelve built-ins run through here, so the per-node cost is the
        part worth specializing.
        """
        pairs = [
            (predicate.check, predicate.prepare(image))
            for predicate in self._predicates
        ]
        if len(pairs) == 1:
            (c0, s0), = pairs
            return lambda image, node: c0(image, node, s0)
        if len(pairs) == 2:
            (c0, s0), (c1, s1) = pairs
            return lambda image, node: (
                c0(image, node, s0) and c1(image, node, s1)
            )
        if len(pairs) == 3:
            (c0, s0), (c1, s1), (c2, s2) = pairs
            return lambda image, node: (
                c0(image, node, s0) and c1(image, node, s1)
                and c2(image, node, s2)
            )
        return lambda image, node: all(
            check(image, node, state) for check, state in pairs
        )

    def visit_node(self, image, node, accepts):
        """Short-circuit the preconditions, then enumerate the rule."""
        if not accepts(image, node):
            return ()
        pairs = self._rule.enumerate(image, node)
        if not pairs:
            return ()
        # Site construction is the per-match hot path: hoist everything
        # the payload loop does not vary — node index, line number — and
        # render through the precompiled template parts.
        node_index = image.index_of(node)
        lineno = image.absolute_lineno(node)
        parts = self._parts
        sites = []
        for payload, extra in pairs:
            pieces = []
            for literal, field, extractor in parts:
                if literal:
                    pieces.append(literal)
                if field is None:
                    continue
                if extractor is None:
                    value = extra[field]
                else:
                    value = extractor(node)
                    if value is None:
                        self._missing_placeholder(field, node)
                pieces.append(
                    value if type(value) is str else str(value)
                )
            sites.append(Site(
                node_index=node_index,
                payload=payload,
                description="".join(pieces),
                lineno=lineno,
            ))
        return sites

    def _missing_placeholder(self, field, node):
        raise ValueError(
            f"operator spec {self.fault_type.value!r}: description "
            f"placeholder {{{field}}} is undefined for the "
            f"{type(node).__name__} node at this site — tighten the "
            "preconditions so only nodes providing it match"
        )

    def apply(self, tree, node_list, site):
        """Delegate the edit to the spec's mutation rule."""
        self._rule.apply(tree, node_list[site.node_index], site.payload)

    def fingerprint_payload(self):
        """Canonical spec JSON: the behaviour-complete cache-key input."""
        return self.spec.canonical_json()


def compile_spec(spec):
    """Compile ``spec`` (an :class:`OperatorSpec` or raw dict) to an operator."""
    if not isinstance(spec, OperatorSpec):
        spec = OperatorSpec.from_dict(spec)
    return DslOperator(spec)
