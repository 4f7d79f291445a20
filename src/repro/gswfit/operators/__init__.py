"""Mutation operator library.

One operator per fault type of the paper's Table 1.  Each operator is a
search pattern (:meth:`~repro.gswfit.operators.base.MutationOperator.find_sites`)
plus a mutation rule
(:meth:`~repro.gswfit.operators.base.MutationOperator.mutate`) with the
preconditions that keep the emulation representative (e.g. MIFS never
removes an ``if`` whose body returns, MVI only removes initializations of
variables that are used later).

Eight of the twelve (MVI, MVAV, MVAE, MIA, MLAC, MFC, MIFS, WVAV) are
declarative specs compiled by the operator DSL
(:mod:`repro.gswfit.dsl.builtin_specs`, DESIGN.md §16); the other four
(MLPC, WLEC, WAEP, WPFV) are the classes in this package.  The library
is assembled on first use, in Table 1 order, because the DSL compiler
itself builds on :mod:`repro.gswfit.operators.base`.

The library is extensible at runtime: :func:`register_operator` overlays
dynamic operators — compiled from user specs — on top of the built-ins,
either *replacing* a built-in (same fault type, same fault ids) or
*adding* a new dynamic fault type.  :func:`registry_generation` is a
counter the cache layer folds into its memo keys so fingerprints never
go stale across registrations.
"""

import functools

from repro.faults.types import FaultType, lookup_fault_type
from repro.gswfit.operators.base import (
    MutationOperator,
    Site,
    collect_sites,
)
from repro.gswfit.operators.checking import WrongLogicalExpression
from repro.gswfit.operators.algorithm import MissingLocalPartOfAlgorithm
from repro.gswfit.operators.interface import (
    WrongArithmeticExpressionInParameter,
    WrongVariableInParameter,
)

__all__ = [
    "MutationOperator",
    "Site",
    "collect_sites",
    "operator_for",
    "operator_library",
    "operator_provenance",
    "register_operator",
    "registry_generation",
    "reset_dynamic_operators",
    "unregister_operator",
]

_CLASS_OPERATORS = {
    FaultType.MLPC: MissingLocalPartOfAlgorithm,
    FaultType.WLEC: WrongLogicalExpression,
    FaultType.WAEP: WrongArithmeticExpressionInParameter,
    FaultType.WPFV: WrongVariableInParameter,
}


@functools.cache
def _builtin_library():
    """The twelve Table 1 operators, keyed by fault type, in Table 1 order.

    Location order (and with it sampling and every digest) follows this
    order.  Assembled lazily: the DSL compiler imports this package.
    """
    from repro.gswfit.dsl.builtin_specs import BUILTIN_SPECS
    from repro.gswfit.dsl.compile import compile_spec

    return {
        fault_type: (
            compile_spec(BUILTIN_SPECS[fault_type.value])
            if fault_type.value in BUILTIN_SPECS
            else _CLASS_OPERATORS[fault_type]()
        )
        for fault_type in FaultType
    }


#: Dynamic overlay: operators compiled from user specs, keyed by fault
#: type.  A key that is also a Table 1 type replaces that built-in; any
#: other key is a new dynamic fault type (appended after the Table 1
#: twelve in library order).
_DYNAMIC = {}

#: Bumped on every overlay change; cache memo keys include it.
_generation = 0


def registry_generation():
    """Monotonic counter that changes whenever the overlay changes."""
    return _generation


def operator_library():
    """The full operator library, keyed by fault type.

    Table 1 order first (built-ins, with any user replacement applied
    in place), then dynamic fault types in registration order.
    """
    library = dict(_builtin_library())
    library.update(_DYNAMIC)
    return library


def operator_for(fault_type):
    """The operator implementing ``fault_type`` (accepts the enum or name)."""
    if isinstance(fault_type, str):
        fault_type = lookup_fault_type(fault_type)
    if fault_type in _DYNAMIC:
        return _DYNAMIC[fault_type]
    return _builtin_library()[fault_type]


def operator_provenance(fault_type):
    """``"builtin"``, or ``"dsl"`` for an operator from a user spec."""
    try:
        fault_type = operator_for(fault_type).fault_type
    except (KeyError, ValueError):
        return "unknown"
    return "dsl" if fault_type in _DYNAMIC else "builtin"


def register_operator(operator, replace=False):
    """Overlay ``operator`` onto the library under its fault type.

    ``replace=True`` is required to shadow a built-in Table 1 operator
    (the deliberate act of a ``"replaces": true`` spec); without it a
    built-in collision raises ``ValueError``.  Registering a dynamic
    fault type again simply updates the overlay.  Every change bumps
    :func:`registry_generation`, invalidating fingerprint memos.
    """
    global _generation
    fault_type = operator.fault_type
    if fault_type in _builtin_library() and not replace:
        raise ValueError(
            f"operator for {fault_type.value} would shadow the built-in "
            "Table 1 operator; pass replace=True (spec: \"replaces\": "
            "true) to re-express it"
        )
    _DYNAMIC[fault_type] = operator
    _generation += 1
    return operator


def unregister_operator(fault_type):
    """Remove one dynamic overlay entry (no-op if absent)."""
    global _generation
    if isinstance(fault_type, str):
        fault_type = lookup_fault_type(fault_type)
    if _DYNAMIC.pop(fault_type, None) is not None:
        _generation += 1


def reset_dynamic_operators():
    """Drop the whole dynamic overlay (test isolation)."""
    global _generation
    if _DYNAMIC:
        _DYNAMIC.clear()
        _generation += 1
