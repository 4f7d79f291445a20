"""Declarative operator specs compiled into the G-SWFIT scanner.

The programmable-faultload DSL (DESIGN.md §16): a JSON spec describes a
mutation operator as *pattern* (AST node types to anchor on) +
*preconditions* (a composable predicate vocabulary over the
:class:`~repro.gswfit.astutils.FunctionImage` index) + *mutation rule*
(an AST edit template), and :func:`~repro.gswfit.dsl.compile.compile_spec`
turns it into a first-class scanner operator.  Eight of the Table 1
built-ins are themselves specs (:mod:`repro.gswfit.dsl.builtin_specs`).
A user spec either replaces a built-in operator (``"replaces": true``
— same fault type, same fault ids) or defines a brand-new fault type
that rides every downstream pipeline: faultloads, sampling, sharding,
caching, reports.

:func:`install_spec_operators` is the one entry point the harness
uses — the CLI, the campaign parent, and every worker process call it
with the canonical spec dicts carried by
``ExperimentConfig.operator_specs``; installation is idempotent by
spec digest, so re-installs across processes and resumes are free.
"""

from repro.faults.types import register_fault_type
from repro.gswfit.dsl.compile import DslOperator, compile_spec
from repro.gswfit.dsl.schema import SpecValidationError, validate_spec
from repro.gswfit.dsl.spec import OperatorSpec
from repro.gswfit.operators import operator_library, register_operator

__all__ = [
    "DslOperator",
    "OperatorSpec",
    "SpecValidationError",
    "compile_spec",
    "install_spec_operators",
    "validate_spec",
]


def install_spec_operators(specs):
    """Compile and register operators for ``specs``; returns them.

    ``specs`` is an iterable of spec dicts (raw or canonical) or
    :class:`OperatorSpec` instances.  ``"replaces": true`` specs
    replace their built-in operator in the library; new fault types
    are registered with the fault-type registry first, then overlaid
    on the library.  Installing a spec whose digest is already live is
    a no-op — the in-tree built-in specs always are — so the campaign
    parent, pool workers, and fabric workers can all install the same
    config unconditionally.
    """
    installed = []
    library = operator_library()
    for entry in specs or ():
        spec = (
            entry if isinstance(entry, OperatorSpec)
            else OperatorSpec.from_dict(entry)
        )
        operator = compile_spec(spec)
        current = library.get(operator.fault_type)
        if (
            isinstance(current, DslOperator)
            and current.spec.digest == spec.digest
        ):
            installed.append(current)
            continue
        if not spec.replaces:
            register_fault_type(spec.fault_type_name, **spec.metadata())
        register_operator(operator, replace=spec.replaces)
        library[operator.fault_type] = operator
        installed.append(operator)
    return installed
