"""Algorithm-class operator: MLPC."""

import ast

from repro.faults.types import FaultType
from repro.gswfit.astutils import is_infra_call
from repro.gswfit.operators.base import (
    MutationOperator,
    Site,
    remove_statements,
)

__all__ = ["MissingLocalPartOfAlgorithm"]

MLPC_MAX_REMOVED = 3


_SIMPLE_STATEMENTS = (ast.Assign, ast.AugAssign, ast.Expr)


def _is_simple(stmt):
    if isinstance(stmt, ast.Expr):
        return isinstance(stmt.value, ast.Call)
    return isinstance(stmt, _SIMPLE_STATEMENTS)


def _is_meaningful(stmt):
    """A run member that makes the run worth removing (non-infra)."""
    if isinstance(stmt, ast.Expr):
        return not is_infra_call(stmt.value)
    return True


class MissingLocalPartOfAlgorithm(MutationOperator):
    """MLPC: remove a small, localized sequence of the algorithm.

    Search pattern: a maximal run of two or more consecutive simple
    statements (assignments and call statements) in one block, past the
    initialization prefix for the top-level body.  One site per run; the
    mutation removes the first ``min(len, 3)`` statements, emulating a
    programmer who skipped a short step of the algorithm.
    """

    fault_type = FaultType.MLPC
    scans_blocks = True

    def begin_scan(self, image):
        return image.init_block_length()

    def visit_block(self, image, block, prefix):
        start = prefix if block is image.fdef.body else 0
        sites = []
        run = []
        for stmt in block[start:] + [None]:
            if stmt is not None and _is_simple(stmt):
                run.append(stmt)
                continue
            if len(run) >= 2 and any(_is_meaningful(s) for s in run):
                count = min(len(run), MLPC_MAX_REMOVED)
                sites.append(Site(
                    node_index=image.index_of(run[0]),
                    payload=str(count),
                    description=(
                        f"remove {count} consecutive statement(s) "
                        f"starting with '{ast.unparse(run[0])}'"
                    ),
                    lineno=image.absolute_lineno(run[0]),
                ))
            run = []
        return sites

    def apply(self, tree, node_list, site):
        count = int(site.payload)
        remove_statements(tree, node_list[site.node_index], count)
