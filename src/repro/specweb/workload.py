"""Operation mix and request generation.

SPECWeb99's workload is dominated by static GETs, with a quarter of the
operations fetching dynamically generated content and a small share of
POSTs (the "on-line registration" traffic).  Each generated request carries
its ground-truth expectation so the client can validate the response.
"""

import enum
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate

from repro.specweb.fileset import CLASS_WEIGHTS, WITHIN_CLASS_WEIGHTS
from repro.webservers.http import HttpRequest

__all__ = ["OperationKind", "PlannedOperation", "WorkloadGenerator"]


class OperationKind(enum.Enum):
    """The three SPECWeb99 operation families."""

    STATIC_GET = "static_get"
    DYNAMIC_GET = "dynamic_get"
    POST = "post"


# Operation mix (SPECWeb99: 70% static, 25.1% dynamic GET variants, 4.9%
# POST — we fold the dynamic variants together).
OPERATION_MIX = (
    (OperationKind.STATIC_GET, 0.70),
    (OperationKind.DYNAMIC_GET, 0.25),
    (OperationKind.POST, 0.05),
)

POST_BODY_BYTES = 320
DYNAMIC_WRAPPER_BYTES = 128


@dataclass
class PlannedOperation:
    """A request plus what a correct response must look like."""

    request: HttpRequest
    kind: OperationKind
    expected_size: int
    expected_content_id: int  # 0 when content is not checkable (dynamic)


class WorkloadGenerator:
    """Draws operations according to the SPECWeb99 mix.

    Deterministic per (seed, connection): each connection owns a substream
    so the sequence of operations it issues never depends on other
    connections' progress.

    Every weighted pick draws exactly what ``rng.choices(population,
    weights=w)[0]`` would: one ``random()`` call, bisected into the
    cumulative weights with the same float total.  The cumulative weights
    are computed once here instead of on every draw.
    """

    def __init__(self, fileset, rng):
        self.fileset = fileset
        self.rng = rng
        self._kinds = [kind for kind, _weight in OPERATION_MIX]
        self._kind_cum = _cumulative(w for _kind, w in OPERATION_MIX)
        self._class_cum = _cumulative(CLASS_WEIGHTS)
        self._file_cum = _cumulative(WITHIN_CLASS_WEIGHTS)

    def for_connection(self, connection_id):
        """A generator bound to one connection's random substream."""
        return WorkloadGenerator(
            self.fileset, self.rng.substream("connection", connection_id)
        )

    # ------------------------------------------------------------------
    # Drawing
    # ------------------------------------------------------------------
    def _pick(self, cumulative):
        """Index of one weighted draw (``random.choices`` with ``k=1``)."""
        cum, total, hi = cumulative
        return bisect(cum, self.rng.random() * total, 0, hi)

    def _draw_file(self):
        class_index = self._pick(self._class_cum)
        file_index = self._pick(self._file_cum)
        dir_index = self.rng.randint(0, self.fileset.directories - 1)
        return self.fileset.url_path(dir_index, class_index, file_index)

    def next_operation(self, connection_id=0, request_id=0):
        """Generate the next :class:`PlannedOperation`."""
        kind = self._kinds[self._pick(self._kind_cum)]
        if kind == OperationKind.POST:
            request = HttpRequest(
                "POST",
                self.fileset.post_target,
                body_size=POST_BODY_BYTES,
                connection_id=connection_id,
                request_id=request_id,
            )
            return PlannedOperation(
                request=request, kind=kind,
                expected_size=-1, expected_content_id=0,
            )
        path = self._draw_file()
        entry = self.fileset.entry(path)
        dynamic = kind == OperationKind.DYNAMIC_GET
        request = HttpRequest(
            "GET",
            path,
            query="gen=1" if dynamic else "",
            dynamic=dynamic,
            connection_id=connection_id,
            request_id=request_id,
        )
        if dynamic:
            expected = entry.size + DYNAMIC_WRAPPER_BYTES
            return PlannedOperation(
                request=request, kind=kind,
                expected_size=expected, expected_content_id=0,
            )
        return PlannedOperation(
            request=request, kind=kind,
            expected_size=entry.size,
            expected_content_id=entry.content_id,
        )


def _cumulative(weights):
    """``(cumulative weights, float total, last index)`` for :meth:`_pick`."""
    cum = list(accumulate(weights))
    return cum, cum[-1] + 0.0, len(cum) - 1
