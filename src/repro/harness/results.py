"""Result records for benchmark campaigns."""

from dataclasses import dataclass, field, fields

from repro.specweb.metrics import SpecWebMetrics

__all__ = [
    "ACCOUNTING_FIELDS",
    "DIGEST_FIELDS",
    "BenchmarkResult",
    "InjectionIteration",
    "SlotAccounting",
    "average_iterations",
    "merge",
]


def _sum_seconds(values):
    # One rounding rule wherever seconds are totalled: a shard, a serial
    # iteration and a merged campaign iteration all round the same way.
    return round(sum(values), 6)


def _sum_keywise(values):
    totals = {}
    for stats in values:
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value
    # Sorted, so key order never depends on whether a record came from a
    # live run or a journal replay (JSON round-trips sort keys).
    return dict(sorted(totals.items()))


def _concat(values):
    # Records in slot order, each key-sorted for the same byte-level
    # reason as ``_sum_keywise``.
    return [
        dict(sorted(record.items()))
        for records in values
        for record in records
    ]


def _accounting(reduce, *, digest=True, **default):
    return field(**default, metadata={"reduce": reduce, "digest": digest})


@dataclass(kw_only=True)
class SlotAccounting:
    """The per-slot facts a slot walk, a shard and an iteration all carry.

    Declared once; each field names its reduction (how records fold in
    slot order, see :func:`merge`) and whether :func:`metrics_digest`
    covers it.  The table in DESIGN.md §10 lists them.
    """

    # Paper Table 5: administrator interventions and injected faults.
    mis: int = _accounting(sum, default=0)
    kns: int = _accounting(sum, default=0)
    kcp: int = _accounting(sum, default=0)
    faults_injected: int = _accounting(sum, default=0)
    runtime_stats: dict = _accounting(_sum_keywise, default_factory=dict)
    # Per-incident ADMf detail from the watchdog: {"kind", "t"} with
    # kind MIS|KNS|KCP|RESTART_EXHAUSTED, ordered by slot then sim time.
    incidents: list = _accounting(_concat, default_factory=list)
    # Integrity protocol (DESIGN.md §10): per-slot contamination records
    # ({"slot", "fault_id", "kinds", "violations", "rebooted"}), the
    # verified-reboot log ({"after_slot", "verified"}), and whether
    # auditing ran at all (False = RES is unknowable, not zero).
    contaminated_slots: list = _accounting(_concat, default_factory=list)
    reboots: list = _accounting(_concat, default_factory=list)
    integrity_enabled: bool = _accounting(any, default=False)
    # Activation telemetry (DESIGN.md §11): per-slot probe records
    # ({"slot", "fault_id", "hits", "first_hit", "truncated"}, with
    # first_hit in sim-seconds from slot start, None if never hit), the
    # activated/truncated totals, and whether tracking ran at all
    # (False = ACT% is unknowable, not zero).
    activations: list = _accounting(_concat, default_factory=list)
    faults_activated: int = _accounting(sum, default=0)
    slots_truncated: int = _accounting(sum, default=0)
    truncated_seconds: float = _accounting(_sum_seconds, default=0.0)
    activation_enabled: bool = _accounting(any, default=False)
    # Epoch-setup accounting (DESIGN.md §12): epochs booted vs restored
    # from a snapshot, and per-slot pristine restarts.  Diagnostic:
    # restored and booted epochs are digest-identical by construction,
    # so none of these may ever enter the metrics digest.
    epochs_booted: int = _accounting(sum, digest=False, default=0)
    epochs_restored: int = _accounting(sum, digest=False, default=0)
    pristine_restarts: int = _accounting(sum, digest=False, default=0)
    snapshot_enabled: bool = _accounting(any, digest=False, default=False)


ACCOUNTING_FIELDS = fields(SlotAccounting)
DIGEST_FIELDS = tuple(
    spec.name for spec in ACCOUNTING_FIELDS if spec.metadata["digest"]
)


def merge(records):
    """Fold accounting records, given in slot order, into field values.

    Returns a ``{field: value}`` dict, ready to construct any
    :class:`SlotAccounting` subclass.  Its lists, dicts and records are
    fresh copies, so the result never aliases an input's.
    """
    records = list(records)
    return {
        spec.name: spec.metadata["reduce"](
            [getattr(record, spec.name) for record in records]
        )
        for spec in ACCOUNTING_FIELDS
    }


@dataclass
class InjectionIteration(SlotAccounting):
    """One full pass over the faultload (one of the paper's iterations)."""

    iteration: int
    metrics: SpecWebMetrics

    @property
    def admf(self):
        return self.mis + self.kns + self.kcp

    @property
    def residual_errors(self):
        """Slots measured on a state-damaged machine (None = not audited)."""
        if not self.integrity_enabled:
            return None
        return len(self.contaminated_slots)

    @property
    def activation_rate(self):
        """Fraction of injected faults whose code ran (None = untracked)."""
        if not self.activation_enabled or not self.faults_injected:
            return None
        return self.faults_activated / self.faults_injected

    def as_row(self):
        """The paper's Table 5 row shape (plus the RES audit column)."""
        rate = self.activation_rate
        return {
            "SPC": self.metrics.spc,
            "THR": self.metrics.thr,
            "RTM": self.metrics.rtm_ms,
            "ER%": self.metrics.er_percent,
            "MIS": self.mis,
            "KCP": self.kcp,
            "KNS": self.kns,
            "RES": self.residual_errors,
            "ACT%": None if rate is None else rate * 100.0,
        }


@dataclass
class BenchmarkResult:
    """Everything measured for one server/OS pair."""

    server_name: str
    os_codename: str
    os_display: str
    baseline: SpecWebMetrics | None = None
    profile_mode: SpecWebMetrics | None = None
    iterations: list = field(default_factory=list)
    # Supervised execution: True when at least one shard was quarantined
    # (its slots are missing from the merged metrics); the quarantine
    # list records each poisoned shard with its iteration and fault ids.
    degraded: bool = False
    quarantine: list = field(default_factory=list)
    # Sequential-sampling accounting (DESIGN.md §14): the campaign's
    # ``sequential`` block — stopping schedule, per-stratum stopping
    # points, interval trajectories, slots skipped.  Diagnostic, and
    # deliberately excluded from the metrics digest: the decisions are
    # reflected in which slots ran, not hashed themselves.
    sequential: dict = field(default_factory=dict)

    def average_row(self):
        return average_iterations(self.iterations)

    def add_iteration(self, iteration_result):
        self.iterations.append(iteration_result)

    def __repr__(self):
        return (
            f"BenchmarkResult({self.server_name} on {self.os_display}, "
            f"iterations={len(self.iterations)})"
        )


def average_iterations(iterations):
    """Average the Table 5 row values over iterations (paper's last row).

    ``RES`` and ``ACT%`` are None for unaudited/untracked iterations;
    each averages over the iterations that report it and stays None when
    there are none.
    """
    if not iterations:
        return {}
    keys = ["SPC", "THR", "RTM", "ER%", "MIS", "KCP", "KNS"]
    totals = {key: 0.0 for key in keys}
    optional = {"RES": [0.0, 0], "ACT%": [0.0, 0]}
    for iteration in iterations:
        row = iteration.as_row()
        for key in keys:
            totals[key] += row[key]
        for key, bucket in optional.items():
            if row.get(key) is not None:
                bucket[0] += row[key]
                bucket[1] += 1
    count = len(iterations)
    averaged = {key: value / count for key, value in totals.items()}
    for key, (total, seen) in optional.items():
        averaged[key] = total / seen if seen else None
    return averaged
