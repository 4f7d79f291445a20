"""Kernel and per-process execution context.

:class:`SimKernel` is the machine-wide state (the file system, global
counters); :class:`ProcessContext` is what one simulated process sees —
its heap, handle table, critical sections, virtual memory and CPU meter.
Every mutable OS API function receives the calling process's context as its
first argument, so state damaged by a fault is confined to that process and
cleared by a process restart, exactly like user-mode ``ntdll`` state on NT.
"""

import itertools

from repro.ossim.heap import SimHeap
from repro.ossim.memory import VirtualMemoryManager
from repro.ossim.objects import HandleTable
from repro.ossim.sync import SyncRegistry
from repro.ossim.vfs import VirtualFileSystem
from repro.sim.cpu import CpuMeter

__all__ = ["SimKernel", "ProcessContext"]

_process_ids = itertools.count(100)


def _zero_time():
    """Default time source for kernels created outside a simulation."""
    return 0.0


class SimKernel:
    """Machine-wide kernel state shared by every process on one machine."""

    def __init__(self, vfs=None, time_source=None):
        self.vfs = vfs if vfs is not None else VirtualFileSystem()
        self.time_source = time_source if time_source is not None else _zero_time
        self.boot_count = 0
        self.processes_created = 0

    def new_process(self, cpu=None, name="process"):
        """Create a fresh process context on this kernel."""
        self.processes_created += 1
        return ProcessContext(self, cpu=cpu, name=name)


class ProcessContext:
    """Everything one simulated process owns.

    Parameters
    ----------
    kernel:
        The :class:`SimKernel` this process runs on.
    cpu:
        The :class:`~repro.sim.cpu.CpuMeter` charged by OS code running in
        this process.  A default meter is created when omitted (unit tests).
    """

    def __init__(self, kernel, cpu=None, name="process"):
        self.kernel = kernel
        self.name = name
        self.pid = next(_process_ids)
        self.cpu = cpu if cpu is not None else CpuMeter()
        # ``ctx.charge(cycles)``, the hook OS code charges CPU through, is
        # the meter's bound method: one call, rebound by pickle/deepcopy.
        self.charge = self.cpu.charge
        self.heap = SimHeap()
        self.handles = HandleTable()
        self.sync = SyncRegistry()
        self.vmem = VirtualMemoryManager()
        # The process image/arena region: mapped at startup like a native
        # image section; servers manage its protection via the API.
        self.arena = self.vmem.reserve(4 * 1024 * 1024, tag="image")
        self.current_thread = f"{self.pid}:main"
        self.last_error = 0
        self.api_calls = 0
        self.terminated = False
        # Scratch state owned by the OS API modules (e.g. the NT 5.1
        # lookaside counters).  Lives and dies with the process, like
        # any other user-mode OS state.
        self.os_state = {}
        # Heap footprint at the end of a successful startup, recorded by
        # the runtime that spawned us.  The integrity auditor's leak
        # baseline: at quiesce (no request in flight) a clean process is
        # back to exactly this footprint.
        self.startup_footprint = None

    # ------------------------------------------------------------------
    # Hooks used by the mutable OS API code
    # ------------------------------------------------------------------
    def set_thread(self, thread_id):
        """Set the identity used for lock ownership (worker dispatch glue)."""
        self.current_thread = thread_id

    @property
    def vfs(self):
        return self.kernel.vfs

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def record_startup_footprint(self):
        """Freeze the current heap footprint as the leak baseline."""
        self.startup_footprint = {
            "heap_blocks": self.heap.live_blocks(),
            "heap_bytes": self.heap.live_bytes,
        }

    def thread_died(self, thread_id):
        """Release kernel resources still held by a dead worker thread."""
        return self.sync.release_thread(thread_id)

    def terminate(self):
        """Tear the process down (close handles, drop locks)."""
        if self.terminated:
            return
        self.terminated = True
        self.handles.close_all()

    def health_report(self):
        """Summary used by watchdog diagnostics and tests."""
        return {
            "pid": self.pid,
            "heap": self.heap.stats(),
            "open_handles": len(self.handles),
            "leaked_sections": len(self.sync.leaked_sections()),
            "api_calls": self.api_calls,
            "terminated": self.terminated,
        }

    def __repr__(self):
        return f"ProcessContext(pid={self.pid}, name={self.name!r})"
