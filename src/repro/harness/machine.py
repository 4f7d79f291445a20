"""The System Under Benchmark: one server machine, fully assembled.

A :class:`ServerMachine` is the paper's SUB: the simulated OS build booted
on a machine kernel, the fileset and the server's configuration/log files
materialized in the file system, the web server deployed under its
runtime, and the client-side transport wired up.  The benchmark target is
the web server; the fault injection target is the OS the machine booted.
"""

import gc

from repro.ossim.builds import get_build
from repro.ossim.context import SimKernel
from repro.ossim.dispatch import OsInstance
from repro.sim.kernel import Simulator
from repro.specweb.client import SpecWebClient
from repro.specweb.fileset import SpecWebFileset
from repro.webservers.registry import create_server
from repro.webservers.runtime import ServerRuntime

__all__ = ["ServerMachine", "reclaim_retired_machines"]

_CONFIG_FILE_BYTES = 1536
_MIME_FILE_BYTES = 840


def reclaim_retired_machines():
    """Free the machines nothing references any more; call it once the
    caller has dropped its last reference to a finished run.

    A machine is one large reference cycle (simulator, kernel, server
    runtime and client all point at each other), so reference counting
    never frees it and only a full collection does.  Left to the
    collector's own schedule, whose full passes are rare once the
    process holds large long-lived caches, several retired machines pile
    up before one runs, and the process's peak memory depends on where
    that pass happens to fall.  Reclaiming at each phase and shard
    boundary bounds the dead machines held to the ones a single run
    retired, at the cost of one full pass per run.
    """
    gc.collect()


class ServerMachine:
    """One deployed server/OS combination plus its client."""

    def __init__(self, config, iteration=0):
        self.config = config
        self.iteration = iteration
        self.sim = Simulator(seed=config.iteration_seed(iteration))
        self.kernel = SimKernel(time_source=self._now)
        self.build = get_build(config.os_codename)
        self.os_instance = OsInstance(self.build, self.kernel)
        self.fileset = SpecWebFileset(
            directories=config.fileset_directories
        )
        self.server = create_server(config.server_name)
        self.runtime = ServerRuntime(
            self.server,
            self.os_instance,
            self.sim,
            cpu_hz=config.cpu_hz,
            operation_budget=config.operation_budget_cycles,
        )
        self.client = SpecWebClient(
            self.sim,
            self.runtime.deliver,
            self.fileset,
            config=config.client,
            rng=self.sim.rng_for("client", iteration),
        )
        self._environment_ready = False

    def _now(self):
        return self.sim.now

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------
    def setup_environment(self):
        """Materialize the fileset, configs and log directories.

        Only the deployed server's files are created: dead config files
        for the other three servers would bloat every machine snapshot
        and integrity baseline with state nothing ever reads.  The mime
        map is materialized only for servers that load one — it must
        exist with its real size, or the server's open-always fallback
        would silently create an empty one and change behaviour.
        """
        if self._environment_ready:
            return
        vfs = self.kernel.vfs
        self.fileset.populate(vfs)
        vfs.mkdir("/etc", parents=True)
        vfs.mkdir("/logs", parents=True)
        vfs.mkdir("/postlog", parents=True)
        vfs.create_file(self.server.config_path, size=_CONFIG_FILE_BYTES)
        if self.server.uses_mime_map:
            vfs.create_file(
                f"/etc/{self.server.name}.mime", size=_MIME_FILE_BYTES
            )
        self._environment_ready = True

    def boot(self):
        """Set up the environment and start the server; returns success."""
        self.setup_environment()
        return self.runtime.start()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def run_for(self, seconds):
        """Advance the simulation by ``seconds``."""
        self.sim.run_until(self.sim.now + seconds)

    def attach_tracer(self, tracer):
        self.os_instance.attach_tracer(tracer)

    def attach_activation(self, tracker):
        self.os_instance.attach_activation(tracker)

    def set_injector_attached(self, attached):
        """Model the injector competing for machine CPU (Table 4)."""
        if attached:
            self.runtime.cpu_scale = 1.0 - self.config.injector_cpu_fraction
        else:
            self.runtime.cpu_scale = 1.0

    def __repr__(self):
        return (
            f"ServerMachine({self.config.server_name} on "
            f"{self.build.display_name}, iteration={self.iteration})"
        )
