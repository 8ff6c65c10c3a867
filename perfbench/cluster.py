"""The system under test: a snapshot plus ``python -m repro.cluster``.

:func:`build_snapshot` prepares a :class:`~repro.service.catalog.GraphCatalog`
with the workload's config and writes it to a fresh directory;
:class:`Cluster` launches the production entry point on it as its own
process group (router plus two supervised replicas, ``--route-by query``,
shared sqlite store on), parses the router's banner, and tears the whole
group down afterwards.  :func:`refuse_leftovers` stops a run from starting
while a router or replica of an earlier run still holds a core.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.engine.config import EstimatorConfig
from repro.service.catalog import DatasetSource, GraphCatalog

from perfbench.workloads import GRAPH, Workload

_BANNER = re.compile(r"^routing on http://([^:]+):(\d+) ")
_ENTRY_POINTS = ("repro.cluster", "repro.service")
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0


def workload_config(workload: Workload) -> EstimatorConfig:
    return EstimatorConfig(
        backend=workload.backend,
        samples=workload.samples,
        max_width=workload.max_width,
    )


def build_snapshot(workload: Workload, directory: str) -> None:
    """Register and prepare the workload's graph, then save the snapshot."""
    catalog = GraphCatalog(workload_config(workload))
    catalog.register(GRAPH, DatasetSource(GRAPH))
    catalog.engine(GRAPH)
    catalog.save_snapshot(directory)


def refuse_leftovers() -> None:
    """Raise when a ``repro.cluster`` or ``repro.service`` process is alive."""
    leftovers = []
    for pid in _pids():
        argv = _cmdline(pid)
        if pid != os.getpid() and "-m" in argv and any(entry in argv for entry in _ENTRY_POINTS):
            leftovers.append(f"{pid}: {' '.join(argv)}")
    if leftovers:
        raise RuntimeError(
            "a router or replica from an earlier run is still alive and would "
            "take a core; stop it first:\n  " + "\n  ".join(leftovers)
        )


class Cluster:
    """One ``python -m repro.cluster`` process group on a snapshot."""

    def __init__(self, snapshot_dir: str, *, src_dir: str) -> None:
        command = [
            sys.executable, "-m", "repro.cluster",
            "--snapshot-dir", snapshot_dir,
            "--port", "0",
            "--replicas", "2",
            "--route-by", "query",
            # Every workload measures update_p50_ms.  The flag only lets
            # the replicas accept POST /update; reads take the same path.
            "--allow-updates",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + [part for part in env.get("PYTHONPATH", "").split(os.pathsep) if part]
        )
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        self.log: List[str] = []
        self.host, self.port = self._await_banner()

    def _await_banner(self):
        found: Dict[str, tuple] = {}
        ready = threading.Event()

        def _drain() -> None:
            assert self.process.stdout is not None
            for line in self.process.stdout:
                self.log.append(line.rstrip())
                match = _BANNER.match(line)
                if match and not found:
                    found["address"] = (match.group(1), int(match.group(2)))
                    ready.set()
            ready.set()

        self._drain = threading.Thread(target=_drain, daemon=True)
        self._drain.start()
        ready.wait(BOOT_TIMEOUT)
        if "address" not in found:
            self.stop()
            raise RuntimeError(
                "cluster did not print its banner:\n" + "\n".join(self.log[-20:])
            )
        return found["address"]

    def group_pids(self) -> List[int]:
        """Every live process of the cluster's process group."""
        return [pid for pid in _pids() if _pgid(pid) == self.process.pid]

    def peak_rss_mb(self) -> float:
        """Peak resident memory (VmHWM) summed over router and replicas, MiB."""
        total_kb = 0
        for pid in self.group_pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM the router (it stops its replicas), then sweep the group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for signum in (signal.SIGTERM, signal.SIGKILL):
            deadline = time.monotonic() + 5.0
            while self.group_pids() and time.monotonic() < deadline:
                try:
                    os.killpg(self.process.pid, signum)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
        if self.group_pids():
            raise RuntimeError(f"cluster process group {self.process.pid} did not exit")
        self._drain.join(5.0)


def _pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def _cmdline(pid: int) -> List[str]:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return [part.decode("utf-8", "replace") for part in handle.read().split(b"\0") if part]
    except OSError:
        return []


def _pgid(pid: int) -> Optional[int]:
    """The process group of a live (not zombie) process, else ``None``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return None if fields[0] in ("Z", "X") else int(fields[2])
