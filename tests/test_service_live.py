"""A live-process smoke test of the query service.

A real ``python -m repro.service`` server process answers a mixed client
workload twice.  Every answer must checksum-match a direct engine
evaluation with the same deterministic seed, the second pass must be at
least 90% cache hits, the engine must evaluate no more queries than the
workload has distinct ones, and the server must exit cleanly on SIGTERM.

Run it alone with ``PYTHONPATH=src python -m pytest -q -m live``.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.datasets import load_dataset
from repro.engine import EstimatorConfig, ReliabilityEngine, results_checksum
from repro.experiments.workloads import service_workload
from repro.service import ServiceClient
from repro.service.catalog import DEFAULT_SERVICE_SEED

pytestmark = pytest.mark.live

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture()
def server_port():
    """The port of a live server process; its exit status is checked after the test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0",
         "--graphs", "karate", "--backend", "sampling",
         "--samples", "400", "--max-batch", "32"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    ) as process:
        try:
            banner = process.stdout.readline().strip()
            match = re.search(r":(\d+) ", banner + " ")
            assert match, f"no port in the server banner {banner!r}"
            yield int(match.group(1))
        finally:
            process.send_signal(signal.SIGTERM)
            output = process.stdout.read()
            exit_status = process.wait(timeout=10)
    assert exit_status == 0, f"server exited with {exit_status}:\n{output}"


def test_two_pass_client_workload_against_a_live_server(server_port):
    graph = load_dataset("karate")
    config = EstimatorConfig(backend="sampling", samples=400, rng=DEFAULT_SERVICE_SEED)
    queries, stream = service_workload(graph, "karate", distinct=12, length=60, seed=2019)
    engine = ReliabilityEngine(config).prepare(graph)
    expected = [results_checksum([engine.query(query, seed_index=0)]) for query in queries]

    with ServiceClient("127.0.0.1", server_port) as client:
        for _ in range(50):
            try:
                client.healthz()
                break
            except OSError:
                time.sleep(0.1)

        def run_pass():
            hits = mismatches = 0
            for index in stream:
                response = client.query("karate", queries[index])
                hits += response.cached
                mismatches += response.checksum != expected[index]
            return hits / len(stream), mismatches

        first_rate, first_bad = run_pass()
        second_rate, second_bad = run_pass()
        stats = client.stats()
    assert first_bad == second_bad == 0, "checksum parity broken"
    assert second_rate >= 0.90, f"second pass hit rate {second_rate} (first {first_rate})"
    assert stats["cache"]["hit_rate"] > 0
    assert stats["service"]["engine_evaluations"] <= len(queries)
