"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import signal

import pytest

from repro.core.config import (
    ServerConfig,
    small_cloud_server,
    validation_cpu_profile,
    xeon_e5_2680_server,
)
from repro.core.engine import Engine
from repro.core.rng import RandomSource


@pytest.fixture(autouse=True)
def _hard_test_timeout(request):
    """Abort tests marked ``@pytest.mark.timeout(N)`` after N wall seconds.

    The subprocess-pool tests (dead workers, point-timeout kills) hang
    rather than fail when supervision logic regresses; a SIGALRM tripwire
    turns that hang into a test failure.  Implemented here because the
    environment has no pytest-timeout plugin; SIGALRM only fires in the main
    thread, which is where pytest runs tests.
    """
    marker = request.node.get_closest_marker("timeout")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = float(marker.args[0]) if marker.args else 60.0

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds:g}s timeout (pool supervision hang?)"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def real_pool(monkeypatch):
    """Make ``jobs > 1`` sweeps spawn a real worker pool on any host.

    Sweeps clamp their worker count to ``host_cpus()``.  On a 1-CPU host a
    pool-vs-in-process determinism test would otherwise compare the
    in-process path with itself.
    """
    import repro.runner.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "host_cpus", lambda: 64)


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng_source() -> RandomSource:
    return RandomSource(42)


@pytest.fixture
def rng(rng_source):
    return rng_source.stream("test")


@pytest.fixture
def small_config() -> ServerConfig:
    return small_cloud_server(n_cores=2)


@pytest.fixture
def xeon_config() -> ServerConfig:
    return xeon_e5_2680_server()


@pytest.fixture
def fast_sleep_config() -> ServerConfig:
    """A server whose sleep transitions are quick, for sleep-path tests."""
    base = small_cloud_server(n_cores=2)
    platform = base.platform.to_dict()
    platform.update(s3_entry_latency_s=0.01, s3_exit_latency_s=0.05)
    return ServerConfig.from_dict(
        {**base.to_dict(), "platform": platform}
    )
