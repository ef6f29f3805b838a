"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

# The result cache (repro.cache) is on by default, which would let the
# serial-vs-parallel determinism tests trivially compare cache hits with
# cache hits — and would write into the developer's real cache while
# testing. Run the suite cache-off; cache tests opt back in with
# explicit ResultCache instances in tmp dirs. Same story for the run
# ledger (repro.obs.ledger): off by default so thousands of test runs
# don't spam the developer's ledger; ledger tests opt back in with
# explicit RunLedger instances or REPRO_LEDGER_DIR monkeypatches.
os.environ.setdefault("REPRO_CACHE", "off")
os.environ.setdefault("REPRO_LEDGER", "off")

from repro.cpu import FreeExecutor, ZERO_COSTS
from repro.kernel import KERNEL_ENV_VAR, resolve_kernel
from repro.netsim import ETHERNET_LAN, MediumProfile, NetemConfig, Testbed
from repro.sim import EventLoop, RngStreams
from repro.tcp.stack import MobileTcpStack, ServerHost

# -- which kernel did this run exercise? -------------------------------------
#
# The default kernel depends on the build: compiled when the extension is
# built, pure otherwise, and every compiled-kernel test skips with a reason
# starting with CKERNEL_SKIP_REASON. A run without the build therefore passes
# while exercising less than CI does; the session-end line says so, and
# REPRO_REQUIRE_CKERNEL=1 turns those skips into failures.

#: skip-reason prefix shared by every test that needs the built extension
CKERNEL_SKIP_REASON = "compiled kernel not built"
#: set to 1 to fail (not skip) tests that need the compiled kernel
REQUIRE_CKERNEL_ENV_VAR = "REPRO_REQUIRE_CKERNEL"
BUILD_COMMAND = "python setup.py build_ext --inplace"

#: per-session tally of compiled-kernel tests: {"skipped": n, "failed": n}
_CKERNEL_TALLY = pytest.StashKey[dict]()


def pytest_configure(config):
    config.stash[_CKERNEL_TALLY] = {"skipped": 0, "failed": 0}


def _is_ckernel_skip(report) -> bool:
    return (
        report.skipped
        and isinstance(report.longrepr, tuple)
        and CKERNEL_SKIP_REASON in str(report.longrepr[2])
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if not _is_ckernel_skip(report):
        return
    tally = item.config.stash[_CKERNEL_TALLY]
    if os.environ.get(REQUIRE_CKERNEL_ENV_VAR, "").strip() == "1":
        reason = str(report.longrepr[2]).replace("Skipped: ", "", 1)
        report.outcome = "failed"
        report.longrepr = (
            f"{REQUIRE_CKERNEL_ENV_VAR}=1 but {reason}; "
            f"build it with `{BUILD_COMMAND}`"
        )
        tally["failed"] += 1
    else:
        tally["skipped"] += 1


def pytest_terminal_summary(terminalreporter):
    tally = terminalreporter.config.stash[_CKERNEL_TALLY]
    kernel = resolve_kernel()
    source = (f"{KERNEL_ENV_VAR}={os.environ[KERNEL_ENV_VAR].strip()}"
              if os.environ.get(KERNEL_ENV_VAR, "").strip() else "default")
    line = (f"repro kernel: {source} resolved to {kernel.describe()}; "
            f"{tally['skipped']} compiled-kernel tests skipped")
    if tally["failed"]:
        line += (f", {tally['failed']} failed under "
                 f"{REQUIRE_CKERNEL_ENV_VAR}=1 (build with `{BUILD_COMMAND}`)")
    elif tally["skipped"]:
        line += (f" (build with `{BUILD_COMMAND}`; "
                 f"{REQUIRE_CKERNEL_ENV_VAR}=1 fails instead of skipping)")
    terminalreporter.write_line(line)


class ProtocolHarness:
    """A phone+server pair on a free CPU: pure protocol behaviour.

    Used by TCP/CC tests that want network dynamics without compute
    effects. Real-CPU behaviour is covered by the experiment-level tests.
    """

    def __init__(
        self,
        medium: MediumProfile = ETHERNET_LAN,
        netem: NetemConfig = None,
        seed: int = 1,
    ):
        self.loop = EventLoop()
        self.testbed = Testbed(self.loop, medium, netem=netem, rng=RngStreams(seed))
        self.stack = MobileTcpStack(
            self.loop, FreeExecutor(), ZERO_COSTS, self.testbed
        )
        self.server = ServerHost(self.testbed)

    def run(self, until_ns: int) -> None:
        """Advance the simulation to *until_ns*."""
        self.loop.run(until=until_ns)


@pytest.fixture
def simulate_missing_ckernel(monkeypatch):
    """Call the returned function to make this process behave as if the
    compiled extension never built (until the test ends)."""
    import repro.kernel as kernel_mod

    def simulate(error: str = "no compiler at install") -> None:
        monkeypatch.setattr(kernel_mod, "_ckernel", None)
        monkeypatch.setattr(kernel_mod, "_ckernel_error", error)
        monkeypatch.setattr(kernel_mod, "_ckernel_loaded", True)
        monkeypatch.setattr(kernel_mod, "_noticed", set())

    return simulate


@pytest.fixture
def loop() -> EventLoop:
    """A fresh event loop."""
    return EventLoop()


@pytest.fixture
def harness() -> ProtocolHarness:
    """A protocol harness on the default Ethernet medium."""
    return ProtocolHarness()
