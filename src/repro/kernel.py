"""Simulation-kernel backend selection (``pure`` | ``compiled``).

The simulator's mechanical hot core — event loop, CPU cores, timers,
links, droptail queues — exists twice: the pure-python reference
implementations (:mod:`repro.sim`, :mod:`repro.cpu`, :mod:`repro.netsim`)
and an optional C extension (:mod:`repro._ckernel`) that is bit-identical
but several times faster. This module is the one place that decides which
backend a run uses, through the same registry pattern as congestion
control or executors:

* ``KERNELS.get("pure")`` / ``KERNELS.get("compiled")`` — the backends,
* :func:`requested_kernel` — what the caller explicitly asked for (the
  argument, else ``REPRO_KERNEL``), or ``None``,
* :func:`resolve_kernel` — the request, else ``compiled`` when the
  extension is built, else ``pure``; an explicit request that cannot be
  honoured (extension not built) or an instrumented run (tracer/profiler)
  falls back to pure with a one-line notice, and
* :func:`kernel_info` — what actually ran, for benchmark metadata.

The compiled kernel is the fast path and the default wherever it is
built; the pure path stays the readable determinism reference. The
compiled kernel must produce byte-identical results (same event order,
same seq tie-breaks, same float expressions), which the equivalence
suite and the archived-results byte-identity CI check enforce.
Selection happens only where an experiment builds its loop
(:func:`repro.core.experiment.run_experiment`); components constructed
on a compiled loop route themselves to their C counterparts via
``__new__`` hooks, so unit tests that build a pure ``EventLoop``
directly are always exercising the reference code.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Optional

from .registry import Registry

__all__ = [
    "Kernel",
    "KERNELS",
    "KERNEL_ENV_VAR",
    "requested_kernel",
    "resolve_kernel",
    "compiled_for",
    "compiled_components",
    "kernel_info",
]

#: environment variable consulted by :func:`resolve_kernel` (the CLI's
#: ``--kernel`` writes it so grid worker processes inherit the choice)
KERNEL_ENV_VAR = "REPRO_KERNEL"

# -- compiled-extension loading (lazy, memoized) ----------------------------

_ckernel = None
_ckernel_error: Optional[str] = None
_ckernel_loaded = False


def _load_ckernel():
    """Import :mod:`repro._ckernel` once; remember why it failed if it did.

    Kept as a module-level memo (rather than importing at the top) so the
    pure fallback costs nothing on machines without the built extension,
    and so tests can simulate an absent extension by resetting the memo.
    """
    global _ckernel, _ckernel_error, _ckernel_loaded
    if not _ckernel_loaded:
        _ckernel_loaded = True
        try:
            from . import _ckernel as mod

            _ckernel = mod
        except ImportError as exc:
            _ckernel = None
            _ckernel_error = str(exc)
    return _ckernel


def compiled_for(loop):
    """The ``_ckernel`` module when *loop* is a compiled-kernel loop, else None.

    This is the routing predicate used by the ``__new__`` hooks on the
    pure component classes (CpuCore, Timer, Link, DropTailQueue): a
    component constructed on a compiled loop becomes its C counterpart,
    anything constructed on a pure loop stays pure python.
    """
    mod = _load_ckernel()
    if mod is not None and type(loop) is mod.EventLoop:
        return mod
    return None


# -- one-time notices -------------------------------------------------------

_noticed: set = set()


def _notice_once(key: str, message: str) -> None:
    """Print *message* to stderr once per process (never silently fall back)."""
    if key not in _noticed:
        _noticed.add(key)
        print(f"repro: {message}", file=sys.stderr)


# -- backends ---------------------------------------------------------------


class Kernel:
    """One simulation-kernel backend: a name plus a loop factory."""

    def __init__(self, name: str, make_loop: Callable):
        self.name = name
        self._make_loop = make_loop

    @property
    def available(self) -> bool:
        """Whether this backend can actually run on this machine."""
        return True

    @property
    def why_unavailable(self) -> Optional[str]:
        """Human-readable reason when :attr:`available` is False."""
        return None

    @property
    def compiler(self) -> Optional[str]:
        """Compiler identification for compiled backends, else None."""
        return None

    def make_loop(self):
        """Build a fresh event loop of this backend."""
        return self._make_loop()

    def describe(self) -> str:
        """Short human-readable tag, e.g. ``compiled (gcc 12.2.0)``."""
        if self.compiler is not None:
            return f"{self.name} ({self.compiler})"
        return self.name

    def __repr__(self) -> str:
        return f"Kernel({self.name!r}, available={self.available})"


class _CompiledKernel(Kernel):
    """The C-extension backend; availability depends on the built module."""

    def __init__(self):
        super().__init__("compiled", self._make_compiled_loop)

    @staticmethod
    def _make_compiled_loop():
        return _load_ckernel().EventLoop()

    @property
    def available(self) -> bool:
        return _load_ckernel() is not None

    @property
    def why_unavailable(self) -> Optional[str]:
        if self.available:
            return None
        return _ckernel_error or "repro._ckernel is not built"

    @property
    def compiler(self) -> Optional[str]:
        mod = _load_ckernel()
        return getattr(mod, "COMPILER", None) if mod is not None else None


def _make_pure_loop():
    # Imported here: repro.sim.engine is a heavy import and this module is
    # imported by the component modules themselves (cycle avoidance).
    from .sim.engine import EventLoop

    return EventLoop()


#: name -> :class:`Kernel`; the selection axis for ``--kernel`` and
#: ``REPRO_KERNEL`` (same pattern as ``CC_ALGORITHMS`` / ``EXECUTORS``)
KERNELS: Registry = Registry("kernel")
KERNELS.register("pure", Kernel("pure", _make_pure_loop))
KERNELS.register("compiled", _CompiledKernel())


def requested_kernel(name: Optional[str] = None) -> Optional[str]:
    """The backend explicitly asked for: *name*, else ``REPRO_KERNEL``.

    Returns ``None`` when neither is set, i.e. when the run takes the
    default (see :func:`resolve_kernel`). Callers that report a kernel
    fallback compare the kernel that ran against this, never against a
    hard-coded default: landing on pure because nothing is built is not
    a fallback when nobody asked for compiled.

    A junk ``REPRO_KERNEL`` value fails fast with a :class:`ValueError`
    that names the variable and enumerates the registered backends (same
    hardening as ``resolve_jobs`` for ``REPRO_JOBS``) — an inherited
    environment must never silently select the wrong backend. An empty
    or whitespace-only ``REPRO_KERNEL`` means "unset". Unknown *name*
    values are left to :meth:`Registry.get` to reject.
    """
    if name:
        return name
    env = os.environ.get(KERNEL_ENV_VAR, "")
    requested = env.strip()
    if not requested:
        return None
    if requested not in KERNELS:
        choices = ", ".join(sorted(KERNELS.names()))
        raise ValueError(
            f"{KERNEL_ENV_VAR} must name a registered kernel "
            f"(one of: {choices}), got {env!r}"
        )
    return requested


def resolve_kernel(
    name: Optional[str] = None,
    instrumented: bool = False,
) -> Kernel:
    """Pick the kernel for a run.

    In order: *name*, then ``REPRO_KERNEL`` (see :func:`requested_kernel`),
    then ``compiled`` if the extension loads, else ``pure``. An unset
    request that lands on pure because nothing is built is the default,
    not a fallback, and prints nothing.

    Two situations force the pure backend, each announced once on stderr
    (never a silent downgrade — no silently empty profiles, no unbuilt
    extension pretending to be compiled):

    * *instrumented* runs (an enabled tracer or a profiler): the compiled
      kernel does not carry instrumentation hooks, so the reference
      implementation runs instead;
    * the compiled extension is explicitly requested but not importable
      on this machine (not built, or no compiler at install time).

    Unknown names raise :class:`repro.registry.UnknownNameError`.
    """
    requested = requested_kernel(name)
    if requested is None:
        compiled = KERNELS.get("compiled")
        kernel = compiled if compiled.available else KERNELS.get("pure")
    else:
        kernel = KERNELS.get(requested)
    if kernel.name == "pure":
        return kernel
    if instrumented:
        _notice_once(
            f"instrumented:{kernel.name}",
            f"instrumented run (tracer/profiler active): using the pure "
            f"kernel instead of {kernel.name!r}",
        )
        return KERNELS.get("pure")
    if not kernel.available:
        _notice_once(
            f"unavailable:{kernel.name}",
            f"kernel {kernel.name!r} is unavailable "
            f"({kernel.why_unavailable}); falling back to the pure kernel",
        )
        return KERNELS.get("pure")
    return kernel


#: component families with a compiled implementation, in display order:
#: (family label, the ``repro._ckernel`` attribute that implements it)
_COMPONENT_FAMILIES = (
    ("loop", "EventLoop"),
    ("timers", "Timer"),
    ("links", "Link"),
    ("queues", "DropTailQueue"),
    ("cores", "CpuCore"),
    ("scoreboard", "Scoreboard"),
    ("rate-sampler", "DeliveryRateEstimator"),
    ("rtt-filters", "MinRttFilter"),
    ("cc-bbr", "BbrModel"),
)


def compiled_components(kernel: Optional[Kernel] = None) -> tuple:
    """Component families the given backend runs in C (empty for pure).

    Derived from the built extension's exports, so a stale or partial
    build reports exactly what it covers rather than what this source
    tree expects.
    """
    if kernel is None:
        kernel = resolve_kernel()
    if kernel.name == "pure":
        return ()
    mod = _load_ckernel()
    if mod is None:
        return ()
    return tuple(
        family for family, attr in _COMPONENT_FAMILIES if hasattr(mod, attr)
    )


def kernel_info(kernel: Optional[Kernel] = None) -> dict:
    """Metadata describing the *active* backend, for benchmark payloads.

    With no argument, describes what :func:`resolve_kernel` would pick
    right now (env included). Returned keys: ``name``, ``compiler``
    (None for pure), and ``compiled_components`` (the component families
    the backend runs in C; empty for pure).
    """
    if kernel is None:
        kernel = resolve_kernel()
    return {
        "name": kernel.name,
        "compiler": kernel.compiler,
        "compiled_components": list(compiled_components(kernel)),
    }
