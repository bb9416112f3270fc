"""``repro.obs.profile`` — the hotspot profiling pillar.

Three layers, importable independently:

* :mod:`repro.obs.profile.selftime` — deterministic exclusive-time
  attribution over the span tree (pure post-processing, no clocks);
* :mod:`repro.obs.profile.sampler` — opt-in statistical stack sampler
  with collapsed-stack (flamegraph) and Chrome Trace output;
* :mod:`repro.obs.profile.allocs` — tracemalloc-backed net-allocation
  attribution to the active span, via tracer hooks;
* :mod:`repro.obs.profile.report` — the schema-validated, byte-stable
  ``profile.json`` tying them together.

:class:`ProfileSession` is the lifecycle object the CLI drives: it
starts/stops tracemalloc and the sampler thread, registers the
allocation hook on the active tracer, and hands its sections to the
report builder.  Everything stays *free when off*: constructing a
session does nothing; only :meth:`ProfileSession.start` touches global
state, and :meth:`ProfileSession.stop` undoes all of it.  The
``--profile`` flag / ``REPRO_PROFILE`` env var are the only activation
paths.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.obs.profile.allocs import AllocationProfiler
from repro.obs.profile.sampler import StackSampler
from repro.obs.profile.selftime import (
    SelfTimeEntry,
    SelfTimeProfile,
    render_self_time,
    self_time_profile,
)
from repro.obs.profile.report import (
    build_from_trace_file,
    build_profile_doc,
    render_profile,
    validate_profile,
    write_profile,
)

__all__ = [
    "AllocationProfiler",
    "ProfileSession",
    "SelfTimeEntry",
    "SelfTimeProfile",
    "StackSampler",
    "build_from_trace_file",
    "build_profile_doc",
    "env_profile_enabled",
    "render_profile",
    "render_self_time",
    "self_time_profile",
    "start_profiling",
    "stop_profiling",
    "validate_profile",
    "write_profile",
]

#: Values of ``REPRO_PROFILE`` that mean "off".
_FALSY = ("", "0", "false", "off", "no")


def env_profile_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` asks for profiling."""
    return os.environ.get("REPRO_PROFILE", "").strip().lower() not in _FALSY


class ProfileSession:
    """One profiling run: sampler thread + allocation hook + bookkeeping.

    Parameters
    ----------
    sample / allocs:
        Enable the statistical sampler and the allocation profiler.
        Self-time attribution needs neither — it is derived from the
        trace itself — so a session with both off still yields a full
        ``profile.json``.
    sample_interval_s:
        Sampler period; see :class:`StackSampler`.
    tracer:
        Tracer to attach to; defaults to the active ``obs`` tracer at
        :meth:`start` time (tracing must be enabled first).
    """

    def __init__(
        self,
        sample: bool = True,
        allocs: bool = True,
        sample_interval_s: float = 0.005,
        tracer: Optional[Any] = None,
    ):
        self._want_sample = sample
        self._want_allocs = allocs
        self._interval_s = sample_interval_s
        self._tracer = tracer
        self.sampler: Optional[StackSampler] = None
        self.allocator: Optional[AllocationProfiler] = None
        self._started_tracemalloc = False
        self._running = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "ProfileSession":
        if self._running:
            return self
        if self._tracer is None:
            from repro import obs

            self._tracer = obs.tracer()
        if self._tracer is None:
            from repro.util.errors import ReproError

            raise ReproError(
                "profiling needs tracing: call obs.enable(trace=True) first"
            )
        if self._want_allocs:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
            self.allocator = AllocationProfiler()
            self._tracer.add_hook(self.allocator)
        if self._want_sample:
            self.sampler = StackSampler(
                interval_s=self._interval_s, tracer=self._tracer
            )
            self.sampler.start()
        self._running = True
        return self

    def stop(self) -> "ProfileSession":
        if not self._running:
            return self
        if self.sampler is not None:
            self.sampler.stop()
        if self.allocator is not None and self._tracer is not None:
            self._tracer.remove_hook(self.allocator)
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False
        self._running = False
        return self

    @property
    def running(self) -> bool:
        return self._running

    # -- report sections ----------------------------------------------------
    def sampler_summary(self) -> Optional[Dict[str, Any]]:
        return self.sampler.summary() if self.sampler is not None else None

    def alloc_summary(self) -> Optional[Dict[str, Any]]:
        return self.allocator.summary() if self.allocator is not None else None

    def collapsed_text(self) -> str:
        return self.sampler.collapsed_text() if self.sampler is not None else ""

    def sample_spans(self) -> List[Any]:
        return self.sampler.to_spans() if self.sampler is not None else []


#: The CLI-driven module-global session (one per process, like the
#: facade's tracer).
_active: Optional[ProfileSession] = None


def start_profiling(**kwargs: Any) -> ProfileSession:
    """Start (or return) the process-global profiling session."""
    global _active
    if _active is not None and _active.running:
        return _active
    _active = ProfileSession(**kwargs).start()
    return _active


def stop_profiling() -> Optional[ProfileSession]:
    """Stop the global session; returns it (data intact) or ``None``."""
    global _active
    session = _active
    _active = None
    if session is not None:
        session.stop()
    return session
