"""Run-level observability: span/counter tracing with Chrome-trace export."""

from .tracer import DEFAULT_MAX_EVENTS, Tracer, current, recording

__all__ = ["DEFAULT_MAX_EVENTS", "Tracer", "current", "recording"]
