"""Structured JSON-lines logging for the whole runtime.

One logger tree rooted at ``repro.obs`` carries server request logs,
breaker transitions, scrub/repair outcomes, fault injections, and slow
traces.  Events are single-line JSON objects with a stable envelope::

    {"ts": 1754650000.123, "level": "info", "event": "request",
     "component": "server", ...fields}

Design points:

* Built on stdlib :mod:`logging` so standard tooling (``caplog``,
  handler config, level filtering) keeps working.
* Quiet by default: the root obs logger starts at WARNING, so routine
  request logs (INFO) stay silent until ``DSLOG_LOG_LEVEL=INFO`` or
  :func:`set_level` opts in; verbosity is a level knob instead of a code
  edit.  Each component's logger is looked up once, so an event the level
  filters out costs one ``isEnabledFor`` check.
* ``propagate`` stays on, and our stderr handler is attached to the
  ``repro.obs`` root only, so records reach pytest's caplog while
  ``logging.lastResort`` never double-prints.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
from typing import Any, Dict, Optional

__all__ = [
    "get_logger",
    "log_event",
    "log_enabled",
    "set_level",
    "configure",
    "JsonLinesFormatter",
]

ROOT_NAME = "repro.obs"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}

_configure_lock = threading.Lock()
_configured = False
# component -> its logger, so a filtered event costs one level check
_loggers: Dict[str, logging.Logger] = {}


class JsonLinesFormatter(logging.Formatter):
    """Render a record's structured fields as one JSON line."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": getattr(record, "event", record.getMessage()),
        }
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict):
            payload.update(fields)
        if record.exc_info and record.exc_info[0] is not None:
            payload["exc_type"] = record.exc_info[0].__name__
            payload["exc"] = str(record.exc_info[1])
        return json.dumps(payload, default=str, separators=(",", ":"))


def configure(stream=None, level: Optional[str] = None) -> logging.Logger:
    """Attach the JSON handler to the obs root logger (idempotent).

    Level resolution: explicit ``level`` arg > ``DSLOG_LOG_LEVEL`` env >
    WARNING (quiet).  Called lazily on first use; safe to call again to
    re-point the stream (tests do, to capture output).
    """
    global _configured
    root = logging.getLogger(ROOT_NAME)
    with _configure_lock:
        if stream is not None or not _configured:
            for handler in list(root.handlers):
                if getattr(handler, "_repro_obs", False):
                    root.removeHandler(handler)
            handler = logging.StreamHandler(stream or sys.stderr)
            handler.setFormatter(JsonLinesFormatter())
            handler._repro_obs = True  # type: ignore[attr-defined]
            root.addHandler(handler)
            _configured = True
        resolved = level or os.environ.get("DSLOG_LOG_LEVEL")
        if resolved or root.level == logging.NOTSET:
            root.setLevel(_LEVELS.get((resolved or "warning").lower(), logging.WARNING))
    return root


def set_level(level: str) -> None:
    """Set the obs logger level by name (``"info"``, ``"debug"``, ...)."""
    configure().setLevel(_LEVELS.get(level.lower(), logging.WARNING))


def get_logger(name: str = "") -> logging.Logger:
    """A child of the obs root (``get_logger("server")`` →
    ``repro.obs.server``); the root's handler and level apply."""
    configure()
    return logging.getLogger(f"{ROOT_NAME}.{name}" if name else ROOT_NAME)


def _logger(component: str) -> logging.Logger:
    logger = _loggers.get(component)
    if logger is None:
        logger = _loggers.setdefault(component, get_logger(component))
    return logger


def log_enabled(component: str = "", level: str = "info") -> bool:
    """Whether :func:`log_event` would emit an event of *level* from
    *component* — so a hot caller builds an event's fields only then."""
    return _logger(component).isEnabledFor(_LEVELS.get(level.lower(), logging.INFO))


def log_event(
    event: str,
    *,
    level: str = "info",
    component: str = "",
    exc_info: Any = None,
    **fields: Any,
) -> None:
    """Emit one structured event.

    ``event`` is the stable machine-readable name (``"request"``,
    ``"breaker_transition"``, ``"fault_injected"``, ``"scrub_complete"``,
    ``"slow_trace"``); ``fields`` become top-level JSON keys.
    """
    logger = _logger(component)
    lvl = _LEVELS.get(level.lower(), logging.INFO)
    if not logger.isEnabledFor(lvl):
        return
    logger.log(
        lvl,
        event,
        exc_info=exc_info,
        extra={"event": event, "fields": dict(fields, component=component or "obs")},
    )
