"""The structured logger's cost and level plumbing: a filtered event is
one level check on a cached logger, and every way of moving the level
(``set_level``, caplog) still reaches the cached loggers."""

import logging

from repro.obs import log as obs_log
from repro.obs import log_event, set_level


def _events(caplog, name):
    return [r for r in caplog.records if getattr(r, "event", None) == name]


def test_filtered_event_looks_nothing_up(monkeypatch):
    log_event("warm", level="debug", component="unit-log")  # caches the logger

    def looked_up(*args, **kwargs):
        raise AssertionError("a logged event configured or looked up its logger again")

    monkeypatch.setattr(obs_log, "configure", looked_up)
    get_logger = logging.getLogger
    logging.getLogger = looked_up  # undone before pytest's own hooks run
    try:
        log_event("quiet", level="debug", component="unit-log", n=1)
    finally:
        logging.getLogger = get_logger


def test_caplog_level_reaches_a_cached_logger(caplog):
    log_event("warm", level="debug", component="unit-log")
    with caplog.at_level(logging.DEBUG, logger="repro.obs"):
        log_event("loud", level="debug", component="unit-log", n=1)
    (record,) = _events(caplog, "loud")
    assert record.name == "repro.obs.unit-log"
    assert record.fields == {"n": 1, "component": "unit-log"}


def test_set_level_reaches_a_cached_logger(caplog):
    root = logging.getLogger("repro.obs")
    before = root.level
    log_event("warm", level="info", component="unit-log")
    try:
        set_level("error")
        log_event("dropped", level="warning", component="unit-log")
        set_level("info")
        log_event("kept", level="info", component="unit-log")
    finally:
        root.setLevel(before)
    assert not _events(caplog, "dropped")
    assert len(_events(caplog, "kept")) == 1
