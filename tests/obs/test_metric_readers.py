"""Every exported metric has a reader.  A ``dslog_*`` family nothing reads
still costs an update on its hot path, so it is read or it is gone.  A
reader names the family in its source: the bench (``bench/*.py``), the
scrape example, the serving API module or a test — this file excepted."""

import importlib
import pkgutil
import re
from pathlib import Path

import repro
from repro.obs import REGISTRY

HERE = Path(__file__).resolve()
ROOT = HERE.parents[2]
NAME = re.compile(r"\bdslog_[a-z0-9_]+")
SAMPLE_SUFFIXES = ("", "_bucket", "_sum", "_count")  # a histogram is read through its samples


def reader_sources():
    yield from (ROOT / "bench").glob("*.py")
    yield ROOT / "examples" / "metrics_scrape.py"
    yield ROOT / "src" / "repro" / "service" / "api.py"
    yield from (path for path in (ROOT / "tests").rglob("*.py") if path.resolve() != HERE)


def test_every_exported_metric_has_a_reader():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    exported = {metric.name for metric in REGISTRY.metrics() if metric.name.startswith("dslog_")}
    assert exported, "no dslog_* family registered"
    read = set()
    for path in reader_sources():
        read.update(NAME.findall(path.read_text(encoding="utf-8")))
    unread = sorted(name for name in exported if not any(name + suffix in read for suffix in SAMPLE_SUFFIXES))
    assert unread == []
