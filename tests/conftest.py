"""Shared test settings.

Property tests draw their examples from a seed derived from each test, so a
run is reproducible: the same examples every time, in CI as locally.  The
benchmark's fixed pools (``perfbench/workloads.py``) are importable as
``workloads``, so tests can run on the inputs the benchmark measures, and
the BENCH harness (``tools/bench.py``) as ``bench``.
"""

import json
import sys
from pathlib import Path

import pytest

from hga import typea

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))
sys.path.append(str(ROOT / "tools"))

try:
    from hypothesis import settings
except ImportError:     # the property suites skip themselves without it
    settings = None

if settings is not None:
    settings.register_profile("reproducible", derandomize=True,
                              database=None, deadline=None)
    settings.load_profile("reproducible")


@pytest.fixture
def self_ext(monkeypatch):
    """The row check of `typea.canonical_cluster_tilting` tampered so that
    every module M has Ext^d(M, M) != 0."""
    ext_row = typea._ext_row

    def tampered(mx, d):
        top, dim = ext_row(mx, d)
        return tuple(top) + mx.support, lambda box: (
            1 if box is mx.dims else dim(box) if top else 0)

    monkeypatch.setattr(typea, "_ext_row", tampered)


def json_bytes(report):
    """What ``hga.cli`` writes for a report: json's indented dump."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def reports_dump_as_json(monkeypatch):
    """Every certificate and verify-example report built is JSON-ready:
    ``json_bytes`` writes it without raising."""
    from hga import axioms, reduction

    def checking(build):
        def built(*args, **kwargs):
            report = build(*args, **kwargs)
            json_bytes(report)
            return report
        return built

    monkeypatch.setattr(axioms.GentleCertificate, "to_dict",
                        checking(axioms.GentleCertificate.to_dict))
    monkeypatch.setattr(reduction, "verify_sg_example",
                        checking(reduction.verify_sg_example))
