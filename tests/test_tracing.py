"""The benchmark tracer (perfbench/tracing.py) wraps program callables by
name: every name it pins must exist, so renaming or deleting one fails
here rather than in a traced benchmark run."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("make", [tracing.flood_tracer, tracing.spark_tracer])
def test_tracer_installs_and_uninstalls(make):
    t = make()
    assert t._targets
    before = [vars(owner).get(attr) for owner, attr, *_ in t._targets]
    t.install()
    try:
        for owner, attr, *_ in t._targets:
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
    finally:
        t.uninstall()
    assert [vars(owner).get(attr) for owner, attr, *_ in t._targets] == before
