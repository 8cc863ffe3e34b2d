"""The benchmark tracer (perfbench/tracing.py) against the names it wraps:
every name it wraps must still exist where it looks for it, a traced run
must move its counters, and removing it must restore every original."""

import importlib
import sys
from pathlib import Path

from limitlab import cli, functions, poisson

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def limitlab_namespaces():
    """Every (namespace, key) -> value of the limitlab modules and of the
    classes they define, the places Tracer.install patches."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("limitlab"):
            continue
        owners = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == name]
        for owner in owners:
            for key, value in vars(owner).items():
                out[(id(owner), key)] = value
    return out


def test_tracer_installs_counts_and_restores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = limitlab_namespaces()
    integral_step = poisson.poisson_integral_step
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert poisson.poisson_integral_step is not integral_step
        assert functions.StepFunction.__dict__["eval"] is not before[
            (id(functions.StepFunction), "eval")]
        assert cli.main(["kernel-check", "--n-max", "4", "--lower-n-max", "4",
                         "--grid", "50", "--out", str(tmp_path / "o")]) == 0
    finally:
        tracer.remove()
    assert tracer.counts["kernels.fejer_eval_points"] > 0
    assert tracer.counts["cli.artifact_bytes"] > 0
    assert tracer.incl_s["cli.main"] > 0
    assert poisson.poisson_integral_step is integral_step
    after = limitlab_namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
