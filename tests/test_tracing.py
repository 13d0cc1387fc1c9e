"""The benchmark's tracer (perfbench/tracing.py) wraps fblab functions by
module attribute, so renaming or deleting one of them breaks the benchmark.
This test fails first."""

import importlib.util
from pathlib import Path

from fblab import montecarlo
from fblab.channel import make_channel
from fblab.strategy import MAX_POSTERIOR


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer.originals)
        assert all(getattr(obj, attr) is not fn for obj, attr, fn in patched)
        # the benchmark's cross-check calls run_trials with workers=1
        ch = make_channel("0.1", "float")
        stats = montecarlo.run_trials(3, ch, MAX_POSTERIOR, trials=5, seed=0, workers=1)
    finally:
        tracer.uninstall()
    assert stats.trials == 5
    assert [s[0] for s in tracer.spans] == ["montecarlo.batch"]
    assert all(getattr(obj, attr) is fn for obj, attr, fn in patched)
    names = {(obj.__name__, attr) for obj, attr, _ in patched}
    assert {("fblab.montecarlo", a) for a in ("run_trials", "simulate_trajectory", "step")} <= names
