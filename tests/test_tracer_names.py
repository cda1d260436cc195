"""Every name the benchmark's tracer patches still exists.

``perfbench/spans.py`` wraps functions and methods of ``adapts`` by
name, so a rename breaks the traced benchmark runs. Its ``install`` runs
here with a tracer that only looks each name up and patches nothing.
"""

import importlib.util
from pathlib import Path

import adapts

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = load_spans()

    class LookUp(spans.Tracer):
        def __init__(self):
            super().__init__()
            self.looked_up = []

        def patch(self, owners, attr, name, on_call=None):
            for owner in owners:
                assert callable(getattr(owner, attr)), f"{name}: {owner!r}.{attr}"
            self.looked_up.append(name)

    run_before = adapts.harness.run
    tracer = LookUp()
    spans.install(tracer, adapts)
    assert len(tracer.looked_up) == len(set(tracer.looked_up)) > 0
    assert {"harness.run", "io.load_forecasts", "forecaster.fit_block"} <= set(tracer.looked_up)
    assert adapts.harness.run is run_before and not tracer.stats
