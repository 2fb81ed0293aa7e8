"""The names the traced benchmark patches exist in the package.

`perfbench/spans.py` swaps module and class attributes such as
`protocols.omp_detect` or `TwoStepExperiment.run_trial` for timing wrappers
while `patched` is active.  Deleting or renaming one of them makes
`perfbench/run.py --trace 1` fail with an AttributeError; this test finds
that in about a second instead of in the minutes-long `perfbench/selftest.py`.
"""
import importlib.util
from pathlib import Path

from umacsim import montecarlo, protocols

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_enters_and_restores_every_name():
    spans = load_spans()

    def names():
        return (
            protocols.omp_detect,
            montecarlo.twostep_receive,
            montecarlo.complex_noise,
            montecarlo.TwoStepExperiment.run_trial,
        )

    before = names()
    with spans.patched(spans.Tracer()):
        assert all(a is not b for a, b in zip(names(), before))
    assert names() == before
