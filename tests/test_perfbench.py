"""The names perfbench reaches into idtest by stay in place.

perfbench wraps idtest functions by module and name (spans.Tracer), taps
harness globals with coarse_compare's five positional arguments
(workloads.HarnessTap), calls run_trials and lemma_check with jobs= and
include_gap=, and checks every verdict against the five keys of
Verdict.sizes (workloads.check_verdict). A rename in idtest breaks the
benchmark, not its own tests; this runs op 0 of each workload, traced.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["single-1m", "mc-400", "comparator-400"])
def test_op_zero_runs_traced_with_no_problems(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    wl = workloads.WORKLOADS[name](1, tmp_path)
    wl.prepare()
    # entering the tracer resolves and wraps every traced target
    with spans.Tracer() as tracer:
        state = wl.setup()
        problems = wl.check_setup(state)
        out = wl.op(state, 0)
    assert problems == [] and out.problems == []
    assert out.trials > 0 and out.errors == 0
    assert tracer.start  # the wrapped functions ran
