"""Gates on the two known defects in the README, on pmfs built here.

Each case runs 30 seeded run_trials trials and gates a Wilson bound, as the
acceptance suite does. A case the tester fails today is marked
xfail(strict=True): it stays red in the report, and the suite fails as
soon as it starts to pass, so the fix has to remove its marker.

- Completeness on non-uniform p: p = q for zipf a = 1 and for a two-level
  step is rejected at the coarse stage (ROADMAP item 1).
- Soundness on uniform p: the eps-spread q, (1 +- eps)/n on a seeded random
  half each, lies at l1 distance eps and is accepted at eps <= 0.2
  (ROADMAP item 2). At eps = 0.5 it is rejected, and that case must pass.
"""

import numpy as np
import pytest

from idtest.distributions import l1_distance, uniform_pmf, validate_pmf, zipf_pmf
from idtest.harness import Instance, run_trials
from idtest.tester import TesterConfig

TRIALS = 30
MASTER = 2026


def step_pmf(n):
    """n/8 entries at 8x the weight of the other 7n/8."""
    w = np.ones(n)
    w[: n // 8] = 8.0
    return validate_pmf(w / w.sum())


def spread_pmf(n, eps, seed):
    """(1 + eps)/n on a seeded random half of [n], (1 - eps)/n on the rest."""
    signs = np.ones(n)
    signs[np.random.default_rng(seed).permutation(n)[: n // 2]] = -1.0
    return validate_pmf((1.0 + eps * signs) / n)


def wilson_of(p, q, eps):
    rep = run_trials(Instance("known-defect", p, q, l1_distance(p, q)),
                     TesterConfig(eps=eps), trials=TRIALS, master_seed=MASTER)
    return rep.wilson


ITEM_1 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the coarse stage rejects p = q for a non-uniform p",
)
ITEM_2 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: the collision threshold is linear in eps, not quadratic",
)


@ITEM_1
@pytest.mark.parametrize("n", [400, 4096])
@pytest.mark.parametrize("family", [zipf_pmf, step_pmf], ids=["zipf", "step"])
def test_completeness_on_non_uniform_p(family, n):
    p = family(n)
    lo, _ = wilson_of(p, p, 0.5)
    assert lo >= 0.60, f"p = q accepted with Wilson lower bound {lo:.3f}"


@pytest.mark.parametrize("n", [400, 4096])
@pytest.mark.parametrize(
    "eps", [pytest.param(0.1, marks=ITEM_2), pytest.param(0.2, marks=ITEM_2), 0.5]
)
def test_soundness_on_eps_spread(eps, n):
    p, q = uniform_pmf(n), spread_pmf(n, eps, seed=n)
    assert abs(l1_distance(p, q) - eps) <= 1e-9
    _, hi = wilson_of(p, q, eps)
    assert hi <= 0.40, f"eps-spread accepted with Wilson upper bound {hi:.3f}"
