"""The benchmark's workloads: inputs made from a seed, one op, and its checks.

An op is one call the benchmark makes into idtest and times. A trial is one
tester run (``identity_test``) or one comparator run (``coarse_compare``);
an op holds one or more trials. Ops come in fixed rounds whose inputs depend
only on the workload seed and the op's position in the round, so every
round of a run, traced or not, must produce exactly the same counts.

Why each workload exists, and which layer metrics it should and should not
move, is tabled in README.md next to this file.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from idtest import bucketing, distributions, harness, io, tester
from idtest.coarse import CASE1, CASE2

EPS = 0.5
STAGES = (tester.STAGE_NONE, tester.STAGE_COARSE, tester.STAGE_MOMENT)


def derive(seed: int, *path: int) -> int:
    """A 32-bit seed for (workload seed, path), independent across paths."""
    return int(np.random.SeedSequence((seed, *path)).generate_state(1)[0])


@dataclass
class OpResult:
    """What one op did, as counted from the program's outputs."""

    trials: int = 0
    wrong: int = 0  # trials whose decision disagrees with the oracle
    q_samples: int = 0
    p_queries: int = 0
    distinct: int = 0  # distinct p-indices, as tester verdicts report them
    errors: int = 0  # 1 when the op raised
    stages: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)  # failed output checks

    def counts(self) -> dict:
        """The counts a repeated round must reproduce exactly."""
        out = {
            name: getattr(self, name)
            for name in ("trials", "wrong", "q_samples", "p_queries", "distinct", "errors")
        }
        out.update((f"stage.{s}", self.stages[s]) for s in STAGES)
        return out

    def add_verdict(self, v, distance: float) -> None:
        self.trials += 1
        self.wrong += (v.decision == tester.DECISION_ACCEPT) != (distance == 0.0)
        self.q_samples += v.q_samples_used
        self.p_queries += v.p_queries_used
        self.distinct += v.distinct_p_queried
        self.stages[v.stage] += 1
        self.problems.extend(check_verdict(v))


def check_verdict(v) -> list[str]:
    """Consistency of one tester verdict with its own phase sizes."""
    problems = []
    if (v.decision == tester.DECISION_ACCEPT) != (v.stage == tester.STAGE_NONE):
        problems.append(f"decision {v.decision} with stage {v.stage}")
    s = v.sizes
    want_q = s["m1"] + s["s1"] + (0 if v.stage == tester.STAGE_COARSE else s["S"])
    if v.q_samples_used != want_q:
        problems.append(f"q_samples_used {v.q_samples_used} != phase sizes {want_q}")
    if not s["m1"] + s["s1"] + s["s2"] <= v.p_queries_used <= s["m1"] + s["s1"] + s["s2"] + s["S"]:
        problems.append(f"p_queries_used {v.p_queries_used} outside the phase sizes")
    if v.distinct_p_queried > v.p_queries_used:
        problems.append("more distinct p-indices than p-queries")
    return problems


class _CountingPmf:
    """Pass-through pmf that counts indices looked up (for the comparator)."""

    def __init__(self, pmf):
        self._pmf = pmf
        self.queries = 0

    @property
    def n(self) -> int:
        return self._pmf.n

    def lookup(self, indices):
        self.queries += int(np.size(indices))
        return self._pmf.lookup(indices)


class HarnessTap:
    """Records, for one op, the verdicts harness gets back from idtest.

    Replaces ``identity_test``, ``query_audit`` and ``coarse_compare`` in the
    harness namespace with recording pass-throughs; the values returned are
    untouched. Installed around each op, traced or not.
    """

    def __enter__(self):
        self.verdicts, self.audits, self.comparisons = [], 0, []
        self._saved = {
            name: getattr(harness, name)
            for name in ("identity_test", "query_audit", "coarse_compare")
        }
        identity_test = self._saved["identity_test"]
        query_audit = self._saved["query_audit"]
        coarse_compare = self._saved["coarse_compare"]

        def tap_identity_test(*args, **kwargs):
            v = identity_test(*args, **kwargs)
            self.verdicts.append(v)
            return v

        def tap_query_audit(*args, **kwargs):
            report = query_audit(*args, **kwargs)
            self.audits += 1
            return report

        def tap_coarse_compare(source, p, scheme, config, rng):
            counted = _CountingPmf(p)
            before = source.draws
            v = coarse_compare(source, counted, scheme, config, rng)
            self.comparisons.append((v.case, source.draws - before, counted.queries))
            return v

        harness.identity_test = tap_identity_test
        harness.query_audit = tap_query_audit
        harness.coarse_compare = tap_coarse_compare
        return self

    def __exit__(self, *exc):
        for name, value in self._saved.items():
            setattr(harness, name, value)
        return False


class Workload:
    """A workload: ``setup`` is timed, ``op(state, i)`` runs op i of a round."""

    name: str
    round_size: int  # ops a round
    min_ops: int  # ops a run measures at least
    setup_repeats: int  # set-ups timed; setup_s is their median

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self) -> None:
        """Write input files (untimed)."""

    def check_setup(self, state) -> list[str]:
        """Problems found in the set-up's outputs."""
        return []


class Single1M(Workload):
    """n = 2^20, uniform p read from a binary pmf file, q = p: one test per op."""

    name = "single-1m"
    n = 2**20
    round_size = 5
    min_ops = 100  # so that ten latencies lie beyond p90
    setup_repeats = 5

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.path = workdir / "uniform-2p20.pmf"
        self.config = tester.TesterConfig(eps=EPS, master_seed=derive(seed, 1))

    def prepare(self) -> None:
        self.instance = harness.make_instance("identical-uniform", self.n, derive(self.seed, 0))
        io.write_pmf(self.path, self.instance.p, binary=True)

    def setup(self):
        p = io.read_pmf(self.path)
        return p, distributions.AliasSampler(self.instance.q, derive(self.seed, 2))

    def check_setup(self, state) -> list[str]:
        if distributions.l1_distance(state[0], self.instance.p) != 0.0:
            return ["the pmf read back differs from the pmf written"]
        return []

    def op(self, state, i: int) -> OpResult:
        p, sampler = state
        stream = sampler.spawn(np.random.SeedSequence((self.seed, 3, i)))
        v = tester.identity_test(p, stream, self.config, trial_index=i)
        audit = tester.query_audit(v, p.n, self.config)
        out = OpResult()
        out.add_verdict(v, self.instance.distance)
        if not audit.ok:
            out.problems.append("query audit not ok")
        if v.q_samples_used != stream.draws:
            out.problems.append(
                f"verdict counts {v.q_samples_used} samples, the stream gave {stream.draws}"
            )
        return out


class MonteCarlo400(Workload):
    """run_trials at n = 400, 30 trials a call, one call per instance kind per op.

    Each op passes over all four kinds, so ops are alike and their latency
    percentiles do not jump between the kinds' different per-call times.
    """

    name = "mc-400"
    n = 400
    trials = 30  # run_trials' minimum
    kinds = (
        ("identical-uniform", {}),
        ("zipf-pair", {"a": 1.0}),
        ("eps-perturbed", {"eps": EPS}),
        ("random-half", {}),
    )
    round_size = 2
    min_ops = 100
    setup_repeats = 51

    config = tester.TesterConfig(eps=EPS)

    def setup(self):
        # make_instance confirms each advertised distance with the exact oracle
        return [
            harness.make_instance(kind, self.n, derive(self.seed, 4, j), **params)
            for j, (kind, params) in enumerate(self.kinds)
        ]

    def op(self, instances, i: int) -> OpResult:
        out = OpResult()
        for j, inst in enumerate(instances):
            with HarnessTap() as tap:
                rep = harness.run_trials(
                    inst, self.config, self.trials, derive(self.seed, 5, i, j), jobs=1
                )
            q_before = out.q_samples
            for v in tap.verdicts:
                out.add_verdict(v, inst.distance)
            accepts = sum(v.decision == tester.DECISION_ACCEPT for v in tap.verdicts)
            if len(tap.verdicts) != self.trials or tap.audits != self.trials:
                out.problems.append(
                    f"{inst.kind}: {len(tap.verdicts)} verdicts and {tap.audits} audits"
                    f" for {self.trials} trials"
                )
            if rep.trials != self.trials or rep.accepts != accepts or not rep.audits_ok:
                out.problems.append(f"{inst.kind}: trial report disagrees with its verdicts")
            q_used = out.q_samples - q_before
            if abs(rep.mean_q_samples * self.trials - q_used) > 1e-6 * q_used:
                out.problems.append(f"{inst.kind}: mean_q_samples disagrees with its verdicts")
        return out


class Comparator400(Workload):
    """lemma_check(400, 0.1): five comparator runs per op, exact-oracle gated."""

    name = "comparator-400"
    n = 400
    delta = 0.1
    lemma_trials = 2  # one run per Case 1 shape and per Case 2 shape
    round_size = 2
    min_ops = 0
    setup_repeats = 51

    def setup(self):
        """The Case 2 families lemma_check builds, and their exact bucket l1.

        Same construction as lemma_check: zipf base, delta/2 moved from the
        heaviest light bucket into the heaviest heavy bucket, and into the
        second heaviest light bucket. Each must clear the delta gate.
        """
        scheme = bucketing.build_scheme(self.n, harness.LEMMA_SCHEME_EPS, harness.LEMMA_SCHEME_C)
        zipf = distributions.zipf_pmf(self.n)
        masses = bucketing.exact_bucket_masses(scheme, zipf)
        heavy = int(np.argmax(masses[scheme.j_star:]) + scheme.j_star)
        donor, light = (int(j) for j in np.argsort(masses[: scheme.j_star])[::-1][:2])
        bucket_l1 = {}
        for shape, receiver in (("shift-into-heavy", heavy), ("shift-light-to-light", light)):
            q = harness.shifted_bucket_pair(zipf, scheme, self.delta / 2, donor, receiver)
            q_masses = bucketing.exact_bucket_masses(scheme, zipf, weight_pmf=q)
            bucket_l1[shape] = float(np.abs(masses - q_masses).sum())
            if bucket_l1[shape] < self.delta - 1e-9:
                raise AssertionError(f"{shape}: bucket l1 {bucket_l1[shape]} below delta")
        return scheme, bucket_l1

    def op(self, state, i: int) -> OpResult:
        scheme, case2_l1 = state
        with HarnessTap() as tap:
            rep = harness.lemma_check(
                self.n, self.delta, trials=self.lemma_trials,
                master_seed=derive(self.seed, 6, i), include_gap=False, jobs=1,
            )
        out = OpResult()
        want = [CASE1] * rep["case1"]["trials"] + [CASE2] * rep["case2"]["trials"]
        got = [case for case, _, _ in tap.comparisons]
        out.trials = len(got)
        out.wrong = sum(g != w for g, w in zip(got, want))
        out.q_samples = sum(q for _, q, _ in tap.comparisons)
        out.p_queries = sum(p for _, _, p in tap.comparisons)
        if len(got) != len(want):
            out.problems.append(f"{len(got)} comparator runs for {len(want)} trials")
        successes = rep["case1"]["successes"] + rep["case2"]["successes"]
        if successes != len(want) - out.wrong:
            out.problems.append("lemma_check successes disagree with its comparator runs")
        if rep["k"] != scheme.k or rep["j_star"] != scheme.j_star:
            out.problems.append("lemma_check used another bucket scheme")
        if any(v != 0.0 for v in rep["case1"]["bucket_l1"].values()):
            out.problems.append("a Case 1 shape has nonzero bucket l1")
        if rep["case2"]["bucket_l1"] != case2_l1:
            out.problems.append("Case 2 bucket l1 disagrees with the exact oracle")
        return out


WORKLOADS = {w.name: w for w in (Single1M, MonteCarlo400, Comparator400)}
