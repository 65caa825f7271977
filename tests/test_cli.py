"""CLI behaviour: exit codes, JSON output, file handling, determinism."""

import ast
import contextlib
import dataclasses
import io
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idtest
from idtest.cli import main
from idtest.io import PMF_MAGIC, read_pmf
from idtest.tester import TesterConfig, plan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_uniform_pmf_file(tmp_path, n, name="p.pmf"):
    from idtest.distributions import uniform_pmf
    from idtest.io import write_pmf

    path = tmp_path / name
    write_pmf(path, uniform_pmf(n))
    return path


class TestGenerate:
    def test_identical_uniform(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "identical-uniform", "--n", "10", "--seed", "1",
            "--prefix", str(tmp_path / "u"),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["l1_distance"] == 0.0
        p = read_pmf(payload["pmf_p"])
        assert np.allclose(p.probs, 0.1)

    def test_random_half_distance_one(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "random-half", "--n", "1024", "--seed", "3",
            "--prefix", str(tmp_path / "h"),
        )
        assert code == 0
        assert json.loads(out)["l1_distance"] == pytest.approx(1.0)

    def test_eps_perturbed_distance(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "eps-perturbed", "--n", "100", "--eps", "0.3",
            "--seed", "5", "--prefix", str(tmp_path / "e"),
        )
        assert code == 0
        assert abs(json.loads(out)["l1_distance"] - 0.3) <= 1e-12

    def test_round_trip_identical_floats(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "zipf-pair", "--n", "50", "--seed", "2",
            "--prefix", str(tmp_path / "z"),
        )
        payload = json.loads(out)
        a = read_pmf(payload["pmf_p"])
        b = read_pmf(payload["pmf_q"])
        from idtest.distributions import zipf_pmf

        assert np.array_equal(a.probs, zipf_pmf(50).probs)
        assert np.array_equal(a.probs, b.probs)

    def test_binary_flag(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "zipf-pair", "--n", "64", "--seed", "2",
            "--prefix", str(tmp_path / "zb"), "--binary",
        )
        payload = json.loads(out)
        from idtest.distributions import zipf_pmf

        assert np.array_equal(read_pmf(payload["pmf_p"]).probs, zipf_pmf(64).probs)

    def test_samples_written(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "random-half", "--n", "64", "--seed", "4",
            "--prefix", str(tmp_path / "s"), "--samples", "500",
        )
        payload = json.loads(out)
        lines = open(payload["samples"]).read().splitlines()
        assert len(lines) == 500
        assert all(1 <= int(x) <= 64 for x in lines)

    def test_missing_eps_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "generate", "eps-perturbed", "--n", "10", "--seed", "1",
            "--prefix", str(tmp_path / "x"),
        )
        assert code == 2
        assert "eps" in err

    def test_seed_recorded_when_omitted(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "identical-uniform", "--n", "8",
            "--prefix", str(tmp_path / "r"),
        )
        assert code == 0
        assert isinstance(json.loads(out)["seed"], int)


@pytest.mark.parametrize(
    "callee, argv",
    [
        ("generate_instance",
         ["generate", "identical-uniform", "--n", "100000000000", "--seed", "1"]),
        ("scaling_experiment",
         ["bench", "--n-grid", "1000000000000", "--eps", "0.5", "--seed", "1"]),
    ],
)
def test_allocation_failure_exits_two(monkeypatch, tmp_path, capsys, callee, argv):
    # exit 1 means reject: a failed allocation is an input error, exit 2
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(f"idtest.cli.{callee}", fail)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: Unable to allocate 745. GiB for an array\n"


class TestTest:
    def test_self_accepts(self, tmp_path, capsys):
        pmf = make_uniform_pmf_file(tmp_path, 1024)
        code, out, _ = run_cli(
            capsys, "test", "--pmf", str(pmf), "--q", "self",
            "--eps", "0.5", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "accept"
        assert payload["seed"] == 7
        assert payload["audit"]["ok"]

    def test_q_pmf_far_rejects(self, tmp_path, capsys):
        pmf = make_uniform_pmf_file(tmp_path, 1024)
        code, out, _ = run_cli(
            capsys, "generate", "random-half", "--n", "1024", "--seed", "3",
            "--prefix", str(tmp_path / "h"),
        )
        qfile = json.loads(out)["pmf_q"]
        code, out, _ = run_cli(
            capsys, "test", "--pmf", str(pmf), "--q-pmf", qfile,
            "--eps", "0.5", "--seed", "7",
        )
        assert code == 1
        assert json.loads(out)["decision"] == "reject"

    def test_q_file_rejects(self, tmp_path, capsys):
        pmf = make_uniform_pmf_file(tmp_path, 1024)
        code, out, _ = run_cli(
            capsys, "generate", "random-half", "--n", "1024", "--seed", "3",
            "--prefix", str(tmp_path / "hf"), "--samples", "40000",
        )
        samples = json.loads(out)["samples"]
        code, out, _ = run_cli(
            capsys, "test", "--pmf", str(pmf), "--q-file", samples,
            "--eps", "0.5", "--seed", "7",
        )
        assert code == 1

    def test_exhausted_sample_file_is_input_error(self, tmp_path, capsys):
        pmf = make_uniform_pmf_file(tmp_path, 1024)
        short = tmp_path / "short.samples"
        short.write_text("\n".join(["1"] * 10) + "\n")
        code, _, err = run_cli(
            capsys, "test", "--pmf", str(pmf), "--q-file", str(short),
            "--eps", "0.5", "--seed", "7",
        )
        assert code == 2
        assert "remain" in err

    def test_q_file_of_the_collision_sample_is_enough(self, tmp_path, capsys):
        # a uniform p skips the coarse stage, so a run reads S samples, not
        # m1 + s1 + S; one fewer exhausts the file
        pmf = make_uniform_pmf_file(tmp_path, 1024)
        S = plan(1024, TesterConfig(eps=0.5)).S
        draws = np.random.default_rng(5).integers(1, 1025, size=S)
        for count, want in ((S, {0, 1}), (S - 1, {2})):
            samples = tmp_path / f"q{count}.samples"
            samples.write_text("\n".join(map(str, draws[:count])) + "\n")
            code, out, err = run_cli(
                capsys, "test", "--pmf", str(pmf), "--q-file", str(samples),
                "--eps", "0.5", "--seed", "7",
            )
            assert code in want
            if code == 2:
                assert err.startswith(f"error: needed {S} samples")
            else:
                payload = json.loads(out)
                assert payload["q_samples_used"] == S
                assert payload["coarse"] is None

    def test_malformed_pmf_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.pmf"
        bad.write_text("0.5\n0.25\noops\n0.25\n")
        code, _, err = run_cli(
            capsys, "test", "--pmf", str(bad), "--q", "self",
            "--eps", "0.5", "--seed", "1",
        )
        assert code == 2
        assert "line 3" in err

    def test_truncated_binary_pmf_is_input_error(self, tmp_path, capsys):
        from idtest.distributions import uniform_pmf
        from idtest.io import write_pmf

        trunc = tmp_path / "trunc.pmf"
        write_pmf(trunc, uniform_pmf(64), binary=True)
        trunc.write_bytes(trunc.read_bytes()[:-3])
        code, _, err = run_cli(
            capsys, "test", "--pmf", str(trunc), "--q", "self",
            "--eps", "0.5", "--seed", "1",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_no_q_source_is_usage_error(self, tmp_path, capsys):
        pmf = make_uniform_pmf_file(tmp_path, 16)
        code, _, err = run_cli(
            capsys, "test", "--pmf", str(pmf), "--eps", "0.5", "--seed", "1"
        )
        assert code == 2
        assert "q source" in err

    def test_two_q_sources_is_usage_error(self, tmp_path, capsys):
        pmf = make_uniform_pmf_file(tmp_path, 16)
        code, out, err = run_cli(
            capsys, "test", "--pmf", str(pmf), "--q", "self", "--q-pmf", str(pmf),
            "--eps", "0.5", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "exactly one q source" in err

    def test_amplified_trials(self, tmp_path, capsys):
        pmf = make_uniform_pmf_file(tmp_path, 256)
        code, out, _ = run_cli(
            capsys, "test", "--pmf", str(pmf), "--q", "self",
            "--eps", "0.5", "--seed", "11", "--trials", "3",
        )
        assert code == 0
        assert json.loads(out)["config"]["trials_for_amplification"] == 3

    def test_out_file_equals_stdout(self, tmp_path, capsys):
        pmf = make_uniform_pmf_file(tmp_path, 256)
        dest = tmp_path / "verdict.json"
        code, out, _ = run_cli(
            capsys, "test", "--pmf", str(pmf), "--q", "self", "--eps", "0.5",
            "--seed", "3", "--out", str(dest),
        )
        assert code == 0
        assert dest.read_bytes() == out.encode()


class TestOracle:
    def test_l1(self, tmp_path, capsys):
        a = make_uniform_pmf_file(tmp_path, 16, "a.pmf")
        code, out, _ = run_cli(
            capsys, "generate", "random-half", "--n", "16", "--seed", "1",
            "--prefix", str(tmp_path / "o"),
        )
        b = json.loads(out)["pmf_q"]
        code, out, _ = run_cli(capsys, "oracle", "l1", str(a), b)
        assert code == 0
        assert json.loads(out)["l1_distance"] == pytest.approx(1.0)

    def test_buckets(self, tmp_path, capsys):
        pmf = make_uniform_pmf_file(tmp_path, 1024)
        code, out, _ = run_cli(
            capsys, "oracle", "buckets", str(pmf), "--eps", "0.5", "--C", "100"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 1668
        assert payload["j_star"] == 973
        assert payload["masses_sum"] == pytest.approx(1.0)
        # uniform pmf occupies exactly one bucket
        assert list(payload["masses_nonzero"].values()) == [pytest.approx(1.0)]


class TestBench:
    def test_two_point_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--n-grid", "256,1024", "--eps", "0.5",
            "--seed", "1", "--trials-per-point", "1", "--no-timing",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,q_samples,p_queries")
        assert len([l for l in lines if not l.startswith("#")]) == 3  # header + 2
        assert lines[-1].startswith("# slope_total=")

    def test_wall_slope_only_with_timing(self, capsys):
        argv = ("bench", "--n-grid", "256,1024", "--eps", "0.5", "--seed", "1",
                "--trials-per-point", "1")
        _, timed, _ = run_cli(capsys, *argv)
        _, untimed, _ = run_cli(capsys, *argv, "--no-timing")
        assert " slope_wall=" in timed.strip().splitlines()[-1]
        assert "slope_wall" not in untimed

    def test_singleton_grid_no_fit(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--n-grid", "512", "--eps", "0.5",
            "--seed", "1", "--trials-per-point", "1", "--no-timing",
        )
        assert code == 0
        assert "no fit" in out.strip().splitlines()[-1]

    def test_repeated_n_grid_no_fit_no_warning(self, capsys):
        # two points at one n fix no slope; polyfit on them warns RankWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(
                capsys, "bench", "--n-grid", "16,16", "--eps", "0.5",
                "--seed", "1", "--no-timing",
            )
        assert code == 0
        assert out.strip().splitlines()[-1] == "# one distinct n, no fit; seed=1"

    def test_empty_grid_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--n-grid", ",", "--eps", "0.5", "--seed", "1"
        )
        assert code == 2

    def test_empty_grid_names_the_grid(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--n-grid", ",", "--eps", "0.5")
        assert (code, out, err) == (2, "", "error: empty n grid\n")

    def test_out_file_equals_stdout(self, tmp_path, capsys):
        dest = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--n-grid", "256,1024", "--eps", "0.5", "--seed", "1",
            "--trials-per-point", "1", "--no-timing", "--out", str(dest),
        )
        assert code == 0
        assert dest.read_bytes() == out.encode()


class TestLemmaCheckCommand:
    def test_small_run_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "lemma-check", "--n", "100", "--delta", "0.4",
            "--trials", "45", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["case1"]["rate"] >= 0.8
        assert payload["case2"]["rate"] >= 0.8


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        pmf = make_uniform_pmf_file(tmp_path, 256)
        argv = ["test", "--pmf", str(pmf), "--q", "self", "--eps", "0.5", "--seed", "9"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_generate_byte_identical(self, tmp_path, capsys):
        argv = [
            "generate", "random-half", "--n", "32", "--seed", "5",
            "--prefix", str(tmp_path / "g"),
        ]
        _, out1, _ = run_cli(capsys, *argv)
        files1 = (tmp_path / "g-p.pmf").read_bytes(), (tmp_path / "g-q.pmf").read_bytes()
        _, out2, _ = run_cli(capsys, *argv)
        files2 = (tmp_path / "g-p.pmf").read_bytes(), (tmp_path / "g-q.pmf").read_bytes()
        assert out1 == out2
        assert files1 == files2


TEST_ARGS = ["test", "--pmf", "{pmf}", "--q", "self", "--eps", "0.5"]
EPS_ARGS = ["test", "--pmf", "{pmf}", "--q", "self", "--seed", "1", "--eps"]
# each --eps guard and the message it gives on the 16-element pmf: more
# than MAX_K buckets, a plan above MAX_BUDGET, and TesterConfig's check
EPS_GUARDS = {
    "0.001": "need more than 1000000 buckets",
    "0.0015": "m1 + s1 + s2 + S = 1.51e+07 samples",
    "nan": "eps must be a finite number",
    "inf": "eps must be a finite number",
    "0": "eps must be in (0, 2]",
    "2.5": "eps must be in (0, 2]",
    "-1": "eps must be in (0, 2]",
}


@pytest.mark.parametrize(
    "argv",
    [
        TEST_ARGS + ["--seed", "-1"],
        TEST_ARGS + ["--seed", "1", "--trials", "0"],
        TEST_ARGS + ["--seed", "1", "--trials", "2"],
        TEST_ARGS + ["--seed", "1", "--trials", "-1"],
        ["bench", "--n-grid", "256", "--eps", "0.5", "--seed", "1",
         "--trials-per-point", "0"],
        ["lemma-check", "--n", "100", "--delta", "0.4", "--trials", "0", "--seed", "1"],
        *(EPS_ARGS + [eps] for eps in EPS_GUARDS),
        ["bench", "--n-grid", "256", "--eps", "0.0015", "--seed", "1"],
        ["bench", "--n-grid", "256", "--eps", "0.001", "--seed", "1"],
        ["bench", "--n-grid", "256", "--eps", "nan", "--seed", "1"],
        ["bench", "--n-grid", "256", "--eps", "0", "--seed", "1"],
        ["oracle", "buckets", "{pmf}", "--eps", "0.5", "--C", "inf"],
        ["oracle", "buckets", "{pmf}", "--eps", "0.5", "--C", "1e12"],
        ["bench", "--n-grid", "256,x", "--eps", "0.5", "--seed", "1"],
        ["lemma-check", "--n", "10000", "--delta", "0.01", "--seed", "1"],
        ["lemma-check", "--n", "400", "--delta", "1e-300", "--seed", "1"],
    ]
    + [
        ["lemma-check", "--n", str(n), "--delta", "0.1", "--trials", "3", "--seed", "1"]
        for n in range(2, 10)
    ],
    ids=["seed-negative", "trials-zero", "trials-two", "trials-negative",
         "trials-per-point-zero", "lemma-trials-zero",
         "eps-over-max-k", "eps-plan-over-cap", "eps-nan", "eps-inf",
         "eps-zero", "eps-over-two", "eps-negative",
         "bench-eps-plan-over-cap", "bench-eps-over-max-k", "bench-eps-nan",
         "bench-eps-zero", "oracle-C-inf", "oracle-C-1e12",
         "n-grid-not-int", "lemma-plan-over-cap", "lemma-plan-overflow"]
    + [f"lemma-check-n{n}" for n in range(2, 10)],
)
def test_bad_value_exits_two(tmp_path, capsys, argv):
    pmf = make_uniform_pmf_file(tmp_path, 16)
    code, out, err = run_cli(capsys, *(a.format(pmf=pmf) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    if argv[:-1] == EPS_ARGS:
        assert EPS_GUARDS[argv[-1]] in err


REMOVED_FLAGS = (["--mode", "faithful"], ["--C-prime", "4"], ["--gamma", "1"],
                 ["--budget-scale", "150"], ["--C", "100"], ["--c1", "64"],
                 ["--c2", "4"], ["--c3", "8"], ["--c4", "3"],
                 ["--calibration", "calibration.json"])


@pytest.mark.parametrize(
    "argv",
    [[*cmd, *flag] for cmd in (TEST_ARGS, ["bench", "--n-grid", "256", "--eps", "0.5"])
     for flag in REMOVED_FLAGS],
    ids=[f"{cmd}{flag[0]}" for cmd in ("test", "bench") for flag in REMOVED_FLAGS],
)
def test_removed_flags_are_usage_errors(tmp_path, capsys, argv):
    pmf = make_uniform_pmf_file(tmp_path, 16)
    with pytest.raises(SystemExit) as exc:
        main([a.format(pmf=pmf) for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_removed_calibrate_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--n", "16"])
    assert exc.value.code == 2
    assert "invalid choice: 'calibrate'" in capsys.readouterr().err


def test_config_has_exactly_three_fields():
    names = [f.name for f in dataclasses.fields(TesterConfig)]
    assert names == ["eps", "trials_for_amplification", "master_seed"]


@pytest.mark.parametrize("trials", ["1", "3"])
def test_config_echo_has_exactly_three_keys(tmp_path, capsys, trials):
    pmf = make_uniform_pmf_file(tmp_path, 64)
    code, out, _ = run_cli(capsys, *(a.format(pmf=pmf) for a in TEST_ARGS),
                           "--seed", "4", "--trials", trials)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["config"] == {"eps": 0.5, "trials_for_amplification": int(trials),
                                 "master_seed": 4}


@pytest.mark.parametrize(
    "module, name",
    [("idtest", "calibrate_constants"), ("idtest.harness", "calibrate_constants"),
     ("idtest.errors", "CalibrationFailed"), ("idtest.cli", "CONFIG_FLAGS"),
     ("idtest.cli", "cmd_calibrate")],
)
def test_removed_public_names_are_gone(module, name):
    import importlib

    assert not hasattr(importlib.import_module(module), name)


def test_package_exports_only_the_tester_and_its_inputs():
    import types

    public = {
        name for name, value in vars(idtest).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {
        "TesterConfig", "Verdict", "identity_test", "amplified_test", "query_audit",
        "ProbabilityVector", "validate_pmf", "SampleStream", "AliasSampler",
        "FileSampleStream",
    }


def test_oracle_buckets_default_C_is_the_tester_scheme(tmp_path, capsys):
    from idtest.tester import SCHEME_C

    pmf = make_uniform_pmf_file(tmp_path, 1024)
    base = ("oracle", "buckets", str(pmf), "--eps", "0.5")
    code, default_out, _ = run_cli(capsys, *base)
    assert code == 0
    assert json.loads(default_out)["C"] == SCHEME_C
    code, explicit_out, _ = run_cli(capsys, *base, "--C", str(SCHEME_C))
    assert (code, explicit_out) == (0, default_out)


def pmf_text(values):
    return "".join(f"{v!r}\n" for v in values).encode()


def pmf_binary(values, n_extra=0, cut=0):
    n_header = max(len(values) + n_extra, 0)
    raw = PMF_MAGIC + struct.pack("<Q", n_header) + struct.pack(f"<{len(values)}d", *values)
    return raw[: len(raw) - cut]


def samples_text(count, top):
    return "".join(f"{1 + i % top}\n" for i in range(count)).encode()


pmfs = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=64).map(
    lambda w: [x / sum(w) for x in w]
)
raw_values = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, -0.5, float("nan"), float("inf")])
    | st.floats(0.0, 1.0),
    min_size=1,
    max_size=64,
)
pmf_files = st.one_of(
    pmfs.map(pmf_text),
    pmfs.map(pmf_binary),
    raw_values.map(pmf_text),
    st.builds(
        pmf_binary,
        raw_values | pmfs,
        st.sampled_from([0, 1, -1, 2**40]),
        st.sampled_from([0, 1, 8, 13]),
    ),
    st.binary(max_size=80),
)
sample_files = st.builds(samples_text, st.integers(0, 4000), st.integers(1, 70))


# --eps values drawn by the fuzz test: valid ones, more often than not so
# that verdicts stay common, and edge values. 0, 2.5, nan and inf fail
# TesterConfig's checks; 0.0005 needs more than MAX_K buckets at every
# n <= 64. A plan above MAX_BUDGET is left to test_bad_value_exits_two:
# an eps that gives one at n = 16 plans 2-9 million samples at n <= 9.
eps_values = st.sampled_from(["0.5", "1", "2"] * 3 + ["0", "2.5", "nan", "inf", "0.0005"])
# --C values of the oracle fuzz: bad values and huge finite ones, for which
# build_scheme caps k
BAD_NUMBERS = ["0", "-1", "nan", "inf"]
HUGE_NUMBERS = ["1e12", "1e300"]
seeds = st.sampled_from(["1", "0", str(2**64), "1", "0", "-1"])


def fuzz_test_argv(draw, d):
    argv = ["test", "--pmf", str(d / "p.pmf"),
            "--eps", draw(eps_values), "--seed", draw(seeds)]
    argv += {"self": ["--q", "self"], "pmf": ["--q-pmf", str(d / "q")],
             "file": ["--q-file", str(d / "q")]}[draw(st.sampled_from(["self", "self", "pmf", "file"]))]
    trials = draw(st.sampled_from([None, "1", "3", None, "1", "3", "0", "2"]))
    if trials is not None:
        argv += ["--trials", trials]
    return argv


def fuzz_generate_argv(draw, d):
    argv = ["generate", draw(st.sampled_from(["identical-uniform", "random-half",
                                              "eps-perturbed", "zipf-pair"])),
            "--n", draw(st.sampled_from(["16", "15", "2", "1", "0", "-3"])),
            "--seed", draw(seeds), "--prefix", str(d / "g")]
    for flag, values in (("--eps", ["0.3", "1.9", "0", "2", "-1", "nan", "inf"]),
                         ("--a", ["1", "0", "-1", "nan", "inf"]),
                         ("--samples", ["5", "0", "-1"])):
        value = draw(st.sampled_from([None, None] + values))
        if value is not None:
            argv += [flag, value]
    return argv + draw(st.sampled_from([[], ["--binary"]]))


def fuzz_bench_argv(draw, d):
    grid = draw(st.lists(st.sampled_from(["16", "64", "2", "1", "0", "-4", "x", " "]),
                         min_size=1, max_size=2))
    return ["bench", "--n-grid=" + ",".join(grid), "--eps", draw(eps_values),
            "--seed", draw(seeds),
            "--trials-per-point", draw(st.sampled_from(["1", "0", "-1"])),
            "--no-timing"]


def fuzz_lemma_argv(draw, d):
    # valid deltas stay large, or tiny enough that the plan is refused: the
    # comparator runs uncapped
    return ["lemma-check",
            "--n", draw(st.sampled_from(["100", "100", "9", "2", "1", "0", "-1", "20000"])),
            "--delta", draw(st.sampled_from(["0.4", "0.6", "2", "0", "-1", "nan", "inf",
                                             "1e-300"])),
            "--trials", draw(st.sampled_from(["3", "1", "0", "-1"])),
            "--seed", draw(seeds)]


def fuzz_oracle_argv(draw, d):
    if draw(st.booleans()):
        return ["oracle", "l1", str(d / "p.pmf"), str(d / "q")]
    argv = ["oracle", "buckets", str(d / "p.pmf"),
            "--eps", draw(st.sampled_from(["0.5", "2", "0", "2.5", "nan", "inf"]))]
    c = draw(st.sampled_from([None, "100"] + BAD_NUMBERS + HUGE_NUMBERS))
    return argv + ([] if c is None else ["--C", c])


FUZZ_ARGV = {
    "test": fuzz_test_argv,
    "generate": fuzz_generate_argv,
    "bench": fuzz_bench_argv,
    "lemma-check": fuzz_lemma_argv,
    "oracle": fuzz_oracle_argv,
}


@given(
    data=st.data(),
    command=st.sampled_from(["test"] * 5 + sorted(FUZZ_ARGV)),
    p_bytes=pmf_files,
    q_bytes=pmf_files | sample_files | st.binary(max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_exit_code_fuzz(tmp_path_factory, data, command, p_bytes, q_bytes):
    # every input ends in a verdict (0 accept, 1 reject), in a result (0) or
    # in exit 2 with a message
    d = tmp_path_factory.mktemp("fuzz")
    (d / "p.pmf").write_bytes(p_bytes)
    (d / "q").write_bytes(q_bytes)
    argv = FUZZ_ARGV[command](data.draw, d)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert err.getvalue().startswith("error:")
    elif command == "test":
        assert json.loads(out.getvalue())["decision"] == ("accept", "reject")[code]
    else:
        assert code == 0 and out.getvalue()


class TestOptimizedMode:
    def test_no_assert_statements(self):
        # invariants must raise, so that they also hold under python -O
        src = Path(idtest.__file__).parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_dash_o_output_byte_identical(self, tmp_path):
        from idtest.distributions import zipf_pmf
        from idtest.io import write_pmf

        pmf = tmp_path / "z.pmf"
        write_pmf(pmf, zipf_pmf(256))
        env = {**os.environ, "PYTHONPATH": str(Path(idtest.__file__).parent.parent)}
        argv = ["-m", "idtest.cli", "test", "--pmf", str(pmf), "--q", "self",
                "--eps", "0.5", "--seed", "1"]
        plain, optimized = (
            subprocess.run([sys.executable, *flags, *argv], env=env,
                           capture_output=True, check=False)
            for flags in ([], ["-O"])
        )
        assert plain.returncode in (0, 1)
        assert plain.stdout and optimized.stdout == plain.stdout
        assert optimized.returncode == plain.returncode
