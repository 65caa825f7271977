"""Command-line front end.

Subcommands: test, generate, bench, lemma-check, oracle. The tester is
set by --eps alone (and --trials on test); its sample-size constants are
fixed in tester.py. Exit codes: 0 accept, 1 reject, 2 usage or input
error, a failed allocation included. Every randomized subcommand takes
--seed; when omitted a fresh seed is generated and recorded in the output
so runs stay reproducible.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .bucketing import build_scheme, exact_bucket_masses
from .distributions import INSTANCE_KINDS, AliasSampler, generate_instance, l1_distance
from .errors import BadParams, IdTestError
from .harness import lemma_check, scaling_experiment
from .io import read_pmf, read_samples, write_pmf, write_samples
from .rng import TAG_Q_STREAM, fresh_seed, seed_sequence
from .tester import (
    DECISION_ACCEPT,
    SCHEME_C,
    TesterConfig,
    amplified_test,
    query_audit,
)


def _write(text: str, out_path=None) -> None:
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text)


def _emit(obj, out_path=None) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2) + "\n", out_path)


def _seed_of(args) -> int:
    if args.seed is None:
        return fresh_seed()
    if args.seed < 0:
        raise BadParams("--seed must be non-negative")
    return args.seed


def _number_list(text: str, kind, flag: str) -> list:
    try:
        return [kind(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise BadParams(f"{flag} needs comma-separated numbers, got {text!r}") from None


def cmd_test(args) -> int:
    if sum(s is not None for s in (args.q, args.q_pmf, args.q_file)) != 1:
        raise IdTestError("choose exactly one q source: --q self, --q-pmf, or --q-file")
    p = read_pmf(args.pmf)
    seed = _seed_of(args)
    config = TesterConfig(
        eps=args.eps, trials_for_amplification=args.trials, master_seed=seed
    )
    if args.q == "self":
        source = AliasSampler(p, seed_sequence(seed, TAG_Q_STREAM))
        q_desc = "self"
    elif args.q_pmf is not None:
        source = AliasSampler(read_pmf(args.q_pmf), seed_sequence(seed, TAG_Q_STREAM))
        q_desc = f"pmf:{args.q_pmf}"
    else:
        source = read_samples(args.q_file, p.n)
        q_desc = f"file:{args.q_file}"
    verdict = amplified_test(p, source, config)
    audit = query_audit(verdict, p.n, config)
    payload = verdict.to_dict()
    payload["q_source"] = q_desc
    payload["audit"] = asdict(audit)
    _emit(payload, args.out)
    return 0 if verdict.decision == DECISION_ACCEPT else 1


def cmd_generate(args) -> int:
    seed = _seed_of(args)
    params = {}
    if args.kind == "eps-perturbed":
        if args.eps is None:
            raise IdTestError("eps-perturbed needs --eps")
        params["eps"] = args.eps
    if args.kind == "zipf-pair" and args.a is not None:
        params["a"] = args.a
    p, q = generate_instance(args.kind, args.n, seed, **params)
    stem = args.prefix or f"{args.kind}-n{args.n}"
    p_path = args.out_p or f"{stem}-p.pmf"
    q_path = args.out_q or f"{stem}-q.pmf"
    write_pmf(p_path, p, binary=args.binary)
    write_pmf(q_path, q, binary=args.binary)
    payload = {
        "kind": args.kind,
        "n": args.n,
        "seed": seed,
        "params": params,
        "l1_distance": l1_distance(p, q),
        "pmf_p": str(p_path),
        "pmf_q": str(q_path),
    }
    if args.samples:
        sampler = AliasSampler(q, seed_sequence(seed, TAG_Q_STREAM))
        s_path = args.samples_out or f"{stem}-q.samples"
        write_samples(s_path, sampler.draw_many(args.samples))
        payload["samples"] = str(s_path)
        payload["samples_drawn"] = args.samples
    _emit(payload, args.out)
    return 0


def cmd_bench(args) -> int:
    seed = _seed_of(args)
    grid = _number_list(args.n_grid, int, "--n-grid")
    result = scaling_experiment(
        grid, args.eps, trials_per_point=args.trials_per_point, master_seed=seed
    )
    lines = ["n,q_samples,p_queries,wall_ms,budget,baseline_total"]
    for row in result["rows"]:
        wall = 0.0 if args.no_timing else row["wall_ms"]
        lines.append(
            f"{row['n']},{row['q_samples']:.1f},{row['p_queries']:.1f},"
            f"{wall:.3f},{row['budget']},{row['baseline_total']}"
        )
    if result["slope_total"] is not None:
        slope_wall = "" if args.no_timing else f" slope_wall={result['slope_wall']:.4f}"
        lines.append(
            f"# slope_total={result['slope_total']:.4f}"
            f" slope_baseline={result['slope_baseline']:.4f}{slope_wall} seed={seed}"
        )
    else:
        lines.append(f"# one distinct n, no fit; seed={seed}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_lemma_check(args) -> int:
    seed = _seed_of(args)
    report = lemma_check(
        args.n, args.delta, trials=args.trials, master_seed=seed, jobs=args.jobs
    )
    _emit(report, args.out)
    return 0


def cmd_oracle(args) -> int:
    if args.oracle_op == "l1":
        a, b = read_pmf(args.pmf_a), read_pmf(args.pmf_b)
        _emit({"l1_distance": l1_distance(a, b), "n": a.n}, args.out)
        return 0
    p = read_pmf(args.pmf_a)
    scheme = build_scheme(p.n, args.eps, args.c)
    masses = exact_bucket_masses(scheme, p)
    _emit(
        {
            "n": p.n,
            "eps": args.eps,
            "C": args.c,
            "k": scheme.k,
            "j_star": scheme.j_star,
            "j_star_degenerate": scheme.j_star_degenerate,
            "masses_nonzero": {
                int(j): float(m) for j, m in enumerate(masses) if m != 0.0
            },
            "masses_sum": float(masses.sum()),
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="idtest",
        description="Sublinear identity tester for discrete distributions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("test", help="test whether samples match a known pmf")
    sp.add_argument("--pmf", required=True, help="known distribution file")
    sp.add_argument("--q", choices=["self"], help="sample q from the known pmf itself")
    sp.add_argument("--q-pmf", help="sample q synthetically from another pmf file")
    sp.add_argument("--q-file", help="recorded q samples, one 1-indexed value per line")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--trials", type=int, default=1, help="odd amplification trial count")
    sp.add_argument("--out", help="also write the JSON verdict here")
    sp.add_argument("--eps", type=float, required=True, help="distance parameter")
    sp.set_defaults(func=cmd_test)

    sp = sub.add_parser("generate", help="write (p, q) instance files")
    sp.add_argument("kind", choices=INSTANCE_KINDS)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--eps", type=float, help="distance for eps-perturbed")
    sp.add_argument("--a", type=float, help="zipf exponent")
    sp.add_argument("--prefix", help="output filename stem")
    sp.add_argument("--out-p", dest="out_p")
    sp.add_argument("--out-q", dest="out_q")
    sp.add_argument("--samples", type=int, help="also pre-draw this many q samples")
    sp.add_argument("--samples-out", dest="samples_out")
    sp.add_argument("--binary", action="store_true", help="binary pmf files")
    sp.add_argument("--out", help="also write the JSON summary here")
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("bench", help="sample-complexity scaling experiment")
    sp.add_argument("--n-grid", required=True, help="comma-separated domain sizes")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--trials-per-point", type=int, default=3)
    sp.add_argument("--no-timing", action="store_true",
                    help="zero the wall_ms column for byte-stable output")
    sp.add_argument("--out", help="also write the CSV here")
    sp.add_argument("--eps", type=float, required=True, help="distance parameter")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("lemma-check", help="verify the coarse comparator contract")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--trials", type=int, default=300)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_lemma_check)

    sp = sub.add_parser(
        "oracle",
        help="exact O(n) oracles (the only commands allowed linear work)",
    )
    osub = sp.add_subparsers(dest="oracle_op", required=True)
    sl1 = osub.add_parser("l1", help="exact l1 distance between two pmf files (O(n))")
    sl1.add_argument("pmf_a")
    sl1.add_argument("pmf_b")
    sl1.add_argument("--out")
    sl1.set_defaults(func=cmd_oracle)
    sbk = osub.add_parser("buckets", help="exact bucket masses of a pmf (O(n))")
    sbk.add_argument("pmf_a")
    sbk.add_argument("--eps", type=float, required=True)
    sbk.add_argument("--C", dest="c", type=float, default=SCHEME_C,
                     help=f"bucket constant (default {SCHEME_C:g})")
    sbk.add_argument("--out")
    sbk.set_defaults(func=cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (IdTestError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
