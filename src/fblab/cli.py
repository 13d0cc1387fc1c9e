"""Command-line surface: one subcommand per analysis, file emission.

Exit codes: 0 success, 2 invalid flags or inputs (an output path that cannot
be written included), 3 a verification check failed, 4 a resource cap was
exceeded.  Failures print a machine-readable JSON diagnostic to stderr.
Every JSON result embeds its full run configuration; CSV files carry only
their fixed contracted header, so the configuration goes to stdout when such
a file is written.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import chain, exact_dp, montecarlo, serialize
from .channel import make_channel
from .strategy import MAX_POSTERIOR, StrategyRule, load_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3
EXIT_RESOURCE = 4


def _parse_strategy(text: str) -> StrategyRule:
    if text == "max-posterior":
        return MAX_POSTERIOR
    if text == "round-robin":
        return StrategyRule(kind="round-robin")
    if text.startswith("fixed:"):
        return StrategyRule(kind="fixed", fixed_query=int(text.split(":", 1)[1]))
    if text.startswith("table:"):
        return load_table(text.split(":", 1)[1])
    raise ValueError(f"unknown strategy {text!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, newline="")
    else:
        sys.stdout.write(text)


def _config(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _channels(args) -> list:
    return [make_channel(lit, args.mode) for lit in args.p.split(",")]


def cmd_bounds(args) -> int:
    chans = _channels(args)
    if args.format == "json":
        if len(chans) != 1:
            raise ValueError("json format takes a single --p literal")
        report = bounds_mod.bound_report(chans[0], args.n)
        _emit(serialize.dumps({"config": _config(args), "report": report}), args.out)
        return EXIT_OK
    rows = []
    for ch in chans:
        r = bounds_mod.bound_report(ch, args.n)
        rows.append([float(r.p), r.n, r.f_fb, r.e2, r.e3, r.upper, r.lower])
    _emit(serialize.csv_text(serialize.BOUNDS_HEADER, rows), args.out)
    if args.out:
        sys.stdout.write(serialize.dumps({"config": _config(args), "written": args.out}))
    return EXIT_OK


def cmd_exact(args) -> int:
    ch = make_channel(args.p, args.mode)
    rule = _parse_strategy(args.strategy)
    pe = exact_dp.forward_error_prob(args.n, ch, rule)
    result = {
        "config": _config(args),
        "p": ch.p,
        "n": args.n,
        "strategy": args.strategy,
        "mode": ch.arithmetic,
        "p_e": pe,
        "exponent": (-exact_dp.log_of(pe) / args.n) if args.n else None,
    }
    _emit(serialize.dumps(result), args.out)
    return EXIT_OK


def cmd_bellman(args) -> int:
    if args.state_cap < 1:
        raise ValueError(f"--state-cap must be at least 1, got {args.state_cap}")
    ch = make_channel(args.p, args.mode)
    pe, table = exact_dp.bellman_optimum(args.n, ch, state_cap=args.state_cap)
    unique, two_way, three_way = table.tie_counts()
    result = {
        "config": _config(args),
        "p": ch.p,
        "n": args.n,
        "strategy": "optimal",
        "mode": ch.arithmetic,
        "p_e": pe,
        "exponent": (-exact_dp.log_of(pe) / args.n) if args.n else None,
        "argmax_summary": {
            "states": unique + two_way + three_way,
            "unique": unique,
            "two_way_tie": two_way,
            "three_way_tie": three_way,
            "tie_tolerance": table.tie_tolerance,
        },
    }
    _emit(serialize.dumps(result), args.out)
    return EXIT_OK


def cmd_verify_theorem2(args) -> int:
    ch = make_channel(args.p, args.mode)
    report = exact_dp.optimal_query_report(args.n, ch, detail=args.detail)
    _emit(serialize.dumps({"config": _config(args), "report": report}), args.out)
    return EXIT_OK if report["overall"]["all_member"] else EXIT_CHECK_FAILED


def cmd_octopus(args) -> int:
    if args.verify and args.format == "dot":
        raise ValueError("--verify needs --format json: DOT output has no place for the verdict report")
    ch = make_channel(args.p, args.mode)
    table = chain.derive_transitions(ch, args.depth)
    if args.format == "dot":
        _emit(chain.export_dot(table), args.out)
        return EXIT_OK
    result = {
        "config": _config(args),
        "table": chain.table_to_json(table),
    }
    status = EXIT_OK
    if args.verify:
        verdicts = chain.verify_reference_transitions(ch)
        result["verification"] = verdicts
        if not verdicts["all_match"]:
            status = EXIT_CHECK_FAILED
    _emit(serialize.dumps(result), args.out)
    return status


def cmd_paths(args) -> int:
    ch = make_channel(args.p, args.mode)
    loops = args.series == "loops"
    value, comps = chain.path_series(args.n, ch, loops, args.variant)
    exact_dp.log_of(value)  # positive for n >= 2: raises if a double underflowed to 0.0
    reach = chain.reach_prob(args.n, ch)
    exact_dp.log_of(reach)
    exceeds = None
    if loops and args.variant == "closed-form":
        # the divisibility relaxation lets the closed form exceed the exact return probability
        bound = chain.closed_form_loop_bound_exact(args.n, ch) if ch.exact else value
        exceeds = bound > reach
    result = {
        "config": _config(args),
        "n": args.n,
        "series": args.series,
        "variant": args.variant,
        "value": value,
        "return_probability": reach,
        "closed_form_exceeds_exact": exceeds,
        "compositions": comps,
    }
    _emit(serialize.dumps(result), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.dump_count < 0:
        raise ValueError(f"--dump-count must be non-negative, got {args.dump_count}")
    ch = make_channel(args.p, "float")
    rule = _parse_strategy(args.strategy)
    stats = montecarlo.run_trials(
        args.n, ch, rule, trials=args.trials, seed=args.seed, workers=args.workers
    )
    lo, hi = stats.confidence_interval()
    result = {
        "config": _config(args),
        "stats": stats,
        "estimate": stats.estimate,
        "ci99": [lo, hi],
    }
    if args.dump_trajectories:
        count = min(args.dump_count, args.trials)
        records = montecarlo.trajectory_records(args.n, ch, rule, args.seed, count)
        lines = [serialize.dumps_line(rec) for rec in records]
        Path(args.dump_trajectories).write_text("".join(lines))
        result["trajectory_dump"] = {"path": args.dump_trajectories, "count": count}
    _emit(serialize.dumps(result), args.out)
    return EXIT_OK


def cmd_simplex(args) -> int:
    ch = make_channel(args.p, args.mode)
    report = bounds_mod.simplex_event_report(args.n, ch, method=args.method)
    _emit(serialize.dumps({"config": _config(args), "report": report}), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    ch = make_channel(args.p, args.mode)
    rule = "optimal" if args.strategy == "optimal" else _parse_strategy(args.strategy)
    rows = exact_dp.error_curve(ch, rule, args.n_max)
    csv_rows = [[n, float(ch.p), float(pe), exp] for n, pe, exp in rows]
    _emit(serialize.csv_text(serialize.SWEEP_HEADER, csv_rows), args.out)
    if args.out:
        sys.stdout.write(serialize.dumps({"config": _config(args), "written": args.out}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fblab",
        description="Exact analysis lab for three-message feedback transmission over a BSC",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, n_flag=True):
        sp.add_argument("--p", required=True, help='crossover probability, "a/b" or decimal')
        if n_flag:
            sp.add_argument("--n", type=int, required=True, help="horizon (channel uses)")
        sp.add_argument("--mode", choices=["rational", "float"], default="rational")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")

    sp = sub.add_parser("bounds", help="closed-form exponents and bounds")
    sp.add_argument("--p", required=True, help="probability literal, or comma list for csv")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--mode", choices=["rational", "float"], default="rational")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("exact", help="forward error probability of a strategy")
    common(sp)
    sp.add_argument("--strategy", default="max-posterior")
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("bellman", help="optimal error by backward induction")
    common(sp)
    sp.add_argument("--state-cap", type=int, default=exact_dp.STATE_CAP)
    sp.set_defaults(func=cmd_bellman)

    sp = sub.add_parser("verify-theorem2", help="check fewest-votes queries are optimal")
    common(sp)
    sp.add_argument("--detail", action="store_true", help="emit one verdict row per state")
    sp.set_defaults(func=cmd_verify_theorem2)

    sp = sub.add_parser("octopus", help="derive and check the strategy's Markov chain")
    common(sp, n_flag=False)
    sp.add_argument("--depth", type=int, default=6, help="tentacle depth bound")
    sp.add_argument("--verify", action="store_true", help="compare with the reference tables")
    sp.add_argument("--format", choices=["json", "dot"], default="json")
    sp.set_defaults(func=cmd_octopus)

    sp = sub.add_parser("paths", help="return-path series and compositions")
    common(sp)
    sp.add_argument("--series", choices=["basic", "loops"], default="loops")
    sp.add_argument("--variant", choices=["restricted", "closed-form"], default="restricted")
    sp.set_defaults(func=cmd_paths)

    sp = sub.add_parser("simulate", help="Monte Carlo estimate with a fixed seed")
    sp.add_argument("--p", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, default=20220301)
    sp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count; checked and echoed, but every trial runs in one batch loop "
        "in one process: no parallelism, same result",
    )
    sp.add_argument("--strategy", default="max-posterior")
    sp.add_argument("--dump-trajectories", default=None, help="JSON-lines path for episode records")
    sp.add_argument("--dump-count", type=int, default=100, help="bound on dumped episodes")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("simplex", help="equal-likelihood event of the simplex code")
    common(sp)
    sp.add_argument("--method", choices=["block-sum", "enumeration"], default="block-sum")
    sp.set_defaults(func=cmd_simplex)

    sp = sub.add_parser("sweep", help="error curve over a horizon range (CSV)")
    sp.add_argument("--p", required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--mode", choices=["rational", "float"], default="rational")
    sp.add_argument("--strategy", default="max-posterior", help="a strategy or 'optimal'")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sweep)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except exact_dp.ResourceCapError as exc:
        sys.stderr.write(serialize.dumps({"error": "resource-cap", "detail": str(exc)}))
        return EXIT_RESOURCE
    except ArithmeticError as exc:
        sys.stderr.write(serialize.dumps({"error": "check-failed", "detail": str(exc)}))
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        # an OSError is an output path that cannot be written; it names the path
        sys.stderr.write(serialize.dumps({"error": "invalid-input", "detail": str(exc)}))
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
