"""Command-line surface: one subcommand per analysis.

Each ``cmd_*`` returns what it computed: a dict for a JSON result, or the
text of a CSV or DOT document; ``verify-theorem2`` and ``octopus --verify``
also return whether their check passed.  ``dispatch`` alone writes output.
A JSON result gets the run configuration as its first key, ``config``, and
goes to stdout or to ``--out``.  A CSV or DOT document goes to stdout, or to
``--out`` with ``{"config", "written"}`` echoed to stdout, since the file has
no place for the configuration.

Exit codes: 0 success, 2 invalid flags or inputs (an output path that cannot
be written included), 3 a verification check failed, 4 a resource cap was
exceeded.  A report whose check fails (exit 3) is written as a passing one
is; every other failure prints a machine-readable JSON diagnostic to stderr
and nothing to stdout.

A ``cmd_*`` imports the module it runs (``exact_dp``, ``chain``,
``montecarlo`` or ``bounds``) after checking its inputs, so parsing,
``--help`` and invalid input load none of them, and ``bounds`` and rational
``simplex`` load no numpy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import channel, serialize
from .channel import ResourceCapError, log_of, make_channel
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
        try:
            return StrategyRule(kind="fixed", fixed_query=int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"strategy {text!r}: {exc}") from None
    if text.startswith("table:"):
        return load_table(text.split(":", 1)[1])
    raise ValueError(f"unknown strategy {text!r}")


def _error_result(ch, n: int, strategy: str, pe) -> dict:
    """The fields that ``exact`` and ``bellman`` share: P_e at horizon n and its exponent."""
    return {
        "p": ch.p,
        "n": n,
        "strategy": strategy,
        "mode": ch.arithmetic,
        "p_e": pe,
        "exponent": (-log_of(pe) / n) if n else None,
    }


def cmd_bounds(args) -> dict | str:
    chans = [make_channel(lit, args.mode) for lit in args.p.split(",")]
    from . import bounds
    if args.format == "json":
        if len(chans) != 1:
            raise ValueError("json format takes a single --p literal")
        return {"report": bounds.bound_report(chans[0], args.n)}
    reports = [bounds.bound_report(ch, args.n) for ch in chans]
    return serialize.csv_text([
        {"p": float(r.p), "n": r.n, "f_fb": r.f_fb, "e2": r.e2, "e3": r.e3,
         "upper": r.upper, "lower": r.lower}
        for r in reports
    ])


def cmd_exact(args) -> dict:
    ch = make_channel(args.p, args.mode)
    rule = _parse_strategy(args.strategy)
    from . import exact_dp
    pe = exact_dp.forward_error_prob(args.n, ch, rule)
    return _error_result(ch, args.n, args.strategy, pe)


def cmd_bellman(args) -> dict:
    if args.state_cap < 1:
        raise ValueError(f"--state-cap must be at least 1, got {args.state_cap}")
    ch = make_channel(args.p, args.mode)
    from . import exact_dp
    pe, table = exact_dp.bellman_optimum(args.n, ch, state_cap=args.state_cap)
    unique, two_way, three_way = table.tie_counts()
    return _error_result(ch, args.n, "optimal", pe) | {
        "argmax_summary": {
            "states": unique + two_way + three_way,
            "unique": unique,
            "two_way_tie": two_way,
            "three_way_tie": three_way,
            "tie_tolerance": table.tie_tolerance,
        },
    }


def cmd_verify_theorem2(args) -> tuple[dict, bool]:
    ch = make_channel(args.p, args.mode)
    from . import exact_dp
    report = exact_dp.optimal_query_report(args.n, ch, detail=args.detail)
    return {"report": report}, report["overall"]["all_member"]


def cmd_octopus(args) -> dict | str | tuple[dict, bool]:
    if args.verify and args.format == "dot":
        raise ValueError("--verify needs --format json: DOT output has no place for the verdict report")
    ch = make_channel(args.p, args.mode)
    from . import chain
    table = chain.derive_transitions(ch, args.depth)
    if args.format == "dot":
        return chain.export_dot(table)
    result = {"table": chain.table_to_json(table)}
    if not args.verify:
        return result
    result["verification"] = verdicts = chain.verify_reference_transitions(ch)
    return result, verdicts["all_match"]


def cmd_paths(args) -> dict:
    ch = make_channel(args.p, args.mode)
    loops = args.series == "loops"
    from . import chain
    # an exact restricted series cannot fail, and its sum can outlast the capped pass
    first = ch.exact and args.variant == "restricted" and args.n >= 2
    reach = chain.reach_prob(args.n, ch) if first else None
    value, comps = chain.path_series(args.n, ch, loops, args.variant)
    log_of(value)  # positive for n >= 2: raises if a double underflowed to 0.0
    if not first:
        reach = chain.reach_prob(args.n, ch)
    log_of(reach)
    exceeds = None
    if loops and args.variant == "closed-form":
        # the divisibility relaxation lets the closed form exceed the exact return probability
        bound = chain.closed_form_loop_bound_exact(args.n, ch) if ch.exact else value
        exceeds = bound > reach
    return {
        "n": args.n,
        "series": args.series,
        "variant": args.variant,
        "value": value,
        "return_probability": reach,
        "closed_form_exceeds_exact": exceeds,
        "compositions": comps,
    }


def cmd_simulate(args) -> dict:
    if args.dump_count < 0:
        raise ValueError(f"--dump-count must be non-negative, got {args.dump_count}")
    ch = make_channel(args.p, "float")
    rule = _parse_strategy(args.strategy)
    from . import montecarlo
    stats = montecarlo.run_trials(
        args.n, ch, rule, trials=args.trials, seed=args.seed, workers=args.workers
    )
    lo, hi = stats.confidence_interval()
    result = {"stats": stats, "estimate": stats.estimate, "ci99": [lo, hi]}
    if args.dump_trajectories:
        count = min(args.dump_count, args.trials)
        records = montecarlo.trajectory_records(args.n, ch, rule, args.seed, count)
        with open(args.dump_trajectories, "w") as fh:
            fh.writelines(map(serialize.dumps_line, records))
        result["trajectory_dump"] = {"path": args.dump_trajectories, "count": count}
    return result


def cmd_simplex(args) -> dict:
    ch = make_channel(args.p, args.mode)
    from . import bounds
    return {"report": bounds.simplex_event_report(args.n, ch, method=args.method)}


def cmd_sweep(args) -> str:
    ch = make_channel(args.p, args.mode)
    rule = "optimal" if args.strategy == "optimal" else _parse_strategy(args.strategy)
    from . import exact_dp
    return serialize.csv_text([
        {"n": n, "p": float(ch.p), "pe": float(pe), "exponent": exp}
        for n, pe, exp in exact_dp.error_curve(ch, rule, args.n_max)
    ])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fblab",
        description="Exact analysis lab for three-message feedback transmission over a BSC",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, summary, n="--n", mode=True, **n_kw):
        """A subcommand with --p, the horizon flag ``n`` (None: none), --mode and --out,
        in that order."""
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        sp.add_argument("--p", required=True, help='crossover probability, "a/b" or decimal')
        if n:
            n_kw = {"required": True, "help": "horizon (channel uses)"} | n_kw
            sp.add_argument(n, type=int, **n_kw)
        if mode:
            sp.add_argument("--mode", choices=["rational", "float"], default="rational")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        return sp

    sp = add("bounds", cmd_bounds, "closed-form exponents and bounds (csv: --p takes a comma list)",
             required=False)
    sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = add("exact", cmd_exact, "forward error probability of a strategy")
    sp.add_argument("--strategy", default="max-posterior")

    sp = add("bellman", cmd_bellman, "optimal error by backward induction")
    # channel.STATE_CAP read at each build, as every program reads it at its call
    sp.add_argument("--state-cap", type=int, default=channel.STATE_CAP)

    sp = add("verify-theorem2", cmd_verify_theorem2, "check fewest-votes queries are optimal")
    sp.add_argument("--detail", action="store_true", help="emit one verdict row per state")

    sp = add("octopus", cmd_octopus, "derive and check the strategy's Markov chain", n=None)
    sp.add_argument("--depth", type=int, default=6, help="tentacle depth bound")
    sp.add_argument("--verify", action="store_true", help="compare with the reference tables")
    sp.add_argument("--format", choices=["json", "dot"], default="json")

    sp = add("paths", cmd_paths, "return-path series and compositions")
    sp.add_argument("--series", choices=["basic", "loops"], default="loops")
    sp.add_argument("--variant", choices=["restricted", "closed-form"], default="restricted")

    sp = add("simulate", cmd_simulate, "Monte Carlo estimate with a fixed seed", mode=False)
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

    sp = add("simplex", cmd_simplex, "equal-likelihood event of the simplex code")
    sp.add_argument("--method", choices=["block-sum", "enumeration"], default="block-sum")

    sp = add("sweep", cmd_sweep, "error curve over a horizon range (CSV)", n="--n-max",
             help="largest horizon")
    sp.add_argument("--strategy", default="max-posterior", help="a strategy or 'optimal'")

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
        result, passed = result if isinstance(result, tuple) else (result, True)
        head = {"config": {k: v for k, v in sorted(vars(args).items()) if k != "func"}}
        text = result if isinstance(result, str) else serialize.dumps(head | result)
        if not args.out:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text, newline="")
            if isinstance(result, str):  # a CSV or DOT file has no place for the configuration
                sys.stdout.write(serialize.dumps(head | {"written": args.out}))
        return EXIT_OK if passed else EXIT_CHECK_FAILED
    except ResourceCapError as exc:
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
