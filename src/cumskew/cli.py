"""Command-line interface: compute, experiment, lorenz.

Exit codes: 0 on success, 1 for data and ingestion problems, 2 for bad
usage or configuration.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .core import lorenz_grid, raw_lorenz_grid, skew_report, weight_vector
from .errors import CumskewError
from .io import (
    format_sig,
    parse_csv,
    run_metadata,
    write_rows_csv,
    write_rows_json,
    write_rows_tsv,
)
from .svg import lorenz_svg

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2


class UsageError(Exception):
    pass


@contextmanager
def _output(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _contamination_label(plan) -> str:
    if plan is None:
        return "none"
    lo, hi = plan.magnitude_range
    return f"{plan.side} k={plan.count_min}..{plan.count_max} mag={lo:g}..{hi:g}xmax"


def cmd_compute(args) -> int:
    sample = parse_csv(args.path, args.column)
    report = skew_report(sample)
    meta = run_metadata("compute", input=str(args.path))
    row = {
        "n": report.n,
        "cs": report.cs,
        "b1": report.b1,
        "gini": report.gini,
        "cs_bound": report.cs_bound,
        "degenerate": report.degenerate,
    }
    with _output(args.out) as fh:
        if args.format == "json":
            write_rows_json(fh, [row], meta)
        else:
            trimmed = {k: format_sig(v) if isinstance(v, float) else v
                       for k, v in row.items()}
            write_rows_csv(fh, [trimmed], meta)
    return EXIT_OK


def _condition_rows(results, conditions, seed):
    rows = []
    for res, spec in zip(results, conditions, strict=True):
        dist = spec.distribution
        rows.append({
            "id": res.id,
            "sigma": dist.sigma if dist.kind in ("normal", "lognormal") else "",
            "contamination": _contamination_label(spec.contamination),
            "n": spec.n,
            "reps": res.reps,
            "seed": seed,
            "b1_ave": res.b1_ave,
            "b1_se": res.b1_se,
            "cs_ave": res.cs_ave,
            "cs_se": res.cs_se,
            "degenerate_count": res.degenerate_count,
        })
    return rows


def cmd_experiment(args) -> int:
    # imported here, so that compute and lorenz never load the samplers,
    # the harness or its process pool
    from .distributions import DistributionSpec
    from .experiments import ConditionSpec, run_gcurve, run_null, run_table1, table1_conditions

    name = args.name
    if args.sigma is not None and name != "null-normal":
        raise UsageError("--sigma only applies to the null-normal experiment")
    if args.reps is not None and name == "gcurve":
        raise UsageError("gcurve draws one sample per sd; --reps does not apply")
    if args.reps is not None and args.reps < 1:
        raise UsageError("--reps must be >= 1")
    if args.n is not None and args.n < 2:
        raise UsageError("--n must be >= 2")
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    seed = args.seed

    if name == "table1":
        n = args.n or 200
        reps = args.reps or 10_000
        results = run_table1(seed, n=n, reps=reps, jobs=args.jobs)
        rows = _condition_rows(results, table1_conditions(n=n, reps=reps), seed)
        meta = run_metadata("experiment table1", seed=seed, n=n, reps=reps)
    elif name in ("null-normal", "null-cauchy"):
        n = args.n or 100
        reps = args.reps or 100_000
        if name == "null-normal":
            dist = DistributionSpec.normal(0.0, args.sigma if args.sigma is not None else 1.0)
        else:
            dist = DistributionSpec.cauchy()
        result = run_null(dist, n=n, reps=reps, base_seed=seed, jobs=args.jobs)
        rows = _condition_rows([result], [ConditionSpec(result.id, dist, n, reps)], seed)
        meta = run_metadata(f"experiment {name}", seed=seed, n=n, reps=reps)
    else:  # gcurve
        n = args.n or 100_000
        points = run_gcurve(n=n, base_seed=seed)
        rows = [{"id": "gcurve", "g": pt.g, "sd": pt.sd, "n": pt.n,
                 "seed": seed, "cs": pt.cs} for pt in points]
        meta = run_metadata("experiment gcurve", seed=seed, n=n, loc=0.0,
                            g_grid="0.1..1.5 step 0.1", sds="1,3")

    with _output(args.out) as fh:
        if args.format == "json":
            write_rows_json(fh, rows, meta)
        else:
            write_rows_csv(fh, rows, meta)
    return EXIT_OK


def cmd_lorenz(args) -> int:
    sample = parse_csv(args.path, args.column)
    try:
        grid = raw_lorenz_grid(sample)
    except ValueError:  # the classical curve needs a positive total
        grid = lorenz_grid(sample)
    columns = {
        "i": range(1, grid.n),
        "p": grid.p.tolist(),
        "q": grid.q.tolist(),
        "d": grid.d.tolist(),
        "w": weight_vector(grid.n).tolist(),
    }
    with _output(args.out) as fh:
        # the curve's end points (0,0) and (1,1) have no weight
        write_rows_tsv(fh, columns, first=(0, 0.0, 0.0, 0.0, ""),
                       last=(grid.n, 1.0, 1.0, 0.0, ""))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(lorenz_svg(grid))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cumskew",
        description="Outlier-robust skewness from Lorenz-curve gaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="skewness report for one CSV column")
    c.add_argument("path", help="CSV file with the data")
    c.add_argument("--column", help="column name or 0-based index (default: first)")
    c.add_argument("--format", choices=["csv", "json"], default="csv")
    c.add_argument("--out", help="write here instead of stdout")
    c.set_defaults(func=cmd_compute)

    e = sub.add_parser("experiment", help="run a built-in Monte Carlo experiment")
    e.add_argument("name", choices=["table1", "null-normal", "null-cauchy", "gcurve"])
    e.add_argument("--seed", type=int, default=42, help="base seed (default 42)")
    e.add_argument("--reps", type=int, help="replications per condition")
    e.add_argument("--n", type=int, help="sample size per replication")
    e.add_argument("--sigma", type=float, help="normal sd (null-normal only)")
    e.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1; output is identical)")
    e.add_argument("--format", choices=["csv", "json"], default="csv")
    e.add_argument("--out", help="write here instead of stdout")
    e.set_defaults(func=cmd_experiment)

    l = sub.add_parser("lorenz", help="Lorenz grid as TSV, optionally SVG")
    l.add_argument("path", help="CSV file with the data")
    l.add_argument("--column", help="column name or 0-based index (default: first)")
    l.add_argument("--svg", help="also render the curve to this SVG file")
    l.add_argument("--out", help="write the TSV here instead of stdout")
    l.set_defaults(func=cmd_lorenz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"cumskew: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CumskewError, OSError) as exc:
        print(f"cumskew: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
