"""Command-line interface: compute, experiment, lorenz.

Exit codes: 0 on success, 1 for data and ingestion problems, 2 for bad
usage or configuration.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .core import _lorenz, skew_report
from .errors import CumskewError, InvalidParameter
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


@contextmanager
def _output(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write(args, rows: list[dict], meta: dict) -> None:
    with _output(args.out) as fh:
        if args.format == "json":
            write_rows_json(fh, rows, meta)
        else:
            write_rows_csv(fh, rows, meta)


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
    if args.format == "csv":
        row = {k: format_sig(v) if isinstance(v, float) else v for k, v in row.items()}
    _write(args, [row], meta)
    return EXIT_OK


def _condition_row(spec, result) -> dict:
    """The result row of the condition `spec`, from the result of running it."""
    dist, plan = spec.distribution, spec.contamination
    if plan is None:
        contamination = "none"
    else:
        lo, hi = plan.magnitude_range
        contamination = f"{plan.side} k={plan.count_min}..{plan.count_max} mag={lo:g}..{hi:g}xmax"
    return {
        "id": spec.id,
        "sigma": dist.sigma if dist.kind in ("normal", "lognormal") else "",
        "contamination": contamination,
        "n": spec.n,
        "reps": spec.reps,
        "seed": result.seed,
        "b1_ave": result.b1_ave,
        "b1_se": result.b1_se,
        "cs_ave": result.cs_ave,
        "cs_se": result.cs_se,
        "degenerate_count": result.degenerate_count,
    }


def cmd_experiment(args) -> int:
    """Run one built-in experiment and write its rows.

    The library owns each experiment's conditions, ids and default sizes,
    and the bounds of --sigma, --n, --reps and --jobs: only the options
    given are passed on, and the specs and runners raise InvalidParameter
    for a value out of range before any replication runs.  The g-curve's
    provenance (its loc, g grid and sds) is written from the library's
    DEFAULT_GCURVE_* constants, which run_gcurve runs with.  Checked here
    is only what no library call sees: which options apply to which
    experiment.
    """
    # imported here, so that compute and lorenz never load the samplers,
    # the harness or its process pool
    from .distributions import DistributionSpec
    from .experiments import DEFAULT_G_GRID, DEFAULT_GCURVE_LOC, DEFAULT_GCURVE_SDS
    from .experiments import _null_condition, run_condition, run_gcurve, table1_conditions

    name = args.name
    if args.sigma is not None and name != "null-normal":
        raise InvalidParameter("--sigma only applies to the null-normal experiment")
    if args.reps is not None and name == "gcurve":
        raise InvalidParameter("gcurve draws one sample per sd; --reps does not apply")
    seed = args.seed
    # an option left out takes the library's default; a given 0 does not
    sizes = {key: getattr(args, key) for key in ("n", "reps") if getattr(args, key) is not None}

    if name == "gcurve":
        points = run_gcurve(base_seed=seed, jobs=args.jobs, **sizes)
        rows = [{"id": "gcurve", "g": pt.g, "sd": pt.sd, "n": pt.n,
                 "seed": seed, "cs": pt.cs} for pt in points]
        g = DEFAULT_G_GRID
        meta = run_metadata("experiment gcurve", seed=seed, n=points[0].n, loc=DEFAULT_GCURVE_LOC,
                            g_grid=f"{g[0]:g}..{g[-1]:g} step {g[1] - g[0]:g}",
                            sds=",".join(f"{sd:g}" for sd in DEFAULT_GCURVE_SDS))
    else:
        if name == "table1":
            specs = table1_conditions(**sizes)
        else:
            sd = {} if args.sigma is None else {"sigma": args.sigma}
            dist = (DistributionSpec.normal(**sd) if name == "null-normal"
                    else DistributionSpec.cauchy())
            specs = [_null_condition(dist, **sizes)]
        rows = [_condition_row(spec, run_condition(spec, seed, jobs=args.jobs))
                for spec in specs]
        meta = run_metadata(f"experiment {name}", seed=seed, n=specs[0].n, reps=specs[0].reps)

    _write(args, rows, meta)
    return EXIT_OK


def cmd_lorenz(args) -> int:
    """Write the sample's Lorenz grid as TSV (`write_rows_tsv`), and with
    --svg as a picture too (`lorenz_svg`): the classical curve when the
    total is positive, else the canonical one."""
    sample = parse_csv(args.path, args.column)
    grid = _lorenz(sample, classical=None)
    del sample  # the grid holds its own rows
    with _output(args.out) as fh:
        write_rows_tsv(fh, grid)
    if args.svg:
        with _output(args.svg) as fh:
            lorenz_svg(grid, fh)
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
    except InvalidParameter as exc:
        print(f"cumskew: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CumskewError, OSError, MemoryError) as exc:
        # numpy names the allocation it could not make; a bare MemoryError names nothing
        print(f"cumskew: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
