"""cumskew benchmark.

    python3 benchmarks/run.py --workload mc-null-jobs2 --seed 1 --trace 0
    python3 benchmarks/run.py --workload all --seed 1
    python3 benchmarks/run.py --compare base.jsonl new.jsonl

Run from the repository root: the program is imported from ./src, and CLI
commands run in fresh interpreters with ./src on PYTHONPATH.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics, or with --trace 1 the
per-layer ones.  Each run measures for run_seconds of BENCHMARK.json;
--seconds is accepted because the run protocol passes that value, and any
other value is refused.  --record appends that object, with its
provenance, to a JSON-lines file that --compare reads.  See
benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOAD_NAMES = ("mc-null-jobs2", "cli-large-csv")


def _parse(argv):
    p = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="must equal run_seconds of BENCHMARK.json, the measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the result and its provenance to this JSONL file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="compare two recorded result sets")
    return p.parse_args(argv)


def _config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_one(args, seconds) -> int:
    import harness
    from workloads import WORKLOADS
    try:
        prog = harness.Program(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"benchmark: cannot load the program: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]()
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root)
    try:
        run = harness.traced if args.trace else harness.measure
        metrics, outcome, lines = run(prog, wl, args.seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov = harness.provenance(ROOT, wl, args.seed, seconds, bool(args.trace))
    for message in outcome.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    if metrics is None:
        print("benchmark: no pass completed", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value!r} {unit}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"provenance": prov, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory is per workload."""
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.splitlines()
        print("\n".join(out[:-1]), flush=True)
        if proc.returncode != 0 or not out:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        summary[name] = json.loads(out[-1])
        status |= 0 if summary[name]["correct"] else 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        import compare
        return compare.main(args.compare[0], args.compare[1], _config())
    if args.workload != "all" and args.workload not in WORKLOAD_NAMES:
        print(f"benchmark: --workload must be one of {', '.join(WORKLOAD_NAMES)} or all",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "cumskew", "__init__.py")):
        print(f"benchmark: no cumskew package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    seconds = _config()["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"benchmark: --seconds must be run_seconds of BENCHMARK.json ({seconds})",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
