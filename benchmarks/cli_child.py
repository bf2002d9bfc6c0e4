"""Run `cumskew <args>` the way `python -m cumskew` does, and report the
process's own peak resident memory.

Started by the cli-large-csv workload for every CLI command.  The last
line it writes to stderr is `bench-vmhwm-kb <n>`: VmHWM of this process,
which, unlike the kernel's per-child maximum that the parent could read,
does not include the parent's resident size at exec.

With $BENCH_SPAN_DIR set (traced passes) it also times `import
cumskew.cli`, installs the span wrappers, and writes its spans to that
directory; root spans are parented to $BENCH_SPAN_PARENT.
"""

import os
import sys

HWM_TAG = "bench-vmhwm-kb"


def _vm_hwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _traced(argv, span_dir: str) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans

    tracer = spans.Tracer(span_dir)
    tracer.stack.append(int(os.environ["BENCH_SPAN_PARENT"]))
    tracer.pass_id = os.environ.get("BENCH_SPAN_PASS") or None
    with tracer.span("cli.import", "cli"):
        import cumskew
        import cumskew.cli
    from cumskew import cli, core, distributions, experiments, io, svg
    modules = {"core": core, "distributions": distributions, "experiments": experiments,
               "io": io, "svg": svg, "cli": cli, "package": cumskew}
    try:
        with spans.instrumented(tracer, modules), tracer.span("cli.main", "cli"):
            return cli.main(argv)
    finally:
        tracer.dump(None)


def main() -> int:
    span_dir = os.environ.get("BENCH_SPAN_DIR")
    try:
        if span_dir:
            return _traced(sys.argv[1:], span_dir)
        import cumskew.cli
        return cumskew.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(f"{HWM_TAG} {_vm_hwm_kb()}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
