"""The benchmark's workloads: inputs made from the seed, one measured pass,
and the correctness gate for its outputs.

Every workload drives cumskew from outside, through the public functions
of its modules or through the `cumskew` command line.  A pass returns one
output per operation; the first pass of a run is checked against the
references in reference.py and every later pass must reproduce it byte
for byte.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import reference as ref

CHILD_TIMEOUT_S = 170


class Workload:
    name = ""
    n = 0                  # sample size that per-function metrics refer to
    ops = 1                # program operations per pass
    warmup = True          # run one unmeasured pass first (in-process caches)

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self, seed: int, workdir: str):
        """Make the inputs from the seed; must be deterministic."""
        raise NotImplementedError

    def run(self, api, state, tracer=None) -> list:
        """One pass; returns one output per operation."""
        raise NotImplementedError

    def canonical(self, outputs: list) -> list[bytes]:
        return [repr(o).encode() for o in outputs]

    def check(self, api, state, outputs: list) -> list[tuple[int, str]]:
        """Reference check of one pass: (operation index, failure) pairs."""
        raise NotImplementedError

    def reps(self, state) -> int:
        """Samples scored (CS evaluations) per pass."""
        raise NotImplementedError

    def peak_rss_mb(self, state) -> float:
        """Peak resident memory of the processes doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def values(self, state) -> int:
        """Sample values taken through the CS computation per pass."""
        raise NotImplementedError


def _regenerate(api, spec, base_seed: int, reps: int) -> list[np.ndarray]:
    """Samples of an uncontaminated condition, redrawn through the public
    stream API: replication r draws from RngStream(base_seed,
    derive_stream_id(condition id, r))."""
    d, e = api.distributions, api.experiments
    return [d.draw_sample(spec.distribution,
                          d.RngStream(base_seed, e.derive_stream_id(spec.id, rep)),
                          spec.n).values
            for rep in range(1, reps + 1)]


def _exact_subset(api, samples, picks, tag) -> list[str]:
    """Exact rational CS on a seeded subset of samples, against both the
    fsum reference and cumskew's per-sample report."""
    bad = []
    for k in picks:
        x = samples[k]
        exact = float(ref.cs_exact(x))
        if abs(exact - ref.cs_fsum(x)) > 1e-12:
            bad.append(f"{tag} rep {k + 1}: fsum reference {ref.cs_fsum(x)!r} != exact {exact!r}")
        got = api.core.skew_report(api.core.validate_sample(x)).cs
        if abs(got - exact) > ref.CS_TOL:
            bad.append(f"{tag} rep {k + 1}: skew_report cs {got!r} != exact {exact!r}")
    return bad


class McNullJobs2(Workload):
    """run_null for normal(0,1) and Cauchy with a two-process pool."""

    name = "mc-null-jobs2"
    ops = 2

    def __init__(self, n: int = 100, reps: int = 2000, jobs: int = 2):
        self.n = n
        self.reps_per_condition = reps
        self.jobs = jobs

    def params(self):
        return {"n": self.n, "reps_per_condition": self.reps_per_condition,
                "conditions": ["normal(0,1)", "cauchy"], "jobs": self.jobs}

    def setup(self, seed, workdir):
        return {"seed": seed}

    def dists(self, api):
        spec = api.distributions.DistributionSpec
        return [spec.normal(0.0, 1.0), spec.cauchy()]

    def run(self, api, state, tracer=None):
        return [api.experiments.run_null(dist, self.n, self.reps_per_condition,
                                         state["seed"], jobs=self.jobs)
                for dist in self.dists(api)]

    def check(self, api, state, outputs):
        picker = np.random.default_rng([state["seed"], 2])
        bad = []
        for k, (res, dist) in enumerate(zip(outputs, self.dists(api))):
            spec = api.experiments.ConditionSpec(res.id, dist, self.n, self.reps_per_condition)
            samples = _regenerate(api, spec, state["seed"], spec.reps)
            fails = _exact_subset(api, samples,
                                  picker.choice(spec.reps, 2, replace=False), res.id)
            fails += ref.check_null_condition(res, self.n, spec.reps, state["seed"],
                                              ref.condition_reference(samples))
            bad += [(k, f) for f in fails]
        return bad

    def reps(self, state):
        return 2 * self.reps_per_condition

    def peak_rss_mb(self, state):
        # this process plus the largest forked worker, once per worker
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return super().peak_rss_mb(state) + self.jobs * child

    def values(self, state):
        return 2 * self.reps_per_condition * self.n


def write_csv(path: str, columns: dict[str, np.ndarray]) -> None:
    """Comma-separated file with a header, floats in shortest round-trip form."""
    names = list(columns)
    data = np.column_stack([columns[k] for k in names])
    fmt = ",".join(["{!r}"] * len(names)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(data), 100_000):
            fh.write("".join(fmt.format(*row) for row in data[start:start + 100_000].tolist()))


class CliLargeCsv(Workload):
    """Concurrent clients, each running `cumskew compute` on a large
    two-column CSV and then `cumskew lorenz --svg` on a smaller one, every
    command in its own interpreter."""

    name = "cli-large-csv"
    warmup = False          # every pass starts fresh processes, as users do

    def __init__(self, rows: int = 200_000, lorenz_rows: int = 50_000, clients: int = 2):
        self.n = rows
        self.lorenz_rows = lorenz_rows
        self.clients = clients
        self.ops = 2 * clients

    def params(self):
        return {"compute_rows": self.n, "lorenz_rows": self.lorenz_rows,
                "clients": self.clients, "columns": ["x", "y"],
                "distribution": "lognormal(0,1)"}

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        x = rng.lognormal(size=self.n)
        big = os.path.join(workdir, "compute.csv")
        write_csv(big, {"x": x, "y": rng.lognormal(size=self.n)})
        lx = np.random.default_rng([seed, 4]).lognormal(size=self.lorenz_rows)
        small = os.path.join(workdir, "lorenz.csv")
        write_csv(small, {"x": lx})
        return {"seed": seed, "workdir": workdir, "compute_csv": big, "x": x,
                "lorenz_csv": small, "lx": lx, "child_hwm_mb": 0.0}

    def commands(self, state, client: int):
        tsv = os.path.join(state["workdir"], f"lorenz{client}.tsv")
        svg = os.path.join(state["workdir"], f"lorenz{client}.svg")
        return [
            (["compute", state["compute_csv"], "--column", "x", "--format", "json"], []),
            (["lorenz", state["lorenz_csv"], "--out", tsv, "--svg", svg], [tsv, svg]),
        ]

    def run(self, api, state, tracer=None):
        parent = tracer.stack[-1] if tracer is not None and tracer.stack else None

        def client(k):
            if parent is not None:
                tracer.stack.append(parent)
            outputs, hwm = [], 0.0
            for args, files in self.commands(state, k):
                for path in files:
                    if os.path.exists(path):
                        os.remove(path)
                code, out, mb = run_cli(api.root, args, tracer)
                hwm = max(hwm, mb)
                texts = [out]
                for path in files:
                    try:
                        with open(path, encoding="utf-8") as fh:
                            texts.append(fh.read())
                    except OSError:
                        texts.append("")
                outputs.append((code, *texts))
            return outputs, hwm

        with ThreadPoolExecutor(self.clients) as pool:
            per_client = list(pool.map(client, range(self.clients)))
        state["child_hwm_mb"] = max(state["child_hwm_mb"], *(h for _, h in per_client))
        return [o for outputs, _ in per_client for o in outputs]

    def canonical(self, outputs):
        return ["\0".join(map(str, o)).encode() for o in outputs]

    def check(self, api, state, outputs):
        """Client 0 against the references; the others must match it."""
        (c_code, c_out), (l_code, _, tsv, svg) = outputs[:2]
        bad = []
        if c_code != 0:
            bad.append((0, f"compute exited {c_code}"))
        else:
            bad += [(0, f) for f in ref.check_compute_json(c_out, state["x"])]
        if l_code != 0:
            bad.append((1, f"lorenz exited {l_code}"))
        else:
            n = self.lorenz_rows
            picks = sorted(np.random.default_rng([state["seed"], 5]).choice(
                np.arange(1, n), min(50, n - 1), replace=False).tolist())
            bad += [(1, f) for f in ref.check_lorenz_tsv(tsv, state["lx"], picks)]
            bad += [(1, f) for f in ref.check_svg(svg, n)]
        for k in range(2, len(outputs)):
            if outputs[k] != outputs[k % 2]:
                bad.append((k, f"client {k // 2} output differs from client 0"))
        return bad

    def reps(self, state):
        return self.clients

    def values(self, state):
        return self.clients * (self.n + self.lorenz_rows)

    def peak_rss_mb(self, state):
        # the largest peak a CLI process reported for itself, once per client
        return self.clients * state["child_hwm_mb"]


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], env: dict, capture: bool = False) -> tuple[int, str, str]:
    """Run a child process to its end; returns its exit code, stdout and
    stderr (empty unless captured).

    It waits with a blocking waitpid and kills the child from a timer after
    CHILD_TIMEOUT_S: subprocess's own timeout makes the wait poll in steps
    of up to 50 ms, which would quantise every timing that includes it.
    """
    pipe = subprocess.PIPE if capture else None
    proc = subprocess.Popen(cmd, env=env, stdout=pipe, stderr=pipe, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, out or "", err or ""


def run_cli(root: str, args: list[str], tracer=None) -> tuple[int, str, float]:
    """Run `cumskew <args>` through cli_child.py in a fresh interpreter.

    Returns the exit code, stdout, and the process's own peak resident
    memory in MB.  Traced, the child records spans around the CLI's calls
    and writes them where `tracer.collect_dumps()` picks them up after the
    pass.
    """
    env = cli_env(root)
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                        "cli_child.py"), *args]
    if tracer is None:
        code, out, err = run_child(cmd, env, capture=True)
    else:
        with tracer.span("cli.process", "cli", None) as sid:
            env["BENCH_SPAN_PARENT"] = str(sid)
            env["BENCH_SPAN_PASS"] = tracer.pass_id or ""
            env["BENCH_SPAN_DIR"] = tracer.dump_dir
            code, out, err = run_child(cmd, env, capture=True)
    tag, _, kb = (err.splitlines() or [""])[-1].partition(" ")
    return code, out, int(kb) / 1024 if tag == "bench-vmhwm-kb" else 0.0


WORKLOADS = {w.name: w for w in (McNullJobs2, CliLargeCsv)}
