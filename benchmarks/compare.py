"""Compare two result sets recorded with --record.

For each workload and end-to-end metric it prints the median and quartiles
of both sets and a verdict:

- regression: the new median is worse than the base median by more than
  the metric's bound;
- better: every new run reads better than every base run;
- unresolved: either set's spread (quartile distance over median) exceeds
  the bound;
- same otherwise.

Workloads whose two sets were recorded with different run lengths are
not compared.
"""

from __future__ import annotations

import json
import statistics


def load(path: str) -> tuple[dict, dict]:
    """({workload: {metric: [values]}}, {workload: {run seconds}}) from a
    JSON-lines result file."""
    out: dict = {}
    seconds: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            prov = rec["provenance"]
            if prov.get("traced"):
                continue
            seconds.setdefault(prov["workload"], set()).add(prov["seconds"])
            metrics = out.setdefault(prov["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out, seconds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if worse > bound:
        return "regression"
    if all_better:
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    return "same"


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(base_path: str, new_path: str, config: dict) -> int:
    (base, base_s), (new, new_s) = load(base_path), load(new_path)
    metrics = {m["name"]: m for m in config["end_to_end"]}
    status = 0
    print(f"{'workload':<16} {'metric':<14} {'base median [q1, q3]':<36} "
          f"{'new median [q1, q3]':<36} {'change':>8}  verdict")
    for wl in sorted(set(base) & set(new)):
        if len(base_s[wl] | new_s[wl]) > 1:
            print(f"{wl:<16} not compared: run lengths differ (base {sorted(base_s[wl])} s, "
                  f"new {sorted(new_s[wl])} s)")
            status = 1
            continue
        for name, spec in metrics.items():
            b, n = base[wl].get(name), new[wl].get(name)
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            v = verdict(b, n, spec["bound"], spec["better"])
            status |= v == "regression"
            print(f"{wl:<16} {name:<14} {_fmt(bq):<36} {_fmt(nq):<36} {change:>+8.2%}  "
                  f"{v} (bound {spec['bound']:g}, runs {len(b)}/{len(n)})")
    return 1 if status else 0
