"""Reference values and correctness gates, computed without cumskew's
statistics code.

The cumulative skew follows PAPER.md: sort ascending, p_i = i/n,
q_i = S_i / S_n on the data shifted to mean one, d_i = p_i - q_i,
w_i = (2i - n) * 3 / n for i = 1..n-1, and CS = sum(d_i w_i) / sum(d_i).

`cs_exact` evaluates that formula literally in integer arithmetic.
`cs_fsum` uses an equivalent closed form for large n.  With
e_j = x_(j) - mean, d_i = -(e_1 + ... + e_i) / n; exchanging the sums and
using sum_j e_j = 0 to centre the integer weights gives

    CS = sum_j e_j W1_j / (n * sum_j e_j W0_j),
    W0_j = n + 1 - 2j,   W1_j = 6(j-1)(n-j) - (n-1)(n-2).

Both weights sum to zero, so an error in the computed mean cancels; they
are exact in float64 for n < 7e7, and the sums use math.fsum.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

CS_TOL = 1e-9          # absolute, CS lies in [-1, 1]
REL_TOL = 1e-9         # relative, for b1 and the Gini coefficient
SE_REL_TOL = 1e-6      # relative, for standard errors of the mean


def cs_bound(n: int) -> float:
    return 1.0 - 2.0 / n


def cs_exact(values) -> Fraction:
    """CS by the PAPER.md formula in exact rational arithmetic."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    ratios = [x.as_integer_ratio() for x in xs]
    den = max(d for _, d in ratios)
    ints = [num * (den // d) for num, d in ratios]       # x_j * den, exact
    total = sum(ints)
    # y_j = x_j - mean + 1, scaled by n*den to stay integral; sum(y) = n^2 den
    prefix = 0
    gap_sum = 0
    weighted = 0
    for i in range(1, n):
        prefix += n * ints[i - 1] - total + n * den
        gap = i * n * den - prefix                     # d_i * n^2 den
        gap_sum += gap
        weighted += (2 * i - n) * gap
    if gap_sum == 0:
        return Fraction(0)
    return Fraction(3 * weighted, n * gap_sum)


def _centered_weights(values):
    """Sorted values minus their mean, and the weights W0, W1 above."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = xs.size
    j = np.arange(1, n + 1, dtype=np.float64)
    w0 = n + 1 - 2 * j
    w1 = 6 * (j - 1) * (n - j) - (n - 1) * (n - 2)
    return xs - math.fsum(xs) / n, w0, w1


def cs_fsum(values) -> float:
    """CS by the closed form, with compensated sums."""
    e, w0, w1 = _centered_weights(values)
    den = math.fsum(e * w0)
    if den == 0.0:
        return 0.0
    return math.fsum(e * w1) / (e.size * den)


def b1_fsum(values) -> float:
    """Moment skewness m3 / m2**1.5 with population moments."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    e = x - math.fsum(x) / n
    m2 = math.fsum(e * e) / n
    return math.fsum(e * e * e) / n / m2 ** 1.5


def gini_fsum(values) -> float:
    """Trapezoid Gini on the data as given: (2/n) * sum of raw Lorenz gaps,
    which is -sum_j e_j W0_j / (n^2 mean)."""
    e, w0, _ = _centered_weights(values)
    n = e.size
    mean = math.fsum(np.asarray(values, dtype=np.float64)) / n
    return -math.fsum(e * w0) / (n * n * mean)


def mean_se(vals) -> tuple[float, float]:
    count = len(vals)
    mean = math.fsum(vals) / count
    if count == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in vals) / (count - 1)
    return mean, math.sqrt(var / count)


def close(a: float, b: float, rel: float, floor: float = 1.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(floor, abs(b))


def condition_reference(samples: list[np.ndarray]) -> dict:
    """Reference aggregate of one Monte Carlo condition from its samples."""
    cs, b1 = [], []
    for x in samples:
        if x.min() == x.max():
            cs.append(0.0)
        else:
            cs.append(cs_fsum(x))
            b1.append(b1_fsum(x))
    cs_ave, cs_se = mean_se(cs)
    b1_ave, b1_se = mean_se(b1) if b1 else (0.0, 0.0)
    return {"cs_ave": cs_ave, "cs_se": cs_se, "b1_ave": b1_ave, "b1_se": b1_se,
            "degenerate_count": len(samples) - len(b1)}


def check_null_condition(res, n: int, reps: int, seed: int, ref: dict) -> list[str]:
    """Gate one ConditionResult-like object of a null study against its
    reference aggregate; returns the failures found."""
    tag = getattr(res, "id", "?")
    bad = []
    if res.reps != reps or res.seed != seed:
        bad.append(f"{tag}: reps/seed {res.reps}/{res.seed} != {reps}/{seed}")
    for field in ("cs_ave", "cs_se", "b1_ave", "b1_se"):
        if not math.isfinite(getattr(res, field)):
            bad.append(f"{tag}: {field} is not finite")
    if not abs(res.cs_ave) <= cs_bound(n):
        bad.append(f"{tag}: |cs_ave|={abs(res.cs_ave)} exceeds 1-2/n")
    if res.cs_se < 0 or res.b1_se < 0:
        bad.append(f"{tag}: negative standard error")
    if not abs(res.cs_ave) <= 4.0 * res.cs_se:
        bad.append(f"{tag}: |cs_ave|={abs(res.cs_ave):.3g} > 4*cs_se={4 * res.cs_se:.3g}")
    if abs(res.cs_ave - ref["cs_ave"]) > CS_TOL:
        bad.append(f"{tag}: cs_ave {res.cs_ave!r} != reference {ref['cs_ave']!r}")
    if not close(res.b1_ave, ref["b1_ave"], REL_TOL):
        bad.append(f"{tag}: b1_ave {res.b1_ave!r} != reference {ref['b1_ave']!r}")
    for field in ("cs_se", "b1_se"):
        if not close(getattr(res, field), ref[field], SE_REL_TOL, floor=1e-12):
            bad.append(f"{tag}: {field} {getattr(res, field)!r} != reference {ref[field]!r}")
    if res.degenerate_count != ref["degenerate_count"]:
        bad.append(f"{tag}: degenerate_count {res.degenerate_count} != "
                   f"{ref['degenerate_count']}")
    return bad


def check_gcurve(points, g_grid, sds, n: int, refs: dict) -> list[str]:
    """Gate a g-curve: shape, bound, strict increase in g, and reference CS."""
    bad = []
    expect = [(float(sd), float(g)) for sd in sds for g in g_grid]
    got = [(p.sd, p.g) for p in points]
    if got != expect:
        return [f"gcurve: grid {got[:3]}... != expected {expect[:3]}..."]
    for p in points:
        if p.n != n or not abs(p.cs) <= cs_bound(n):
            bad.append(f"gcurve sd={p.sd} g={p.g}: n={p.n} cs={p.cs!r} out of bounds")
        if abs(p.cs - refs[(p.sd, p.g)]) > CS_TOL:
            bad.append(f"gcurve sd={p.sd} g={p.g}: cs {p.cs!r} != reference "
                       f"{refs[(p.sd, p.g)]!r}")
    for sd in sds:
        cs = [p.cs for p in points if p.sd == float(sd)]
        if any(b <= a for a, b in zip(cs, cs[1:])):
            bad.append(f"gcurve sd={sd}: CS not strictly increasing in g")
    return bad


def check_compute_json(text: str, x: np.ndarray) -> list[str]:
    """Gate `cumskew compute --format json` output against the input column."""
    try:
        row = json.loads(text)["rows"][0]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"compute: unparseable JSON output ({exc})"]
    n = x.size
    bad = []
    if row.get("n") != n or row.get("degenerate") is not False:
        bad.append(f"compute: n={row.get('n')} degenerate={row.get('degenerate')}")
        return bad
    if row.get("cs_bound") != cs_bound(n):
        bad.append(f"compute: cs_bound {row.get('cs_bound')!r} != 1-2/n")
    cs = row.get("cs")
    if not isinstance(cs, float) or not abs(cs) <= cs_bound(n):
        bad.append(f"compute: cs {cs!r} outside the bound")
    elif abs(cs - cs_fsum(x)) > CS_TOL:
        bad.append(f"compute: cs {cs!r} != reference {cs_fsum(x)!r}")
    if not isinstance(row.get("b1"), float) or not close(row["b1"], b1_fsum(x), REL_TOL):
        bad.append(f"compute: b1 {row.get('b1')!r} != reference {b1_fsum(x)!r}")
    if not isinstance(row.get("gini"), float) or not close(row["gini"], gini_fsum(x), REL_TOL):
        bad.append(f"compute: gini {row.get('gini')!r} != reference {gini_fsum(x)!r}")
    return bad


def check_lorenz_tsv(text: str, x: np.ndarray, probe_rows) -> list[str]:
    """Gate `cumskew lorenz` TSV: endpoints, exact p and w, and q/d at a
    seeded subset of rows against fsum prefix shares of the sorted data."""
    lines = text.splitlines()
    n = x.size
    if len(lines) != n + 2 or lines[0].split("\t") != ["i", "p", "q", "d", "w"]:
        return [f"lorenz: {len(lines)} lines, expected header plus {n + 1} rows"]
    bad = []
    if lines[1].split("\t")[:4] != ["0", "0.0", "0.0", "0.0"] or \
            lines[-1].split("\t")[:4] != [str(n), "1.0", "1.0", "0.0"]:
        bad.append("lorenz: endpoints are not (0,0) and (1,1)")
    xs = np.sort(x)
    total = math.fsum(xs)
    for k in probe_rows:
        try:
            i, p, q, d, w = lines[k + 1].split("\t")
            i, p, q, d, w = int(i), float(p), float(q), float(d), float(w)
        except ValueError:
            bad.append(f"lorenz: row {k} unparseable")
            continue
        q_ref = math.fsum(xs[:k]) / total
        if i != k or p != k / n or w != (2 * k - n) * 3.0 / n:
            bad.append(f"lorenz: row {k} has i/p/w {i}/{p!r}/{w!r}")
        if abs(q - q_ref) > CS_TOL or abs(d - (k / n - q_ref)) > CS_TOL or d < 0:
            bad.append(f"lorenz: row {k} q={q!r} d={d!r}, reference q={q_ref!r}")
    return bad


def check_svg(text: str, n: int) -> list[str]:
    """Gate `lorenz --svg`: a complete document with one gap segment per
    grid point (n - 1) plus the three legend swatches."""
    if not text.startswith("<svg") or not text.endswith("</svg>\n"):
        return ["svg: not a complete <svg> document"]
    dashed = text.count('stroke-dasharray="4 3"')
    if dashed != n - 1 + 3:
        return [f"svg: {dashed} dashed segments, expected {n - 1 + 3}"]
    return []
