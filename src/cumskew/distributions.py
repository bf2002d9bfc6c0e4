"""Seedable random streams, distribution samplers, and outlier injection.

Every sampler is a pure function of an RngStream and its parameters, so a
run is reproduced exactly by reusing the same (base_seed, stream_id) pair.
Parallel work should create one stream per task instead of sharing one.

A stream is numpy's PCG64 seeded by SeedSequence([base_seed, stream_id]).
Seeding a stream that way costs more than drawing a hundred values from
it, so the Monte Carlo harness does not build streams at all.  Its block
sampler, `_BlockSampler`, runs SeedSequence's hash on arrays, one lane per
stream id (`_seed_words`), computes each PCG64 state from its seed words as
PCG64's own seeding does (`_seed_stream`), sets that state on one reused
generator and draws straight into the stream's row of the block.  The
family's transform and the finite check then run once per block.  Every
state, and so every value drawn, is bit-identical to that of the stream
built alone (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014, for
PCG64 and its seeding; numpy's SeedSequence for the hash).  The
single-stream samplers apply the same in-place transforms to their one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Sample, _check_finite, validate_sample
from .errors import CountTooLarge

__all__ = [
    "RngStream",
    "DistributionSpec",
    "ContaminationSpec",
    "sample_normal",
    "sample_lognormal",
    "sample_cauchy",
    "sample_tukey_g",
    "cauchy_transform",
    "tukey_g_transform",
    "contaminate",
    "draw_sample",
]

_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# numpy's SeedSequence hash: constants, pool size and shift of its
# documented algorithm (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

DISTRIBUTION_KINDS = ("normal", "lognormal", "cauchy", "tukey_g")
CONTAMINATION_SIDES = ("high", "low")


def _seed_words(base_seed: int, stream_ids) -> np.ndarray:
    """PCG64 seed words of the stream of every id, as an (R, 4) uint64 array.

    Row r equals SeedSequence([base_seed & M64, stream_ids[r] & M64])
    .generate_state(4, np.uint64) with M64 = 2**64 - 1: the same hash, run
    on uint32 arrays with one lane per id.  Its constants evolve the same
    way in every lane, so they stay Python ints.
    """
    ids = np.array([int(i) & _MASK64 for i in stream_ids], dtype=np.uint64)
    base = int(base_seed) & _MASK64
    # SeedSequence splits each entropy int into its 32-bit words, low first,
    # at least one word each, and pads the entropy with zero words up to the
    # pool size; the base has 1-2 words, so a 2-word id fits the pool too,
    # and an id's zero high word hashes like the padding it replaces
    words = [base & _MASK32] + ([base >> 32] if base >> 32 else [])
    entropy = [np.full(ids.shape, w, dtype=np.uint32) for w in words]
    entropy += [(ids & _MASK32).astype(np.uint32), (ids >> 32).astype(np.uint32)]
    entropy += [np.zeros(ids.shape, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        return value

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        result ^= result >> _XSHIFT
        return result

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    # generate_state(4, uint64): eight uint32 words cycled from the pool,
    # paired little-end first into uint64 (shifts, so no byte order enters)
    hash_const = _INIT_B
    state = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        state.append(value.astype(np.uint64))
    return np.stack([state[2 * k] | (state[2 * k + 1] << np.uint64(32))
                     for k in range(4)], axis=1)


def _generator():
    """A Generator over a PCG64 whose state its user sets per stream.

    Built on use, not at import: touching np.random loads numpy.random,
    which numpy otherwise imports lazily.
    """
    return np.random.Generator(np.random.PCG64(0))


def _seed_stream(bit_generator, words) -> None:
    """Put a PCG64 in the state PCG64(SeedSequence) reaches from `words`.

    `words` is one row of `_seed_words` as Python ints: the 128-bit seed
    and stream selector, high word first, as PCG64 reads them.  PCG64's
    srandom step sets inc = 2*initseq + 1, steps once from state 0 (giving
    inc), adds the seed and steps again.
    """
    seed = words[0] << 64 | words[1]
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": ((inc + seed) * _PCG_MULT + inc) & _MASK128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


class RngStream:
    """Deterministic PCG64 stream keyed by (base_seed, stream_id).

    Identical keys reproduce the identical draw sequence on any platform
    running the same numpy version; distinct stream ids from one base seed
    are statistically independent.

    The stream is seeded by SeedSequence([base_seed, stream_id]) (both
    masked to 64 bits).  The Monte Carlo harness draws the same streams
    without building an RngStream each (see `_BlockSampler`).
    """

    def __init__(self, base_seed: int, stream_id: int = 0):
        self.base_seed = int(base_seed)
        self.stream_id = int(stream_id)
        seed = np.random.SeedSequence([self.base_seed & _MASK64, self.stream_id & _MASK64])
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def __repr__(self) -> str:
        return f"RngStream(base_seed={self.base_seed}, stream_id={self.stream_id})"

    def random(self, size=None):
        """Uniform draws in [0, 1)."""
        return self._gen.random(size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        return int(self._gen.integers(low, high))


@dataclass(frozen=True)
class DistributionSpec:
    """One of the supported sampling distributions plus its parameters.

    mu is the location (normal mean, underlying mean for tukey_g), sigma
    the scale or shape (normal sd, lognormal log-sd, underlying sd for
    tukey_g), and g the tail parameter of the g-distribution.  The Cauchy
    is fixed at standard location/scale.
    """

    kind: str
    mu: float = 0.0
    sigma: float = 1.0
    g: float = 0.0

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "normal" and self.sigma < 0:
            raise ValueError("normal sd must be >= 0")
        if self.kind == "lognormal" and self.sigma <= 0:
            raise ValueError("lognormal shape must be > 0")
        if self.kind == "tukey_g":
            if self.g < 0:
                raise ValueError("g must be >= 0")
            if self.sigma <= 0:
                raise ValueError("underlying sd must be > 0")

    @classmethod
    def normal(cls, mu: float = 0.0, sigma: float = 1.0) -> "DistributionSpec":
        return cls(kind="normal", mu=mu, sigma=sigma)

    @classmethod
    def lognormal(cls, sigma: float) -> "DistributionSpec":
        """Lognormal with log-mean 0 and log-sd sigma."""
        return cls(kind="lognormal", sigma=sigma)

    @classmethod
    def cauchy(cls) -> "DistributionSpec":
        return cls(kind="cauchy")

    @classmethod
    def tukey_g(cls, g: float, mu: float = 0.0, sigma: float = 1.0) -> "DistributionSpec":
        return cls(kind="tukey_g", mu=mu, sigma=sigma, g=g)


@dataclass(frozen=True)
class ContaminationSpec:
    """Replace `count` entries with outliers scaled off the largest magnitude.

    Replacements are u * max|sample| with u ~ U(lo, hi) on the high side,
    and the negated value on the low side; as lo > 1, high outliers exceed
    the sample maximum and low ones fall below its minimum, whatever the
    signs of the data (a sample of zeros stays zero).
    """

    count: int
    side: str
    magnitude_range: tuple[float, float] = (10.0, 20.0)

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.side not in CONTAMINATION_SIDES:
            raise ValueError(f"side must be one of {CONTAMINATION_SIDES}")
        lo, hi = self.magnitude_range
        if not lo <= hi:
            raise ValueError("magnitude range must satisfy lo <= hi")
        if lo <= 1.0:
            raise ValueError("magnitude multipliers must exceed 1")


def _cauchy(u: np.ndarray) -> None:
    # tan(pi*(u - 1/2)) in place
    u -= 0.5
    u *= np.pi
    np.tan(u, out=u)


def _tukey_g(z: np.ndarray, g: float) -> None:
    # (exp(g*z) - 1) / g in place; g = 0 is the identity
    if g != 0.0:
        z *= g
        np.expm1(z, out=z)
        z /= g


@np.errstate(over="ignore", invalid="ignore")  # the caller's finite check reports it
def _transform(values: np.ndarray, kind: str, mu: float = 0.0, sigma: float = 1.0,
               g: float = 0.0) -> None:
    """Map standard variates (uniforms for the Cauchy, standard normals
    otherwise) to the family's values in place, any number of rows at once."""
    if kind == "cauchy":
        _cauchy(values)
        return
    values *= sigma
    if kind == "lognormal":
        np.exp(values, out=values)
        return
    values += mu
    if kind == "tukey_g":
        _tukey_g(values, g)


def sample_normal(rng: RngStream, mu: float, sigma: float, n: int) -> Sample:
    """n draws from N(mu, sigma**2); sigma = 0 gives a constant sample."""
    return draw_sample(DistributionSpec.normal(mu, sigma), rng, n)


def sample_lognormal(rng: RngStream, sigma: float, n: int) -> Sample:
    """n draws of exp(Z) with Z ~ N(0, sigma**2)."""
    return draw_sample(DistributionSpec.lognormal(sigma), rng, n)


def cauchy_transform(u):
    """Map uniforms in [0, 1) to standard Cauchy via tan(pi*(u - 1/2))."""
    u = np.array(u, dtype=float)
    _cauchy(u)
    return u[()]  # a scalar for scalar input


def sample_cauchy(rng: RngStream, n: int) -> Sample:
    """n standard Cauchy draws by inverting the CDF of uniforms."""
    return draw_sample(DistributionSpec.cauchy(), rng, n)


def tukey_g_transform(z, g: float):
    """Apply (exp(g*z) - 1) / g elementwise; g = 0 is the identity limit.

    Strictly increasing in z for every g >= 0, so ranks are preserved.
    """
    z = np.array(z, dtype=float)
    _tukey_g(z, g)
    return z[()]  # a scalar for scalar input


def sample_tukey_g(rng: RngStream, g: float, mu: float, sigma: float, n: int) -> Sample:
    """n draws of the g-distribution built from Z ~ N(mu, sigma**2).

    At g = 0 this returns Z itself and consumes the stream exactly like
    sample_normal, so both samplers agree draw for draw.
    """
    return draw_sample(DistributionSpec.tukey_g(g, mu, sigma), rng, n)


def _replace(values: np.ndarray, count: int, side: str, magnitude_range, gen,
             scale: float) -> np.ndarray | None:
    """Overwrite `count` entries of values in place with outliers scale*U(lo, hi),
    negated on the low side, drawing the indices and then the magnitudes
    from gen; returns the magnitudes (None when count is 0)."""
    if count == 0:
        return None
    n = values.size
    if 2 * count > n:
        raise CountTooLarge(f"cannot replace {count} of {n} values (limit n/2)")
    idx = gen.choice(n, size=count, replace=False)
    lo, hi = magnitude_range
    magnitudes = gen.uniform(lo, hi, count) * scale
    values[idx] = magnitudes if side == "high" else -magnitudes
    return magnitudes


@np.errstate(over="ignore")  # validate_sample reports an outlier beyond the float range
def contaminate(sample: Sample, spec: ContaminationSpec, rng: RngStream) -> Sample:
    """Overwrite spec.count randomly chosen entries with outliers.

    The sample size is unchanged; untouched entries keep their values.
    Index draws precede magnitude draws on the supplied stream.

    Raises:
        CountTooLarge: spec.count exceeds half the sample size.
    """
    if spec.count == 0:
        return sample
    values = sample.values.copy()
    _replace(values, spec.count, spec.side, spec.magnitude_range, rng._gen,
             float(np.max(np.abs(values))))
    return validate_sample(values)


def draw_sample(spec: DistributionSpec, rng: RngStream, n: int) -> Sample:
    """Draw n observations from the specified distribution."""
    values = rng.random(n) if spec.kind == "cauchy" else rng.standard_normal(n)
    _transform(values, spec.kind, spec.mu, spec.sigma, spec.g)
    return validate_sample(values)


class _BlockSampler:
    """Draws Monte Carlo replications straight into the rows of a block.

    Row r of `draw(ids, cids)` is bit-identical to
    draw_sample(dist, RngStream(base_seed, ids[r]), n), contaminated, when
    a plan is given, as `contaminate` would from
    RngStream(base_seed, cids[r]) after drawing the outlier count from
    [plan.count_min, plan.count_max] on that stream.  `plan` is an
    experiments.ContaminationPlan, which checks itself when built.

    Per row it only sets the state of one reused PCG64 (`_seed_stream`)
    and draws into the row, plus the contamination draws; the family's
    transform and the finite check run once per block.  Errors are those
    of the one-row path, raised for the first row that has one.  Each
    sampler owns its generators: concurrent callers each build their own.
    """

    def __init__(self, dist: DistributionSpec, n: int, base_seed: int, plan=None):
        self.dist = dist
        self.n = n
        self.base_seed = base_seed
        self.plan = plan
        self._gen = _generator()
        self._cgen = None if plan is None else _generator()

    def draw(self, ids, cids=None) -> np.ndarray:
        """The (len(ids), n) block of the streams `ids`, contaminated from
        the streams `cids` when the sampler has a plan."""
        dist = self.dist
        block = np.empty((len(ids), self.n))
        bit_generator = self._gen.bit_generator
        fill = self._gen.random if dist.kind == "cauchy" else self._gen.standard_normal
        for row, words in zip(block, _seed_words(self.base_seed, ids).tolist()):
            _seed_stream(bit_generator, words)
            fill(out=row)
        _transform(block, dist.kind, dist.mu, dist.sigma, dist.g)
        if self.plan is None:
            _check_finite(block)
        else:
            self._contaminate(block, cids)
        return block

    @np.errstate(over="ignore")  # an outlier beyond the float range is reported below
    def _contaminate(self, block: np.ndarray, cids) -> None:
        plan, gen = self.plan, self._cgen
        bit_generator = gen.bit_generator
        finite = np.isfinite(block).all(axis=1).tolist()
        scales = np.max(np.abs(block), axis=1).tolist()
        words = _seed_words(self.base_seed, cids).tolist()
        for row, ok, scale, row_words in zip(block, finite, scales, words):
            if not ok:
                _check_finite(row[None])
            _seed_stream(bit_generator, row_words)
            count = int(gen.integers(plan.count_min, plan.count_max + 1))
            magnitudes = _replace(row, count, plan.side, plan.magnitude_range, gen, scale)
            if magnitudes is not None and not np.isfinite(magnitudes).all():
                _check_finite(row[None])
