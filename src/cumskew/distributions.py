"""Seedable random streams, distribution samplers, and outlier injection.

Every sampler is a pure function of an RngStream and its parameters, so a
run is reproduced exactly by reusing the same (base_seed, stream_id) pair.
Parallel work should create one stream per task instead of sharing one.

A stream is numpy's PCG64 seeded by SeedSequence([base_seed, stream_id]).
Seeding a stream that way costs more than drawing a hundred values from
it, so the Monte Carlo harness seeds a whole block of streams at once:
`_seed_words` runs SeedSequence's hash on arrays, one lane per stream id,
and each RngStream is built from its row of words.  The words, and so the
streams and every value drawn from them, are bit-identical to those of
SeedSequence (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014, for
PCG64; numpy's SeedSequence for the hash).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Sample, validate_sample
from .errors import CountTooLarge

__all__ = [
    "RngStream",
    "rng_stream",
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


class _PresetSeed:
    """Stands in for a SeedSequence whose PCG64 seed words are known."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly generate_state(4, np.uint64)
        return self.words


@functools.cache
def _register_preset_seed() -> None:
    # on first use, not at import: touching np.random loads numpy.random,
    # which numpy otherwise imports lazily
    np.random.bit_generator.ISeedSequence.register(_PresetSeed)


class RngStream:
    """Deterministic PCG64 stream keyed by (base_seed, stream_id).

    Identical keys reproduce the identical draw sequence on any platform
    running the same numpy version; distinct stream ids from one base seed
    are statistically independent.

    The stream is seeded by SeedSequence([base_seed, stream_id]) (both
    masked to 64 bits).  Callers that build many streams at once pass
    `seed_words`, their row of `_seed_words(base_seed, ids)`; the stream is
    then the same, its seeding cheaper.
    """

    def __init__(self, base_seed: int, stream_id: int = 0, *,
                 seed_words: np.ndarray | None = None):
        self.base_seed = int(base_seed)
        self.stream_id = int(stream_id)
        if seed_words is None:
            seed = np.random.SeedSequence(
                [self.base_seed & _MASK64, self.stream_id & _MASK64]
            )
        else:
            _register_preset_seed()
            seed = _PresetSeed(seed_words)
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def __repr__(self) -> str:
        return f"RngStream(base_seed={self.base_seed}, stream_id={self.stream_id})"

    def random(self, size=None):
        """Uniform draws in [0, 1)."""
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def choose_indices(self, n: int, k: int) -> np.ndarray:
        """k distinct indices drawn uniformly from range(n)."""
        return self._gen.choice(n, size=k, replace=False)


def rng_stream(base_seed: int, stream_id: int = 0) -> RngStream:
    """Create a deterministic random stream."""
    return RngStream(base_seed, stream_id)


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


def sample_normal(rng: RngStream, mu: float, sigma: float, n: int) -> Sample:
    """n draws from N(mu, sigma**2); sigma = 0 gives a constant sample."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return validate_sample(mu + sigma * rng.standard_normal(n))


def sample_lognormal(rng: RngStream, sigma: float, n: int) -> Sample:
    """n draws of exp(Z) with Z ~ N(0, sigma**2)."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    return validate_sample(np.exp(sigma * rng.standard_normal(n)))


def cauchy_transform(u):
    """Map uniforms in [0, 1) to standard Cauchy via tan(pi*(u - 1/2))."""
    return np.tan(np.pi * (np.asarray(u, dtype=float) - 0.5))


def sample_cauchy(rng: RngStream, n: int) -> Sample:
    """n standard Cauchy draws by inverting the CDF of uniforms."""
    return validate_sample(cauchy_transform(rng.random(n)))


def tukey_g_transform(z, g: float):
    """Apply (exp(g*z) - 1) / g elementwise; g = 0 is the identity limit.

    Strictly increasing in z for every g >= 0, so ranks are preserved.
    """
    z = np.asarray(z, dtype=float)
    if g == 0.0:
        return z.copy()
    return np.expm1(g * z) / g


def sample_tukey_g(rng: RngStream, g: float, mu: float, sigma: float, n: int) -> Sample:
    """n draws of the g-distribution built from Z ~ N(mu, sigma**2).

    At g = 0 this returns Z itself and consumes the stream exactly like
    sample_normal, so both samplers agree draw for draw.
    """
    if g < 0:
        raise ValueError("g must be >= 0")
    z = mu + sigma * rng.standard_normal(n)
    return validate_sample(tukey_g_transform(z, g))


def contaminate(sample: Sample, spec: ContaminationSpec, rng: RngStream) -> Sample:
    """Overwrite spec.count randomly chosen entries with outliers.

    The sample size is unchanged; untouched entries keep their values.
    Index draws precede magnitude draws on the supplied stream.

    Raises:
        CountTooLarge: spec.count exceeds half the sample size.
    """
    k = spec.count
    if k == 0:
        return sample
    n = sample.n
    if 2 * k > n:
        raise CountTooLarge(f"cannot replace {k} of {n} values (limit n/2)")
    idx = rng.choose_indices(n, k)
    lo, hi = spec.magnitude_range
    magnitudes = rng.uniform(lo, hi, k) * float(np.max(np.abs(sample.values)))
    values = sample.values.copy()
    values[idx] = magnitudes if spec.side == "high" else -magnitudes
    return validate_sample(values)


def draw_sample(spec: DistributionSpec, rng: RngStream, n: int) -> Sample:
    """Draw n observations from the specified distribution."""
    if spec.kind == "normal":
        return sample_normal(rng, spec.mu, spec.sigma, n)
    if spec.kind == "lognormal":
        return sample_lognormal(rng, spec.sigma, n)
    if spec.kind == "cauchy":
        return sample_cauchy(rng, n)
    if spec.kind == "tukey_g":
        return sample_tukey_g(rng, spec.g, spec.mu, spec.sigma, n)
    raise ValueError(f"unknown distribution kind {spec.kind!r}")
