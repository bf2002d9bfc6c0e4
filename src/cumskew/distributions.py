"""Seedable random streams, distribution samplers, and outlier injection.

Every sampler is a pure function of an RngStream and its parameters, so a
run is reproduced exactly by reusing the same (base_seed, stream_id) pair.
Parallel work should create one stream per task instead of sharing one.

A stream is numpy's PCG64 seeded by SeedSequence([base_seed, stream_id]).
Seeding a stream that way costs more than drawing a hundred values from
it, so the Monte Carlo harness does not build streams at all.
`_stream_states` runs SeedSequence's hash on arrays, one lane per stream
id (`_seed_words`), and computes every PCG64 state from its seed words as
PCG64's own seeding does, in 64-bit halves (`_pcg_states`, the package's
one copy of that arithmetic).  The harness computes the states of a batch
of draw streams, and of a contaminated condition's contamination streams,
in one such pass per kind, and hands each block its rows.  The block
sampler, `_BlockSampler`, takes those states, not stream ids or a base
seed.  It owns one generator and probes numpy's struct layout for it once.
Per stream it writes the stream's state into the generator: straight into
its memory where the probe succeeded, or through the public `state` setter
where it failed.  It then draws into the stream's row of the block.  The
family's transform runs once per block.  A contaminated block then puts
the same generator in each row's contamination stream in turn, except in
a row with a non-finite draw, which is left as drawn; contamination runs
before the block's one finite check, which every block gets.  Every
state, and so every value drawn, is bit-identical to that of the stream
built alone (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014, for
PCG64 and its seeding; numpy's SeedSequence for the hash).  The
single-stream samplers apply the same in-place transforms to their one
row.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .core import Sample, _check_finite, _check_integer, validate_sample
from .errors import CountTooLarge, InvalidParameter

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
_U64_1 = np.uint64(1)
_U64_32 = np.uint64(32)
_U64_63 = np.uint64(63)
_U64_LOW32 = np.uint64(_MASK32)

# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128), also as the
# 64-bit halves, and the 32-bit quarters of the low half, that
# `_pcg_states` multiplies by
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_LO = np.uint64(_PCG_MULT & _MASK64)
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO0 = np.uint64(_PCG_MULT & _MASK32)
_PCG_MULT_LO1 = np.uint64(_PCG_MULT >> 32 & _MASK32)

# numpy's SeedSequence hash: constants, pool size and shift of its
# documented algorithm (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4

DISTRIBUTION_KINDS = ("normal", "lognormal", "cauchy", "tukey_g")
CONTAMINATION_SIDES = ("high", "low")


def _hash_consts(init: int, mult: int, count: int) -> tuple:
    """The first `count` + 1 values of one of SeedSequence's hash-constant
    sequences, c_0 = init and c_(k+1) = c_k * mult mod 2**32, as uint32."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return tuple(np.uint32(c) for c in consts)


# the constants of the pool's 16 hashmix calls (4 to take in the entropy,
# 12 to mix it) and of the 8 output words: call k uses c_k and c_(k+1)
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)


def _seed_words(base_seed: int, stream_ids) -> np.ndarray:
    """PCG64 seed words of the stream of every id, as an (R, 4) uint64 array.

    Row r equals SeedSequence([base_seed & M64, stream_ids[r]])
    .generate_state(4, np.uint64) with M64 = 2**64 - 1: the same hash, run
    on uint32 arrays with one lane per id.  Its constants are the same in
    every lane and every call, so they are computed once (`_HASH_A`,
    `_HASH_B`).  stream_ids is an array of uint64 ids.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    base = int(base_seed) & _MASK64
    # SeedSequence splits each entropy int into its 32-bit words, low first,
    # at least one word each, and pads the entropy with zero words up to the
    # pool size; the base has 1-2 words, so a 2-word id fits the pool too,
    # and an id's zero high word hashes like the padding it replaces
    words = [base & _MASK32] + ([base >> 32] if base >> 32 else [])
    entropy = [np.full(ids.shape, w, dtype=np.uint32) for w in words]
    entropy += [ids.astype(np.uint32), (ids >> _U64_32).astype(np.uint32)]
    entropy += [np.zeros(ids.shape, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))

    consts = zip(_HASH_A, _HASH_A[1:])

    def hashmix(value):
        xor, mult = next(consts)
        value = value ^ xor
        value *= mult
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
    state = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ _HASH_B[k]
        value *= _HASH_B[k + 1]
        value ^= value >> _XSHIFT
        state.append(value.astype(np.uint64))
    return np.stack([state[2 * k] | (state[2 * k + 1] << _U64_32)
                     for k in range(4)], axis=1)


def _pcg_states(words: np.ndarray) -> np.ndarray:
    """The PCG64 (state, inc) that PCG64 seeds from each row of the (R, 4)
    uint64 seed words, as an (R, 4) uint64 array of their 64-bit halves:
    state low, state high, inc low, inc high.

    A row holds the 128-bit seed and stream selector (initseq), high word
    first, as PCG64 reads them from its seed sequence.  PCG64's srandom step
    sets inc = 2*initseq + 1, steps once from state 0 (giving inc), adds the
    seed and steps again: state = (inc + seed) * _PCG_MULT + inc, mod 2**128.
    That arithmetic runs here in 64-bit halves that wrap: a sum's carry is
    (low sum < addend), and the high half of the product of two low halves
    is put together from their 32-bit quarters.
    """
    seed_hi, seed_lo, init_hi, init_lo = words.T
    m0, m1 = _PCG_MULT_LO0, _PCG_MULT_LO1
    inc_hi = (init_hi << _U64_1) | (init_lo >> _U64_63)
    inc_lo = (init_lo << _U64_1) | _U64_1
    t_lo = inc_lo + seed_lo
    t_hi = inc_hi + seed_hi + (t_lo < seed_lo)
    # (t_hi, t_lo) * _PCG_MULT: t_lo times the multiplier's low half in full,
    # the cross terms mod 2**64
    t0, t1 = t_lo & _U64_LOW32, t_lo >> _U64_32
    p00, p01, p10 = t0 * m0, t0 * m1, t1 * m0
    mid = (p00 >> _U64_32) + (p01 & _U64_LOW32) + (p10 & _U64_LOW32)
    hi = t1 * m1 + (p01 >> _U64_32) + (p10 >> _U64_32) + (mid >> _U64_32)
    hi += t_lo * _PCG_MULT_HI + t_hi * _PCG_MULT_LO
    lo = t_lo * _PCG_MULT_LO + inc_lo
    hi += inc_hi + (lo < inc_lo)
    return np.stack([lo, hi, inc_lo, inc_hi], axis=1)


def _stream_states(base_seed: int, stream_ids) -> np.ndarray:
    """The `_pcg_states` rows of the streams `stream_ids` (uint64) under
    base_seed, in one vectorised pass, as `_BlockSampler.draw` takes them."""
    return _pcg_states(_seed_words(base_seed, stream_ids))


def _state_memory(bit_generator):
    """Writable views of a PCG64's (state, inc) words and of its buffered
    32-bit half-word, and the column order of `_pcg_states` that the words
    take in memory; None if a probe of the memory does not bear them out.

    bit_generator.ctypes.state_address is numpy's C struct pcg64_state,
    {pcg64_random_t *pcg_state; int has_uint32; uint32_t uinteger}, and
    pcg_state points to the 128-bit state and inc, which lie in the same
    PCG64 object just after it.  numpy stores a 128-bit word as a native
    128-bit integer (low half first on little-endian hosts) or as its
    emulated struct {high, low}.  The probe sets a known state through the
    public `state` setter, finds the order whose halves match the memory,
    then writes a second state through the views and reads it back through
    the setter's getter.
    """
    address = bit_generator.ctypes.state_address
    head = ctypes.sizeof(ctypes.c_void_p)
    target = ctypes.c_void_p.from_address(address).value
    if target is None or not head + 8 <= target - address <= 64:
        return None  # not the layout above: read no memory through it
    words = memoryview((ctypes.c_char * 32).from_address(target)).cast("B")
    flags = memoryview((ctypes.c_char * 8).from_address(address + head)).cast("B")
    a = 0x0123456789ABCDEF_FEDCBA9876543211
    b = 0x89ABCDEF01234567_76543210FEDCBA99

    def halves(state, inc):
        return np.array([state & _MASK64, state >> 64, inc & _MASK64, inc >> 64],
                        dtype=np.uint64)

    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": a, "inc": b},
                           "has_uint32": 1, "uinteger": 0x9E3779B9}
    if flags.tobytes() != np.array([1, 0x9E3779B9], dtype=np.uint32).tobytes():
        return None
    for order in ([0, 1, 2, 3], [1, 0, 3, 2]):
        if words.tobytes() == halves(a, b)[order].tobytes():
            break
    else:
        return None
    words[:] = halves(b, a)[order].tobytes()
    flags[:] = bytes(8)
    if bit_generator.state != {"bit_generator": "PCG64",
                               "state": {"state": b, "inc": a},
                               "has_uint32": 0, "uinteger": 0}:
        return None
    return words, flags, order


class RngStream:
    """Deterministic PCG64 stream keyed by (base_seed, stream_id).

    Identical keys reproduce the identical draw sequence on any platform
    running the same numpy version; distinct stream ids from one base seed
    are statistically independent.

    The stream is seeded by SeedSequence([base_seed, stream_id]) (both
    masked to 64 bits); either key that is not an integer raises
    InvalidParameter.  The Monte Carlo harness draws the same streams
    without building an RngStream each (see `_BlockSampler`).
    """

    def __init__(self, base_seed: int, stream_id: int = 0):
        _check_integer("base_seed", base_seed)
        _check_integer("stream_id", stream_id)
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
            raise InvalidParameter(f"unknown distribution kind {self.kind!r}")
        for name in ("mu", "sigma", "g"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameter(f"{name} must be finite")
        if self.kind == "normal" and self.sigma < 0:
            raise InvalidParameter("normal sd must be >= 0")
        if self.kind == "lognormal" and self.sigma <= 0:
            raise InvalidParameter("lognormal shape must be > 0")
        if self.kind == "tukey_g":
            if self.g < 0:
                raise InvalidParameter("g must be >= 0")
            if self.sigma <= 0:
                raise InvalidParameter("underlying sd must be > 0")

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
        _check_integer("count", self.count)
        if self.count < 0:
            raise InvalidParameter("count must be >= 0")
        if self.side not in CONTAMINATION_SIDES:
            raise InvalidParameter(f"side must be one of {CONTAMINATION_SIDES}")
        lo, hi = self.magnitude_range
        if not lo <= hi:
            raise InvalidParameter("magnitude range must satisfy lo <= hi")
        if lo <= 1.0:
            raise InvalidParameter("magnitude multipliers must exceed 1")


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
def _transform(values: np.ndarray, spec: DistributionSpec) -> None:
    """Map standard variates (uniforms for the Cauchy, standard normals
    otherwise) to the values of spec's family in place, any number of rows
    at once."""
    if spec.kind == "cauchy":
        _cauchy(values)
        return
    values *= spec.sigma
    if spec.kind == "lognormal":
        np.exp(values, out=values)
        return
    values += spec.mu
    if spec.kind == "tukey_g":
        _tukey_g(values, spec.g)


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
             scale: float) -> None:
    """Overwrite `count` entries of values in place with outliers scale*U(lo, hi),
    negated on the low side, drawing the indices and then the magnitudes
    from gen.  It checks no value: an outlier beyond the float range is
    left for the caller's finite check, which runs after it."""
    if count == 0:
        return
    n = values.size
    # as a Python int: a fixed-width numpy count would wrap when doubled
    if 2 * int(count) > n:
        raise CountTooLarge(f"cannot replace {count} of {n} values (limit n/2)")
    idx = gen.choice(n, size=count, replace=False)
    lo, hi = magnitude_range
    magnitudes = gen.uniform(lo, hi, count) * scale
    values[idx] = magnitudes if side == "high" else -magnitudes


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
    _transform(values, spec)
    return validate_sample(values)


class _BlockSampler:
    """Draws Monte Carlo replications straight into the rows of a block.

    `draw(states, cstates, out)` takes the `_stream_states` rows of the
    block's streams, and of their contamination streams when the sampler
    has a plan, not stream ids or a base seed.  With states =
    _stream_states(base_seed, ids) and cstates = _stream_states(base_seed,
    cids), row r of the block is bit-identical to draw_sample(dist,
    RngStream(base_seed, ids[r]), n), contaminated, when a plan is given,
    as `contaminate` would from RngStream(base_seed, cids[r]) after drawing
    the outlier count from [plan.count_min, plan.count_max] on that stream.
    `plan` is an experiments.ContaminationPlan, which checks itself when
    built.

    The sampler owns one Generator over one PCG64 (`gen`), probed once by
    `_state_memory`.  Per row `draw` only puts `gen` in the row's stream
    (`_seed_each`) and draws into the row; the family's transform runs once
    per block.  A contaminated block then puts `gen` in each row's
    contamination stream in turn: the block's draws are done by then, and
    every seeding clears the buffered half-word, so no draw carries over
    from one stream to the next.  A row with a non-finite draw is not
    contaminated.  Contamination runs before the block's one finite check,
    which reports the first row holding a NaN or an infinity, a bad draw
    or an outlier beyond the float range, with the index and value the
    one-row path reports.  Concurrent callers each build their own sampler.
    """

    def __init__(self, dist: DistributionSpec, plan=None):
        self.dist = dist
        self.plan = plan
        # built on use, not at import: touching np.random loads
        # numpy.random, which numpy otherwise imports lazily
        self.gen = np.random.Generator(np.random.PCG64(0))
        self._memory = _state_memory(self.gen.bit_generator)

    def _seed_each(self, states):
        """Put `gen` in the stream of every `states` row in turn, with no
        buffered half-word, yielding once it is there.

        It writes each row straight into the generator's memory, and clears
        the half-word, through the views `_state_memory` found; where that
        probe failed, it sets the same state through the public `state`
        setter.
        """
        if self._memory is None:
            bit_generator = self.gen.bit_generator
            for lo, hi, inc_lo, inc_hi in states.tolist():
                pcg = {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}
                bit_generator.state = {"bit_generator": "PCG64", "state": pcg,
                                       "has_uint32": 0, "uinteger": 0}
                yield
            return
        state, flags, order = self._memory
        data = memoryview(states[:, order].tobytes())
        clear = bytes(8)
        for start in range(0, len(data), 32):
            state[:] = data[start:start + 32]
            flags[:] = clear
            yield

    def draw(self, states, cstates, out: np.ndarray) -> np.ndarray:
        """Draw the streams whose `states` rows are given into `out`, a
        C-contiguous float64 array of shape (len(states), n), contaminated
        from the streams of the `cstates` rows when the sampler has a plan
        (cstates is None when it has none); returns out."""
        fill = self.gen.random if self.dist.kind == "cauchy" else self.gen.standard_normal
        for row, _ in zip(out, self._seed_each(states)):
            fill(out=row)
        _transform(out, self.dist)
        if self.plan is not None:
            self._contaminate(out, cstates)
        _check_finite(out)
        return out

    @np.errstate(over="ignore")  # draw's finite check reports an overflowing outlier
    def _contaminate(self, block: np.ndarray, cstates) -> None:
        """Contaminate each row of block from its `cstates` row's stream, but
        not a row with a non-finite draw (its max|row| scale is not finite),
        which keeps that draw for draw's finite check to report."""
        plan, gen = self.plan, self.gen
        scales = np.max(np.abs(block), axis=1).tolist()
        for row, scale, _ in zip(block, scales, self._seed_each(cstates)):
            if math.isfinite(scale):
                count = int(gen.integers(plan.count_min, plan.count_max + 1))
                _replace(row, count, plan.side, plan.magnitude_range, gen, scale)
