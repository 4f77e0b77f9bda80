"""Monte Carlo cross-check for the drop law.

Sampling is counter-based: the uniform behind (sample i, bus j) is a hash
of (seed, i, j) alone, so any sharding or batching of the sample range
reproduces the identical stream bit for bit, whatever the thread count.

Both samplers run one batch function. A batch draws one bus's loads for
all its samples at once, in place: the hash adds a per-bus constant to a
ramp computed once per run and mixes it, and the inverse CDF selects its
branches bit for bit in the same vectors. A linear batch (at most 2^15
samples) folds each bus's loads, from the feeder end to the head, into
the running flow and drop, which are its rows of the output, so no
samples x buses matrix is built. A nonlinear batch writes them into a
samples x buses block of at most 2^16 values and solves it with one
DistFlow sweep (``distflow._sweep``), which holds about a dozen arrays of
the block's size. ``mixed_dist.map_blocks`` maps the batches, linear ones
on one thread per CPU (at most one per batch and four in all; none on one
CPU), nonlinear ones on the calling thread, each thread with one buffer
set made on the calling thread. ``counter_uniforms`` and ``sample_load``
are the same draw out of place; no sampler calls them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .distflow import _batch_delta0, _sweep
from .feeder_model import FeederSpec, LoadDensity
from .mixed_dist import DropDistribution, map_blocks, pool_threads

__all__ = [
    "McConfig",
    "EmpiricalDrop",
    "CheckResult",
    "CompareReport",
    "counter_uniforms",
    "sample_load",
    "run_mc",
    "batch_plan",
    "ks_distance",
    "compare",
    "REFERENCE_QUANTILES",
]

_U64 = np.uint64
# splitmix64's increment: stream state = seed + (counter + 1) * golden
_GOLDEN = 0x9E3779B97F4A7C15
# Samples per linear MC batch. Each thread owns three vectors of this
# length (768 KB) and the run shares one ramp (256 KB). On a 2-CPU host,
# two threads beat one only from 2^15 up, as shorter ufunc calls hand the
# GIL back and forth more often than they compute; 2^16 was not clearly
# faster and doubles the vectors.
_BATCH_SAMPLES = 1 << 15
# Load values per nonlinear MC batch (512 KB of float64): bounds its
# samples x buses block, of which the sweep keeps about a dozen, whatever
# the shard count. Draws are counter-based, so no batch size ever changes
# the values.
_BATCH_VALUES = 1 << 16
# Points per chunk of the KS scan (512 KB of float64 per temporary).
_KS_CHUNK = 1 << 16


def _mix64(x: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer, in place on ``x``; ``tmp`` is uint64 scratch."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(x, _U64(shift), out=tmp)
        x ^= tmp
        x *= _U64(mult)
    np.right_shift(x, _U64(31), out=tmp)
    x ^= tmp


def _ramp(count: int, n_streams: int) -> np.ndarray:
    """i * n_streams * golden mod 2^64 for i < count: a stream's state steps."""
    ramp = np.arange(count, dtype=np.uint64)
    ramp *= _U64(n_streams * _GOLDEN % 2**64)
    return ramp


def _state0(seed: int, start: int, stream: int, n_streams: int) -> int:
    """State of sample ``start`` of one stream; later ones add the ramp."""
    return (seed + (start * n_streams + stream + 1) * _GOLDEN) % 2**64


def _uniforms_into(ramp: np.ndarray, state0: int, bits: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Uniforms of the states ``ramp + state0`` (mod 2^64) into ``out``.

    ``bits`` (uint64) holds the hash; ``out`` (float64) is its scratch
    until it takes the result. All three share one length.
    """
    np.add(ramp, _U64(state0), out=bits)
    _mix64(bits, out.view(np.uint64))
    bits >>= _U64(11)
    # 53 bits fit int64 exactly, and int64 converts faster than uint64
    np.add(bits.view(np.int64), 0.5, out=out)
    out *= 2.0**-53
    return out


def counter_uniforms(seed: int, start: int, count: int,
                     stream: int, n_streams: int) -> np.ndarray:
    """Uniforms in (0, 1) for samples start..start+count-1 of one stream.

    Pure function of (seed, sample index, stream index); 53-bit mantissas,
    never exactly 0 or 1.
    """
    if count < 0 or start < 0 or not 0 <= stream < n_streams:
        raise ValueError("bad counter range")
    bits = _ramp(count, n_streams)
    return _uniforms_into(bits, _state0(seed, start, stream, n_streams),
                          bits, np.empty(count))


def sample_load(density: LoadDensity, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw; one value per uniform."""
    return np.asarray(density.ppf(uniforms), dtype=float)


@dataclass(frozen=True)
class McConfig:
    samples: int = 100_000
    seed: int = 1
    shards: int = 1
    nonlinear: bool = False

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.shards < 1 or self.shards > self.samples:
            raise ValueError("shards must lie in [1, samples]")
        if not 0 <= self.seed < 2**64:  # the streams see the seed modulo 2^64
            raise ValueError("seed must lie in [0, 2**64)")


@dataclass(eq=False)
class EmpiricalDrop:
    """Empirical drop law: sorted drops, exact zero count, raw (S0, D0) pairs.

    ``samples`` keeps the draws in original order as (head flow, drop)
    rows, so joint scatter plots and bitwise determinism checks see the
    stream exactly as generated.
    """

    delta0: np.ndarray
    zero_count: int
    samples: np.ndarray
    seed: int

    def __post_init__(self):
        if np.any(self.delta0[1:] < self.delta0[:-1]):
            raise ValueError("delta0 must be sorted ascending")
        if not 0 <= self.zero_count <= len(self.delta0):
            raise ValueError("zero_count outside [0, n]")
        if self.samples.shape != (len(self.delta0), 2):
            raise ValueError("samples must be (n, 2) pairs of (S0, delta0)")

    @property
    def n(self) -> int:
        return len(self.delta0)

    def zero_fraction(self) -> float:
        return self.zero_count / self.n

    def cdf(self, x) -> np.ndarray | float:
        out = np.searchsorted(self.delta0, np.asarray(x, dtype=float),
                              side="right") / self.n
        return out if out.ndim else float(out)

    def quantile(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile level {p!r} outside [0, 1]")
        i = min(max(math.ceil(p * self.n) - 1, 0), self.n - 1)
        return float(self.delta0[i])

    def mean_std(self) -> tuple[float, float]:
        return float(self.delta0.mean()), float(self.delta0.std())


def batch_plan(n_buses: int, config: McConfig) -> tuple[int, int]:
    """(samples per batch, threads) that ``run_mc`` uses for this feeder size.

    A batch holds at most ceil(samples / shards) samples. Linear batches
    hold at most _BATCH_SAMPLES and run on ``pool_threads`` threads: one
    per CPU this process may use, but no more than batches or four.
    Nonlinear batches hold at most _BATCH_VALUES loads and run on the
    calling thread.
    """
    per_shard = -(-config.samples // config.shards)
    if config.nonlinear:
        return min(per_shard, max(_BATCH_VALUES // n_buses, 1)), 1
    size = min(per_shard, _BATCH_SAMPLES)
    return size, pool_threads(-(-config.samples // size))


def _mc_batches(spec: FeederSpec, config: McConfig, samples: np.ndarray) -> None:
    """Fill column-major ``samples`` with (head flow, drop), batch by batch."""
    n, rho, seed, total = spec.n, spec.rho, config.seed, len(samples)
    size, threads = batch_plan(n, config)
    ramp = _ramp(size, n)  # shared and read-only; a batch adds its start

    def batch(a: int, bufs) -> None:
        """Samples a..b-1, the batch at ``a``, drawn with the (bits, u) of
        ``bufs`` into its loads: one vector, or a samples x buses block."""
        b = min(a + size, total)
        bits, u, loads = (x[:b - a] for x in bufs)

        def draw(k: int) -> np.ndarray:
            # u and bits are the draw's scratch, and then u the linear fold's
            _uniforms_into(ramp[:b - a], _state0(seed, a, k, n), bits, u)
            return spec.loads[k].ppf(u, out=loads if loads.ndim == 1 else loads[:, k],
                                     work=bits.view(np.int64))

        if not config.nonlinear:
            _batch_delta0(rho, map(draw, range(n - 1, -1, -1)),
                          out=(samples[a:b, 1], samples[a:b, 0], u))
            return
        for k in range(n):
            draw(k)
        voltage, flow_p, flow_q, _ = _sweep(spec, loads)
        samples[a:b, 0] = flow_p[:, 0] + spec.alpha * flow_q[:, 0]
        samples[a:b, 1] = spec.base_voltage - voltage.min(axis=1)

    def scratch():
        loads = np.empty((size, n), order="F") if config.nonlinear else np.empty(size)
        return np.empty(size, dtype=np.uint64), np.empty(size), loads

    map_blocks(batch, range(0, total, size), threads, scratch)


def run_mc(spec: FeederSpec, config: McConfig | None = None) -> EmpiricalDrop:
    """Draw drops for the whole feeder; sharding never changes the values."""
    config = config or McConfig()
    # rows of (head flow, drop); column-major, so that each column is one
    # contiguous vector a batch can write in place
    samples = np.empty((config.samples, 2), order="F")
    _mc_batches(spec, config, samples)
    drops = samples[:, 1]
    return EmpiricalDrop(
        delta0=np.sort(drops),
        zero_count=int((drops == 0.0).sum()),
        samples=samples,
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# distances and the comparison report
# ---------------------------------------------------------------------------


def _is_sorted(x: np.ndarray) -> bool:
    """Whether ``x`` is ascending, checked _KS_CHUNK cells at a time."""
    for i in range(0, len(x) - 1, _KS_CHUNK):
        j = min(i + _KS_CHUNK, len(x) - 1)
        if np.any(x[i + 1:j + 1] < x[i:j]):
            return False
    return True


def ks_distance(dist: DropDistribution, samples: np.ndarray) -> float:
    """sup |F_dist - F_empirical| for a mixed distribution.

    Both one-sided limits are scanned at every knot and sample point; an
    atom shared by model and data then contributes its mass mismatch, not
    its mass. The knots and the samples are scanned apart, _KS_CHUNK points
    at a time, so no temporary grows with the sample count; each point's
    gap does not depend on the others, so the maximum is the same as over
    their union. Sorted samples (an ``EmpiricalDrop``'s) are not copied.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n == 0:
        raise ValueError("need samples")
    if not _is_sorted(samples):
        samples = np.sort(samples)
    worst = 0.0
    for xs in (dist.knots(), samples):
        for i in range(0, len(xs), _KS_CHUNK):
            x = xs[i:i + _KS_CHUNK]
            e_hi = np.searchsorted(samples, x, side="right") / n
            e_lo = np.searchsorted(samples, x, side="left") / n
            worst = max(worst, float(np.abs(e_hi - dist.cdf(x)).max()),
                        float(np.abs(e_lo - dist.cdf_left(x)).max()))
    return worst


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass(eq=False)
class CompareReport:
    """Deterministic law vs Monte Carlo: pass/fail checks plus side stats."""

    checks: list[CheckResult]
    stats: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "stats": self.stats,
        }


_DKW_ALPHA = 0.05
# the quantile levels ``compare`` reports, and the CLI's by default
REFERENCE_QUANTILES = (0.5, 0.9, 0.99)


def compare(drop: DropDistribution, emp: EmpiricalDrop,
            ks_threshold: float = 0.01,
            atom_threshold: float = 0.005) -> CompareReport:
    """Gate the deterministic drop law against an empirical one.

    Two hard checks: KS distance and the exact-zero mass gap. Means, stds,
    reference quantiles, the twice-mean exceedance and the DKW band go into
    stats for reporting without gating. The band is the KS distance that
    sampling alone exceeds with probability at most 5% (Dvoretzky-Kiefer-
    Wolfowitz with Massart's constant): eps = sqrt(ln(2 / 0.05) / (2 n)).
    """
    ks = ks_distance(drop, emp.delta0)
    atom_dp = drop.atom_at_zero()
    atom_mc = emp.zero_fraction()
    gap = abs(atom_dp - atom_mc)
    checks = [
        CheckResult("ks_distance", ks, ks_threshold, ks <= ks_threshold),
        CheckResult("zero_atom_gap", gap, atom_threshold, gap <= atom_threshold),
    ]
    mean_dp, std_dp = drop.mean_std()
    mean_mc, std_mc = emp.mean_std()
    twice = 2.0 * mean_dp
    stats = {
        "mean": {"deterministic": mean_dp, "mc": mean_mc},
        "std": {"deterministic": std_dp, "mc": std_mc},
        "zero_atom": {"deterministic": atom_dp, "mc": atom_mc},
        "exceed_twice_mean": {
            "threshold": twice,
            "deterministic": drop.prob_exceed(twice),
            "mc": float((emp.delta0 > twice).mean()),
        },
        "quantiles": {
            str(p): {"deterministic": drop.quantile(p), "mc": emp.quantile(p)}
            for p in REFERENCE_QUANTILES
        },
        "dkw_band": {"alpha": _DKW_ALPHA,
                     "eps": math.sqrt(math.log(2.0 / _DKW_ALPHA) / (2.0 * emp.n))},
        "samples": emp.n,
        "seed": emp.seed,
    }
    return CompareReport(checks=checks, stats=stats)
