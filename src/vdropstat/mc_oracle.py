"""Monte Carlo cross-check for the drop law.

Sampling is counter-based: the uniform behind (sample i, bus j) is a hash
of (seed, i, j) alone, so any sharding or batching of the sample range
reproduces the identical stream bit for bit. Per sample the drop comes
from the same backward recursion the deterministic solver uses; the
randomness, not the recursion, is what this module adds.

The linear sampler streams: each batch of at most 2^14 samples walks the
buses from the feeder end to the head, draws one bus's loads for the
whole batch into a vector that stays in cache, and folds it at once into
the running flow and drop. No samples x buses matrix is built, so the
working set does not grow with the bus count. The nonlinear sampler needs
each sample's whole load vector and fills a samples x buses block of at
most 2^21 values per batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distflow import _batch_delta0, solve_nonlinear
from .feeder_model import FeederSpec, LoadDensity
from .mixed_dist import DropDistribution

__all__ = [
    "McConfig",
    "EmpiricalDrop",
    "CheckResult",
    "CompareReport",
    "counter_uniforms",
    "sample_load",
    "run_mc",
    "ks_distance",
    "compare",
]

_U64 = np.uint64
# Samples per linear MC batch: one bus's draws (128 KB of float64) stay in
# cache while they are folded into the running flow and drop.
_BATCH_SAMPLES = 1 << 14
# Load values per nonlinear MC batch (16 MB of float64): bounds its
# samples x buses block whatever the shard count. Draws are counter-based,
# so no batch size ever changes the values.
_BATCH_VALUES = 1 << 21


def _mix64(x: np.ndarray) -> None:
    """splitmix64 finalizer, in place on ``x``."""
    tmp = np.empty_like(x)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(x, _U64(shift), out=tmp)
        x ^= tmp
        x *= _U64(mult)
    np.right_shift(x, _U64(31), out=tmp)
    x ^= tmp


def counter_uniforms(seed: int, start: int, count: int,
                     stream: int, n_streams: int) -> np.ndarray:
    """Uniforms in (0, 1) for samples start..start+count-1 of one stream.

    Pure function of (seed, sample index, stream index); 53-bit mantissas,
    never exactly 0 or 1.
    """
    if count < 0 or start < 0 or not 0 <= stream < n_streams:
        raise ValueError("bad counter range")
    # state = seed + (i * n_streams + stream + 1) * golden mod 2^64, as one
    # multiply and one add on the sample index i
    golden = 0x9E3779B97F4A7C15
    bits = np.arange(start, start + count, dtype=np.uint64)
    bits *= _U64(n_streams * golden % 2**64)
    bits += _U64(((stream + 1) * golden + seed) % 2**64)
    _mix64(bits)
    bits >>= _U64(11)
    # 53 bits fit int64 exactly, and int64 converts faster than uint64
    out = bits.view(np.int64).astype(np.float64)
    out += 0.5
    out *= 2.0**-53
    return out


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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


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
        if np.any(np.diff(self.delta0) < 0.0):
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


def run_mc(spec: FeederSpec, config: McConfig | None = None) -> EmpiricalDrop:
    """Draw drops for the whole feeder; sharding never changes the values."""
    config = config or McConfig()
    n = spec.n
    rho = spec.rho
    total = config.samples
    samples = np.empty((total, 2))  # rows of (head flow, drop)

    def draw(a, b, k):
        """Bus k's loads for samples a..b-1."""
        return sample_load(spec.loads[k],
                           counter_uniforms(config.seed, a, b - a, k, n))

    cap = max(_BATCH_VALUES // n, 1) if config.nonlinear else _BATCH_SAMPLES
    chunk = min(-(-total // config.shards), cap)
    for a in range(0, total, chunk):
        b = min(a + chunk, total)
        if config.nonlinear:
            loads = np.empty((b - a, n))
            for k in range(n):
                loads[:, k] = draw(a, b, k)
            for i in range(b - a):
                profile = solve_nonlinear(spec, loads[i])
                samples[a + i] = (float(profile.flow_s[0]),
                                  spec.base_voltage - float(profile.voltage.min()))
        else:
            delta, flow = _batch_delta0(
                rho, (draw(a, b, k) for k in range(n - 1, -1, -1)))
            samples[a:b, 0] = flow
            samples[a:b, 1] = delta
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


def ks_distance(dist: DropDistribution, samples: np.ndarray) -> float:
    """sup |F_dist - F_empirical| for a mixed distribution.

    Both one-sided limits are scanned at every knot and sample point; an
    atom shared by model and data then contributes its mass mismatch, not
    its mass.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    n = len(samples)
    if n == 0:
        raise ValueError("need samples")
    xs = np.unique(np.concatenate((dist.knots(), samples)))
    f_hi = np.asarray(dist.cdf(xs))
    f_lo = np.asarray(dist.cdf_left(xs))
    e_hi = np.searchsorted(samples, xs, side="right") / n
    e_lo = np.searchsorted(samples, xs, side="left") / n
    return float(max(np.abs(e_hi - f_hi).max(), np.abs(e_lo - f_lo).max()))


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
            "checks": [
                {"name": c.name, "value": c.value,
                 "threshold": c.threshold, "passed": c.passed}
                for c in self.checks
            ],
            "stats": self.stats,
        }


def compare(drop: DropDistribution, emp: EmpiricalDrop,
            ks_threshold: float = 0.01,
            atom_threshold: float = 0.005) -> CompareReport:
    """Gate the deterministic drop law against an empirical one.

    Two hard checks: KS distance and the exact-zero mass gap. Means, stds,
    reference quantiles, and the twice-mean exceedance go into stats for
    reporting without gating.
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
            for p in (0.5, 0.9, 0.99)
        },
        "samples": emp.n,
        "seed": emp.seed,
    }
    return CompareReport(checks=checks, stats=stats)
