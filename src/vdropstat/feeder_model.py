"""Feeder description: line segments, per-bus load densities, config parsing.

A feeder is a single radial chain. Bus 0 is the substation held at
``base_voltage``; buses 1..N carry stochastic loads. Segment k (0-based)
connects bus k to bus k+1. A segment holds only its r and x; its
voltage-drop coefficient ``rho = r / base_voltage`` (p.u. per kW of
through-flow) is derived once, by ``FeederSpec``, into ``FeederSpec.rho``,
which the linearized models read while the nonlinear sweep reads r, x
and ``base_voltage``: both see one feeder. Loads are
*combined* demands s = p + alpha*q in kW, with one homogeneous x/r ratio
``alpha`` for the whole feeder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "FeederConfigError",
    "LineSegment",
    "LoadDensity",
    "TwoSidedExponential",
    "PointMass",
    "Uniform",
    "Gaussian",
    "Histogram",
    "FeederSpec",
    "density_from_dict",
    "parse_feeder",
    "feeder_from_dict",
]

# Normalization slack for "integrates to one" checks.
_NORM_TOL = 1e-9
# Relative slack when checking x/r against the feeder-level alpha.
_ALPHA_TOL = 1e-9


class FeederConfigError(ValueError):
    """Invalid feeder configuration. ``path`` locates the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise FeederConfigError(path, message)


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FeederConfigError(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise FeederConfigError(path, "must be finite")
    return v


# ---------------------------------------------------------------------------
# load densities
# ---------------------------------------------------------------------------


def _into(out, values):
    """``values`` written into ``out`` when one is given, else ``values``."""
    if out is None:
        return values
    out[...] = values
    return out


def _select(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """a = np.where(mask, a, b) bit for bit, in place on float64 ``a``.

    ``mask`` holds int64 -1 (all bits set: keep a) or 0 (take b). Picking
    bits through the integer views is exact for every value, -0.0,
    infinities, NaN payloads and subnormals included; it costs three
    integer passes, about a third of an np.where, and allocates nothing.
    """
    ai, bi = a.view(np.int64), b.view(np.int64)
    ai ^= bi
    ai &= mask
    ai ^= bi


@dataclass(frozen=True)
class LoadDensity:
    """Base class for one bus's combined-demand density (kW).

    Subclasses implement vectorized pdf/cdf/ppf, exact moments, a
    tail-truncated support window and dilation. ``PointMass`` is the one
    atomic family; every other family is purely continuous.
    """

    family = ""

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def ppf(self, u, out=None, work=None):
        """Inverse CDF, defined for u in (0, 1).

        Given ``out`` (float64) and ``work`` (int64), both of u's shape, the
        values are written into ``out``, and a family may use ``u`` (then
        float64) and ``work`` as scratch, so a caller can draw into reused
        buffers with no allocation.
        """
        raise NotImplementedError

    def moments(self) -> tuple[float, float]:
        """Exact (mean, std)."""
        raise NotImplementedError

    def support(self, tail: float) -> tuple[float, float]:
        """Window carrying all but at most ``tail`` of the mass."""
        raise NotImplementedError

    def scaled(self, v: float) -> "LoadDensity":
        """Density of v*s (pure dilation). v = 0 collapses to a point at 0."""
        raise NotImplementedError


@dataclass(frozen=True)
class TwoSidedExponential(LoadDensity):
    """Density c*exp(-s/rate_pos) for s > 0, c*exp(rate_neg*s) for s <= 0.

    The positive lobe models consumption, the negative lobe injection
    (distributed generation). Normalization requires
    weight * (rate_pos + 1/rate_neg) = 1; note rate_pos enters as a scale
    and rate_neg as a rate, mirroring how the two lobes are usually quoted.
    """

    weight: float
    rate_pos: float
    rate_neg: float

    family = "two-sided-exponential"

    def __post_init__(self):
        _require(self.weight > 0, "weight", "must be > 0")
        _require(self.rate_pos > 0, "rate_pos", "must be > 0")
        _require(self.rate_neg > 0, "rate_neg", "must be > 0")
        total = self.weight * (self.rate_pos + 1.0 / self.rate_neg)
        _require(
            abs(total - 1.0) <= _NORM_TOL,
            "weight",
            f"density integrates to {total!r}, not 1",
        )

    @property
    def neg_mass(self) -> float:
        # P(s <= 0) = c / rate_neg
        return self.weight / self.rate_neg

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        pos = self.weight * np.exp(-np.maximum(x, 0.0) / self.rate_pos)
        neg = self.weight * np.exp(np.minimum(x, 0.0) * self.rate_neg)
        return np.where(x > 0.0, pos, neg)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        neg = self.weight / self.rate_neg * np.exp(np.minimum(x, 0.0) * self.rate_neg)
        pos = 1.0 - self.weight * self.rate_pos * np.exp(-np.maximum(x, 0.0) / self.rate_pos)
        return np.where(x <= 0.0, neg, pos)

    def ppf(self, u, out=None, work=None):
        if out is None:
            u = np.array(u, dtype=float)  # a private copy: it is scratch below
            out = np.empty_like(u)
            work = np.empty(u.shape, dtype=np.int64)
        # all bits set where u <= P(s <= 0), the injection side
        np.less_equal(u, self.neg_mass, out=work, casting="unsafe")
        np.negative(work, out=work)
        # invert c/l- * exp(l- s) = u on the injection side and
        # 1 - c*l+ * exp(-s/l+) = u on the consumption side, one log for both
        np.multiply(u, self.rate_neg, out=out)
        out /= self.weight
        np.subtract(1.0, u, out=u)
        u /= self.weight * self.rate_pos
        _select(work, out, u)
        np.log(out, out=out)
        np.multiply(-self.rate_pos, out, out=u)
        out /= self.rate_neg
        _select(work, out, u)
        return out

    def moments(self):
        c, lp, ln = self.weight, self.rate_pos, self.rate_neg
        mean = c * (lp**2 - 1.0 / ln**2)
        second = 2.0 * c * (lp**3 + 1.0 / ln**3)
        return mean, math.sqrt(second - mean**2)

    def support(self, tail):
        half = tail / 2.0
        lo = math.log(half * self.rate_neg / self.weight) / self.rate_neg
        hi = -self.rate_pos * math.log(half / (self.weight * self.rate_pos))
        return min(lo, 0.0), max(hi, 0.0)

    def scaled(self, v):
        if v == 0.0:
            return PointMass(location=0.0)
        _require(v > 0, "scale", "dilation factor must be >= 0")
        return TwoSidedExponential(
            weight=self.weight / v,
            rate_pos=self.rate_pos * v,
            rate_neg=self.rate_neg / v,
        )


@dataclass(frozen=True)
class PointMass(LoadDensity):
    """Deterministic demand: all mass at ``location`` (kW, may be negative)."""

    location: float

    family = "point-mass"

    def __post_init__(self):
        _require(math.isfinite(self.location), "location", "must be finite")

    def pdf(self, x):
        # Degenerate family; the density is not a function. Grid consumers
        # must treat a PointMass as an exact shift instead.
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.location, 1.0, 0.0)

    def ppf(self, u, out=None, work=None):
        u = np.asarray(u, dtype=float)
        return _into(out, np.full_like(u, self.location))

    def moments(self):
        return self.location, 0.0

    def support(self, tail):
        return self.location, self.location

    def scaled(self, v):
        return PointMass(location=self.location * v)


@dataclass(frozen=True)
class Uniform(LoadDensity):
    """Uniform density on [lo, hi]."""

    lo: float
    hi: float

    family = "uniform"

    def __post_init__(self):
        _require(math.isfinite(self.lo) and math.isfinite(self.hi), "lo", "bounds must be finite")
        _require(self.hi > self.lo, "hi", "must exceed lo")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / self.width, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / self.width, 0.0, 1.0)

    def ppf(self, u, out=None, work=None):
        u = np.asarray(u, dtype=float)
        return _into(out, self.lo + u * self.width)

    def moments(self):
        return 0.5 * (self.lo + self.hi), self.width / math.sqrt(12.0)

    def support(self, tail):
        return self.lo, self.hi

    def scaled(self, v):
        if v == 0.0:
            return PointMass(location=0.0)
        return Uniform(lo=self.lo * v, hi=self.hi * v)


@dataclass(frozen=True)
class Gaussian(LoadDensity):
    """Normal density with the given mean and std (kW)."""

    mean: float
    std: float

    family = "gaussian"

    def __post_init__(self):
        _require(math.isfinite(self.mean), "mean", "must be finite")
        _require(self.std > 0 and math.isfinite(self.std), "std", "must be > 0")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (self.std * math.sqrt(2.0 * math.pi))

    # scipy.special is imported by the methods that need it, so that feeders
    # without a Gaussian load never pay for importing scipy
    def cdf(self, x):
        from scipy.special import ndtr

        x = np.asarray(x, dtype=float)
        return ndtr((x - self.mean) / self.std)

    def ppf(self, u, out=None, work=None):
        from scipy.special import ndtri

        u = np.asarray(u, dtype=float)
        return _into(out, self.mean + self.std * ndtri(u))

    def moments(self):
        return self.mean, self.std

    def support(self, tail):
        from scipy.special import ndtri

        z = float(ndtri(tail / 2.0))  # negative
        return self.mean + self.std * z, self.mean - self.std * z

    def scaled(self, v):
        if v == 0.0:
            return PointMass(location=0.0)
        return Gaussian(mean=self.mean * v, std=self.std * abs(v))


@dataclass(frozen=True)
class Histogram(LoadDensity):
    """Piecewise-constant density from bin edges and bin masses.

    Edges must increase strictly; masses are nonnegative and sum to one
    within 1e-9. Intended carrier for empirical or externally fitted
    load shapes.
    """

    edges: tuple[float, ...]
    masses: tuple[float, ...]

    family = "histogram"

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(float(e) for e in self.edges))
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        _require(len(self.edges) >= 2, "edges", "need at least two edges")
        _require(
            len(self.masses) == len(self.edges) - 1,
            "masses",
            f"expected {len(self.edges) - 1} masses for {len(self.edges)} edges, got {len(self.masses)}",
        )
        e = np.asarray(self.edges)
        _require(bool(np.all(np.isfinite(e))), "edges", "must be finite")
        _require(bool(np.all(np.diff(e) > 0)), "edges", "must increase strictly")
        m = np.asarray(self.masses)
        _require(bool(np.all(m >= 0.0)), "masses", "must be nonnegative")
        total = float(m.sum())
        _require(abs(total - 1.0) <= _NORM_TOL, "masses", f"sum to {total!r}, not 1")

    def _arrays(self):
        return np.asarray(self.edges), np.asarray(self.masses)

    def pdf(self, x):
        e, m = self._arrays()
        dens = m / np.diff(e)
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(e, x, side="right") - 1
        inside = (x >= e[0]) & (x <= e[-1])
        idx = np.clip(idx, 0, len(m) - 1)
        return np.where(inside, dens[idx], 0.0)

    def cdf(self, x):
        e, m = self._arrays()
        cum = np.concatenate(([0.0], np.cumsum(m)))
        x = np.asarray(x, dtype=float)
        return np.interp(x, e, cum)

    def ppf(self, u, out=None, work=None):
        e, m = self._arrays()
        cum = np.concatenate(([0.0], np.cumsum(m)))
        cum[-1] = 1.0  # guard cumulative roundoff at the top
        u = np.asarray(u, dtype=float)
        # uniform within the bin that the target mass falls into
        return _into(out, np.interp(u, cum, e))

    def moments(self):
        e, m = self._arrays()
        centers = 0.5 * (e[:-1] + e[1:])
        widths = np.diff(e)
        mean = float(np.sum(m * centers))
        second = float(np.sum(m * (centers**2 + widths**2 / 12.0)))
        return mean, math.sqrt(max(second - mean**2, 0.0))

    def support(self, tail):
        return self.edges[0], self.edges[-1]

    def scaled(self, v):
        if v == 0.0:
            return PointMass(location=0.0)
        return Histogram(edges=tuple(e * v for e in self.edges), masses=self.masses)


_FAMILIES: dict[str, type] = {
    cls.family: cls
    for cls in (TwoSidedExponential, PointMass, Uniform, Gaussian, Histogram)
}


def _from_fields(cls, obj: dict, path: str, tags: frozenset = frozenset()):
    """Build the dataclass ``cls`` from the config record ``obj`` at ``path``:
    one number per field, or a list of numbers for a ``tuple[float, ...]``
    field. ``tags`` names the record's keys that are not fields (a load's
    ``family``). Errors the dataclass raises are re-anchored at ``path``."""
    extra = set(obj) - {f.name for f in fields(cls)} - tags
    _require(not extra, path, f"unexpected fields {sorted(extra)}")
    kwargs = {}
    for f in fields(cls):
        name = f.name
        _require(name in obj, f"{path}.{name}", "missing")
        value = obj[name]
        # str() reads the annotation alike as a string or as a type
        if str(f.type) == "tuple[float, ...]":
            _require(isinstance(value, list), f"{path}.{name}", "expected a list")
            kwargs[name] = tuple(_as_float(v, f"{path}.{name}[{i}]") for i, v in enumerate(value))
        else:
            kwargs[name] = _as_float(value, f"{path}.{name}")
    try:
        return cls(**kwargs)
    except FeederConfigError as err:
        raise FeederConfigError(f"{path}.{err.path}", str(err).split(": ", 1)[-1]) from None


def density_from_dict(obj, path: str = "load") -> LoadDensity:
    """Build a LoadDensity from a tagged config mapping."""
    _require(isinstance(obj, dict), path, f"expected an object, got {type(obj).__name__}")
    family = obj.get("family")
    _require(family in _FAMILIES, f"{path}.family",
             f"unknown family {family!r}, expected one of {sorted(_FAMILIES)}")
    return _from_fields(_FAMILIES[family], obj, path, frozenset({"family"}))


# ---------------------------------------------------------------------------
# feeder spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineSegment:
    """One chain link: resistance r and reactance x (ohmic p.u.). Its drop
    coefficient depends on the feeder's base voltage, so ``FeederSpec``
    derives it."""

    r: float
    x: float

    def __post_init__(self):
        _require(self.r > 0 and math.isfinite(self.r), "r", "must be > 0")
        _require(self.x >= 0 and math.isfinite(self.x), "x", "must be >= 0")


@dataclass(frozen=True)
class FeederSpec:
    """Validated radial feeder: head voltage, x/r ratio, segments, loads.

    ``rho`` is derived on construction: the read-only array of the
    segments' drop coefficients r / base_voltage, which must be finite and
    positive (a ratio can overflow or underflow where r and base_voltage
    are each valid).
    """

    base_voltage: float
    alpha: float
    segments: tuple[LineSegment, ...] = field(default_factory=tuple)
    loads: tuple[LoadDensity, ...] = field(default_factory=tuple)
    rho: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require(self.base_voltage > 0 and math.isfinite(self.base_voltage),
                 "base_voltage", "must be > 0")
        _require(self.alpha >= 0 and math.isfinite(self.alpha), "alpha", "must be >= 0")
        _require(len(self.segments) >= 1, "segments", "need at least one segment")
        _require(
            len(self.loads) == len(self.segments),
            "loads",
            f"expected {len(self.segments)} load entries to match segments, got {len(self.loads)}",
        )
        rho = [seg.r / self.base_voltage for seg in self.segments]
        for k, seg in enumerate(self.segments):
            ratio = seg.x / seg.r
            _require(
                abs(ratio - self.alpha) <= _ALPHA_TOL * max(1.0, abs(self.alpha)),
                f"segments[{k}].x",
                f"x/r = {ratio!r} does not match feeder alpha = {self.alpha!r}",
            )
            _require(0.0 < rho[k] < math.inf, f"segments[{k}].r",
                     f"r / base_voltage = {rho[k]!r} is not a finite positive number")
        rho = np.array(rho)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def n(self) -> int:
        return len(self.segments)

    def load_means(self) -> np.ndarray:
        return np.array([d.moments()[0] for d in self.loads])


def feeder_from_dict(obj) -> FeederSpec:
    """Build and validate a FeederSpec from a config mapping."""
    _require(isinstance(obj, dict), "", f"expected a JSON object, got {type(obj).__name__}")
    known = {"base_voltage", "alpha", "segments", "loads"}
    extra = set(obj) - known
    _require(not extra, "", f"unexpected fields {sorted(extra)}")
    for name in known:
        _require(name in obj, name, "missing")
    v0 = _as_float(obj["base_voltage"], "base_voltage")
    alpha = _as_float(obj["alpha"], "alpha")

    raw_segments = obj["segments"]
    _require(isinstance(raw_segments, list), "segments", "expected a list")
    segments = []
    for k, raw in enumerate(raw_segments):
        _require(isinstance(raw, dict), f"segments[{k}]", "expected an object")
        segments.append(_from_fields(LineSegment, raw, f"segments[{k}]"))

    raw_loads = obj["loads"]
    _require(isinstance(raw_loads, list), "loads", "expected a list")
    _require(
        len(raw_loads) == len(segments),
        "loads",
        f"expected {len(segments)} entries to match segments, got {len(raw_loads)}",
    )
    loads = [density_from_dict(raw, f"loads[{k}]") for k, raw in enumerate(raw_loads)]

    return FeederSpec(base_voltage=v0, alpha=alpha,
                      segments=tuple(segments), loads=tuple(loads))


def parse_feeder(path) -> FeederSpec:
    """Read and validate a feeder config JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise FeederConfigError("", f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise FeederConfigError("", f"malformed JSON in {path}: {err}") from None
    return feeder_from_dict(obj)

