"""Load-density families and feeder config validation."""

import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from helpers import CONFIG4, reference_load, segment, write_config
from vdropstat import feeder_model
from vdropstat.feeder_model import (
    FeederConfigError,
    FeederSpec,
    Gaussian,
    Histogram,
    LoadDensity,
    PointMass,
    TwoSidedExponential,
    Uniform,
    _select,
    density_from_dict,
    feeder_from_dict,
    parse_feeder,
)


def quad_moments(d, lo, hi, n=400_001):
    """Midpoint-rule (mass, mean, std) oracle over [lo, hi]."""
    x = np.linspace(lo, hi, n)
    x = 0.5 * (x[:-1] + x[1:])
    h = (hi - lo) / (n - 1)
    p = np.asarray(d.pdf(x)) * h
    mass = p.sum()
    mean = float(np.dot(p, x)) / mass
    second = float(np.dot(p, x**2)) / mass
    return float(mass), mean, math.sqrt(second - mean**2)


# ---------------------------------------------------------------------------
# two-sided exponential
# ---------------------------------------------------------------------------


def test_reference_moments_closed_form():
    d = reference_load()
    mean, std = d.moments()
    assert mean == 2.0
    assert abs(std - math.sqrt(10.0)) <= 1e-6 * math.sqrt(10.0)


def test_reference_negative_mass():
    d = reference_load()
    assert float(d.cdf(0.0)) == 0.25
    assert d.neg_mass == 0.25


def test_reference_ppf_branches():
    d = reference_load()
    # injection side: u = c/l- * exp(l- s) inverts to log(4u) at l- = 1
    assert float(d.ppf(0.1)) == pytest.approx(math.log(0.4), abs=1e-14)
    # consumption side: 1 - c l+ exp(-s/l+) = u
    assert float(d.ppf(0.5)) == pytest.approx(-3.0 * math.log(0.5 / 0.75), abs=1e-14)
    u = np.linspace(1e-6, 1.0 - 1e-6, 1001)
    assert np.abs(np.asarray(d.cdf(d.ppf(u))) - u).max() < 1e-12


def masked_ppf(d, u):
    """The two-branch inverse written with a boolean-mask scatter."""
    u = np.asarray(u, dtype=float)
    flat = np.atleast_1d(u)
    out = np.empty_like(flat)
    below = flat <= d.neg_mass
    out[below] = np.log(flat[below] * d.rate_neg / d.weight) / d.rate_neg
    rest = ~below
    out[rest] = -d.rate_pos * np.log((1.0 - flat[rest]) / (d.weight * d.rate_pos))
    return out.reshape(u.shape)


@pytest.mark.parametrize("d", [reference_load(), reference_load().scaled(1e-3),
                               TwoSidedExponential(weight=0.5, rate_pos=1.5, rate_neg=2.0)])
def test_two_sided_ppf_bitwise_equals_masked_branches(d):
    m = d.neg_mass
    edge = np.array([np.nextafter(m, 0.0), m, np.nextafter(m, 1.0)])
    rng = np.random.default_rng(2)
    for u in (0.1, 0.9, m, edge, rng.random(1000), rng.random((7, 9)),
              np.array([[m], [0.5]])):
        got, want = d.ppf(u), masked_ppf(d, u)
        assert isinstance(got, np.ndarray)
        assert got.shape == np.shape(u)
        assert got.tobytes() == want.tobytes()
    assert d.ppf(0.3).ndim == 0


def test_exact_select_matches_where_byte_for_byte():
    tiny = np.finfo(float).tiny
    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, tiny / 3.0,
                        -tiny, np.finfo(float).max, 1.0, -2.5])
    nans = np.array([0x7FF8000000000001, 0xFFF0000000000002, 0x7FF0000000000003],
                    dtype=np.uint64).view(float)  # quiet and signalling, both signs
    values = np.concatenate((special, nans))
    a, b = np.meshgrid(values, values)
    a, b = a.ravel(), b.ravel()
    rng = np.random.default_rng(4)
    for cond in (rng.random(a.size) < 0.5, np.ones(a.size, bool), np.zeros(a.size, bool)):
        want = np.where(cond, a, b)
        got = a.copy()
        _select(-cond.astype(np.int64), got, b)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [reference_load(), Uniform(lo=-1.0, hi=2.5),
                               Gaussian(mean=0.3, std=1.7), PointMass(location=-2.0),
                               Histogram(edges=(0.0, 1.0, 2.0, 4.0), masses=(0.2, 0.5, 0.3))],
                         ids=lambda d: d.family)
def test_ppf_into_buffers_matches_ppf(d):
    u = np.random.default_rng(6).random(4096)
    out, scratch, work = np.empty_like(u), u.copy(), np.empty(u.shape, np.int64)
    got = d.ppf(scratch, out=out, work=work)
    assert got is out
    assert out.tobytes() == d.ppf(u).tobytes()


def test_two_sided_ppf_into_buffers_allocates_nothing():
    d = reference_load()
    u = np.random.default_rng(7).random(1 << 15)
    out, work = np.empty_like(u), np.empty(u.shape, np.int64)
    tracemalloc.start()
    try:
        d.ppf(u, out=out, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no temporary vector (one is 256 KB); the cast in the lobe test
    # buffers a few KB
    assert peak < 32_768


def test_two_sided_normalization_enforced():
    with pytest.raises(FeederConfigError, match="weight"):
        TwoSidedExponential(weight=0.3, rate_pos=3.0, rate_neg=1.0)


def test_two_sided_scaled_keeps_injection_mass():
    d = reference_load()
    s = d.scaled(2.5)
    assert float(s.cdf(0.0)) == pytest.approx(0.25, abs=1e-12)
    mean, std = s.moments()
    assert mean == pytest.approx(5.0, rel=1e-12)
    assert std == pytest.approx(2.5 * math.sqrt(10.0), rel=1e-12)


# ---------------------------------------------------------------------------
# family-generic contracts
# ---------------------------------------------------------------------------

CONTINUOUS = [
    (reference_load(), -40.0, 100.0),
    (Uniform(lo=-1.0, hi=2.5), -1.0, 2.5),
    (Gaussian(mean=0.3, std=1.7), -15.0, 16.0),
    (Histogram(edges=(0.0, 1.0, 2.0, 4.0), masses=(0.2, 0.5, 0.3)), 0.0, 4.0),
]


@pytest.mark.parametrize("d,lo,hi", CONTINUOUS, ids=lambda v: getattr(v, "family", ""))
def test_density_integrates_to_one(d, lo, hi):
    mass, _, _ = quad_moments(d, lo, hi)
    assert abs(mass - 1.0) < 1e-6


@pytest.mark.parametrize("d,lo,hi", CONTINUOUS, ids=lambda v: getattr(v, "family", ""))
def test_moments_match_quadrature(d, lo, hi):
    _, mean, std = quad_moments(d, lo, hi)
    m, s = d.moments()
    scale = max(abs(m), s, 1.0)
    assert abs(m - mean) < 1e-6 * scale
    assert abs(s - std) < 1e-6 * scale


@pytest.mark.parametrize("d,lo,hi", CONTINUOUS, ids=lambda v: getattr(v, "family", ""))
def test_cdf_ppf_roundtrip(d, lo, hi):
    u = np.linspace(0.001, 0.999, 999)
    x = np.asarray(d.ppf(u))
    assert np.abs(np.asarray(d.cdf(x)) - u).max() < 1e-9


@pytest.mark.parametrize("d,lo,hi", CONTINUOUS, ids=lambda v: getattr(v, "family", ""))
def test_support_carries_stated_mass(d, lo, hi):
    a, b = d.support(1e-6)
    assert float(d.cdf(b) - d.cdf(a)) >= 1.0 - 1e-6 - 1e-12


@pytest.mark.parametrize("d,lo,hi", CONTINUOUS, ids=lambda v: getattr(v, "family", ""))
def test_scaled_is_pure_dilation(d, lo, hi):
    v = 2.5
    s = d.scaled(v)
    x = np.linspace(lo, hi, 257)
    assert np.abs(np.asarray(s.cdf(v * x)) - np.asarray(d.cdf(x))).max() < 1e-12
    m, sd = d.moments()
    ms, sds = s.moments()
    assert ms == pytest.approx(v * m, rel=1e-12, abs=1e-12)
    assert sds == pytest.approx(v * sd, rel=1e-12)


@pytest.mark.parametrize("d,lo,hi", CONTINUOUS, ids=lambda v: getattr(v, "family", ""))
def test_scaled_zero_collapses(d, lo, hi):
    z = d.scaled(0.0)
    assert isinstance(z, PointMass)
    assert z.location == 0.0


def test_point_mass_is_atomic():
    d = PointMass(location=5.0)
    assert d.moments() == (5.0, 0.0)
    # all its mass in one jump at the location
    assert float(d.cdf(4.999)) == 0.0 and float(d.cdf(5.0)) == 1.0
    assert float(d.pdf(5.0)) == 0.0


def test_gaussian_support_tail():
    d = Gaussian(mean=0.0, std=1.0)
    lo, hi = d.support(1e-8)
    assert lo == -hi
    assert float(d.cdf(hi) - d.cdf(lo)) >= 1.0 - 1e-8


def test_histogram_validation():
    with pytest.raises(FeederConfigError, match="edges"):
        Histogram(edges=(0.0, 0.0, 1.0), masses=(0.5, 0.5))
    with pytest.raises(FeederConfigError, match="masses"):
        Histogram(edges=(0.0, 1.0, 2.0), masses=(0.7, 0.7))
    with pytest.raises(FeederConfigError, match="masses"):
        Histogram(edges=(0.0, 1.0, 2.0), masses=(-0.1, 1.1))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_reference_config_parses():
    spec = parse_feeder(CONFIG4)
    assert spec.n == 4
    assert np.all(spec.rho == 1e-3)
    assert np.all(spec.load_means() == 2.0)


def test_single_bus_point_mass_config(tmp_path):
    path = write_config(tmp_path / "one.json", {
        "base_voltage": 1.0,
        "alpha": 0.0,
        "segments": [{"r": 0.001, "x": 0.0}],
        "loads": [{"family": "point-mass", "location": 0.0}],
    })
    spec = parse_feeder(path)
    assert spec.n == 1
    assert spec.loads[0] == PointMass(location=0.0)


def test_density_from_dict_errors_carry_field_paths():
    with pytest.raises(FeederConfigError, match=r"loads\[2\]\.family"):
        density_from_dict({"family": "exponential"}, "loads[2]")
    with pytest.raises(FeederConfigError, match=r"load\.location"):
        density_from_dict({"family": "point-mass"})
    with pytest.raises(FeederConfigError, match="unexpected"):
        density_from_dict({"family": "point-mass", "location": 1.0, "extra": 2})
    with pytest.raises(FeederConfigError, match=r"load\.weight"):
        density_from_dict({"family": "two-sided-exponential",
                           "weight": 0.5, "rate_pos": 3.0, "rate_neg": 1.0})


def test_density_from_dict_reads_list_fields_from_annotations(monkeypatch):
    # a family the parser has never seen, its annotations types (this module
    # does not postpone them), where Histogram's are strings
    @dataclass(frozen=True)
    class Steps(LoadDensity):
        levels: tuple[float, ...]
        scale: float

        family = "steps"

    monkeypatch.setitem(feeder_model._FAMILIES, "steps", Steps)
    got = density_from_dict({"family": "steps", "levels": [1, 2.5], "scale": 3})
    assert got == Steps(levels=(1.0, 2.5), scale=3.0)
    with pytest.raises(FeederConfigError, match=r"load\.levels: expected a list"):
        density_from_dict({"family": "steps", "levels": 1.0, "scale": 3})
    with pytest.raises(FeederConfigError, match=r"load\.scale: expected a number"):
        density_from_dict({"family": "steps", "levels": [1.0], "scale": [3]})
    hist = density_from_dict({"family": "histogram", "edges": [0, 1, 3],
                              "masses": [0.25, 0.75]})
    assert hist == Histogram(edges=(0.0, 1.0, 3.0), masses=(0.25, 0.75))


def test_feeder_from_dict_errors():
    base = json.loads(CONFIG4.read_text())
    bad = dict(base)
    bad["loads"] = bad["loads"][:3]
    with pytest.raises(FeederConfigError, match="loads"):
        feeder_from_dict(bad)
    bad = dict(base)
    bad["base_voltage"] = -1.0
    with pytest.raises(FeederConfigError, match="base_voltage"):
        feeder_from_dict(bad)
    bad = dict(base)
    bad["extra_field"] = 1
    with pytest.raises(FeederConfigError, match="unexpected"):
        feeder_from_dict(bad)


def test_segment_errors_carry_field_paths():
    base = json.loads(CONFIG4.read_text())
    for field, value, message in (("r", 0.0, "must be > 0"), ("x", -1.0, "must be >= 0")):
        bad = json.loads(json.dumps(base))
        bad["segments"][1][field] = value
        with pytest.raises(FeederConfigError) as err:
            feeder_from_dict(bad)
        assert str(err.value) == f"segments[1].{field}: {message}"


# a malformed segments[1] and the exact message it is reported with
MALFORMED_SEGMENTS = {
    "not an object": ([0.001, 0.0], "segments[1]: expected an object"),
    "extra field": ({"r": 0.001, "x": 0.0, "b": 1.0}, "segments[1]: unexpected fields ['b']"),
    "missing r": ({"x": 0.0}, "segments[1].r: missing"),
    "non-number x": ({"r": 0.001, "x": "0"}, "segments[1].x: expected a number, got '0'"),
    "r = 0": ({"r": 0, "x": 0.0}, "segments[1].r: must be > 0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SEGMENTS))
def test_malformed_segment_messages(case):
    raw, message = MALFORMED_SEGMENTS[case]
    bad = json.loads(CONFIG4.read_text())
    bad["segments"][1] = raw
    with pytest.raises(FeederConfigError) as err:
        feeder_from_dict(bad)
    assert str(err.value) == message


def test_rho_is_derived_from_base_voltage():
    obj = json.loads(CONFIG4.read_text())
    obj["base_voltage"] = 2.0
    spec = feeder_from_dict(obj)
    assert spec.rho.tolist() == [seg["r"] / 2.0 for seg in obj["segments"]]
    assert not spec.rho.flags.writeable
    # a ratio of valid r and base voltage that underflows or overflows is refused
    for v0, r in ((1e300, 1e-300), (1e-300, 1e10)):
        with pytest.raises(FeederConfigError, match=r"segments\[0\]\.r: r / base_voltage"):
            FeederSpec(base_voltage=v0, alpha=0.0, segments=(segment(r),),
                       loads=(PointMass(location=1.0),))


def test_parse_feeder_missing_file(tmp_path):
    with pytest.raises(FeederConfigError, match="cannot read"):
        parse_feeder(tmp_path / "missing.json")


def test_parse_feeder_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(FeederConfigError, match="malformed"):
        parse_feeder(p)


def test_alpha_mismatch_rejected():
    # segment with x/r = 1 inside an alpha = 0 feeder
    with pytest.raises(FeederConfigError, match="does not match feeder alpha"):
        FeederSpec(
            base_voltage=1.0,
            alpha=0.0,
            segments=(segment(1e-3, x=1e-3),),
            loads=(PointMass(location=1.0),),
        )


def test_alpha_split_is_consistent():
    spec = FeederSpec(
        base_voltage=1.0,
        alpha=0.5,
        segments=(segment(1e-3, x=0.5e-3), segment(2e-3, x=1e-3)),
        loads=(PointMass(location=2.0), PointMass(location=1.0)),
    )
    assert spec.n == 2
    assert np.allclose(spec.rho, [1e-3, 2e-3])
