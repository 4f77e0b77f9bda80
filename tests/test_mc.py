"""Counter-based sampling, the empirical law, and the comparison gate."""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import CONFIG4, on_threads, point_spec, reference_load, reference_spec, segment
from vdropstat import mc_oracle, mixed_dist
from vdropstat.cli import _sweep_spec
from vdropstat.mc_oracle import (
    EmpiricalDrop,
    McConfig,
    compare,
    counter_uniforms,
    ks_distance,
    run_mc,
    sample_load,
)
from vdropstat.feeder_model import (
    FeederSpec,
    Gaussian,
    Histogram,
    PointMass,
    Uniform,
    parse_feeder,
)
from vdropstat.mixed_dist import DropDistribution, Grid1D, MixedDensity1D
from vdropstat.dp_engine import DpConfig, run


def chain_spec(n):
    """The feeder4 bus repeated n times, as `sweep --parameter bus-count`."""
    return _sweep_spec(parse_feeder(CONFIG4), "bus-count", n)


def mixed_spec():
    """One bus of every load family, on unequal segments."""
    loads = (Gaussian(mean=3.0, std=1.0),
             Histogram(edges=(-1.0, 0.0, 2.0, 5.0), masses=(0.2, 0.5, 0.3)),
             Uniform(lo=-2.0, hi=4.0),
             PointMass(location=1.5),
             reference_load())
    segs = tuple(segment(r) for r in (1e-3, 2e-3, 5e-4, 1.5e-3, 1e-3))
    return FeederSpec(base_voltage=1.0, alpha=0.0, segments=segs, loads=loads)


# --------------------------------------------------------------- generator


def test_counter_uniforms_chunk_invariance():
    whole = counter_uniforms(9, 0, 1000, stream=2, n_streams=5)
    parts = np.concatenate([
        counter_uniforms(9, 0, 300, stream=2, n_streams=5),
        counter_uniforms(9, 300, 700, stream=2, n_streams=5),
    ])
    assert np.array_equal(whole, parts)


def test_counter_uniforms_streams_and_seeds_differ():
    a = counter_uniforms(9, 0, 100, stream=0, n_streams=4)
    b = counter_uniforms(9, 0, 100, stream=1, n_streams=4)
    c = counter_uniforms(10, 0, 100, stream=0, n_streams=4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_counter_uniforms_range_and_mean():
    u = counter_uniforms(3, 0, 1_000_000, stream=0, n_streams=1)
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 1.5e-3  # 3 sigma at this n is ~9e-4


def test_counter_uniforms_matches_reference_hash():
    # the hash written out of place, one step per line, as splitmix64 reads
    u64 = np.uint64

    def reference(seed, start, count, stream, n_streams):
        idx = np.arange(start, start + count, dtype=np.uint64)
        counter = idx * u64(n_streams) + u64(stream)
        x = u64(seed & 0xFFFFFFFFFFFFFFFF) + (counter + u64(1)) * u64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> u64(30))) * u64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> u64(27))) * u64(0x94D049BB133111EB)
        x = x ^ (x >> u64(31))
        return ((x >> u64(11)).astype(np.float64) + 0.5) * 2.0**-53

    for args in [(0, 0, 1000, 0, 1), (9, 300, 700, 2, 5), (2**64 + 3, 10, 50, 255, 256),
                 (2**63 - 1, 2**40, 100, 7, 1000), (12345, 0, 0, 0, 1)]:
        assert np.array_equal(counter_uniforms(*args), reference(*args))


def test_counter_uniforms_rejects_bad_ranges():
    with pytest.raises(ValueError):
        counter_uniforms(1, -1, 10, 0, 1)
    with pytest.raises(ValueError):
        counter_uniforms(1, 0, 10, 3, 3)


def test_sample_load_statistics():
    u = counter_uniforms(5, 0, 1_000_000, stream=0, n_streams=1)
    s = sample_load(reference_load(), u)
    # 3 sigma bands: sigma_mean = sqrt(10)/1000, sigma_frac = .433/1000
    assert abs(s.mean() - 2.0) < 0.012
    assert abs((s <= 0.0).mean() - 0.25) < 0.0017


def test_sample_point_mass_is_constant():
    u = counter_uniforms(5, 0, 64, stream=0, n_streams=1)
    assert np.all(sample_load(PointMass(location=2.0), u) == 2.0)


# --------------------------------------------------------------- run_mc


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(samples=0)
    with pytest.raises(ValueError):
        McConfig(samples=10, shards=11)
    with pytest.raises(ValueError):
        McConfig(seed=-1)


def test_point_mass_feeder_is_deterministic():
    emp = run_mc(point_spec([2.0, 2.0, 2.0, 2.0]), McConfig(samples=500))
    assert np.all(emp.delta0 == 0.020)
    assert np.all(emp.samples[:, 0] == 8.0)
    assert emp.zero_count == 0


def test_pure_injection_pins_drop_at_zero():
    emp = run_mc(point_spec([-1.0, -2.0]), McConfig(samples=300))
    assert emp.zero_count == emp.n == 300
    assert np.all(emp.delta0 == 0.0)
    assert emp.zero_fraction() == 1.0


def test_sharding_is_bitwise_invariant():
    spec = reference_spec()
    runs = [run_mc(spec, McConfig(samples=20_000, seed=42, shards=k))
            for k in (1, 4, 8)]
    base = runs[0]
    for other in runs[1:]:
        assert np.array_equal(base.delta0, other.delta0)
        assert np.array_equal(base.samples, other.samples)
        assert base.zero_count == other.zero_count


def test_batch_cap_keeps_draws_bitwise(monkeypatch):
    spec = reference_spec()  # 4 buses
    config = McConfig(samples=1_001, seed=5)
    whole = run_mc(spec, config)
    counts = []
    draw = mc_oracle._uniforms_into  # the in-place core: one call per bus and batch
    monkeypatch.setattr(mc_oracle, "_uniforms_into",
                        lambda *a: (counts.append(len(a[0])), draw(*a))[1])
    monkeypatch.setattr(mc_oracle, "_BATCH_SAMPLES", 100)
    for shards in (1, 4):
        counts.clear()
        capped = run_mc(spec, McConfig(samples=1_001, seed=5, shards=shards))
        assert max(counts) == 100  # batches of 100 samples, one bus at a time
        assert np.array_equal(capped.delta0, whole.delta0)
        assert np.array_equal(capped.samples, whole.samples)
        assert capped.zero_count == whole.zero_count


def test_nonlinear_batch_cap_keeps_draws_bitwise(monkeypatch):
    spec = reference_spec()  # 4 buses
    whole = run_mc(spec, McConfig(samples=101, seed=5, nonlinear=True))
    counts = []
    draw = mc_oracle._uniforms_into  # the in-place core: one call per bus and batch
    monkeypatch.setattr(mc_oracle, "_uniforms_into",
                        lambda *a: (counts.append(len(a[0])), draw(*a))[1])
    monkeypatch.setattr(mc_oracle, "_BATCH_VALUES", 4 * 10)
    capped = run_mc(spec, McConfig(samples=101, seed=5, nonlinear=True))
    assert max(counts) == 10  # batches of 10 samples x 4 buses
    assert len(counts) == 11 * 4
    assert np.array_equal(capped.samples, whole.samples)
    assert np.array_equal(capped.delta0, whole.delta0)


# sha1 of samples.tobytes() and delta0.tobytes(), and zero_count, of run_mc
# at seed 7, recorded from the matrix-per-batch sampler before the
# bus-by-bus stream replaced it
STREAM_DIGESTS = {
    "feeder4": (lambda: chain_spec(4), 100_000, False,
                "fdc4b835b79c7c3b35a50b49169837cd8641fd81",
                "111066e3da7bf051197367c5038d60a6ec31e0ca", 5308),
    "chain256": (lambda: chain_spec(256), 20_000, False,
                 "9d3e362d8e07c9539bf13eb11ebc6015f3a04dc5",
                 "cc6152a3603af4d499231f2815c0f261408c82cb", 0),
    "mixed": (mixed_spec, 20_000, False,
              "a0ec71a4122f2ef2d9155f83b64a111577d30693",
              "0d375598020d4a499a856c5d50a9cde205294a72", 67),
    "feeder4-nonlinear": (lambda: chain_spec(4), 500, True,
                          "f36dbda35aff57f3526d68fb87d77ee0efc07635",
                          "261d86bf4664cd54b369f0d39a25575514b22468", 24),
}


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("case", sorted(STREAM_DIGESTS))
def test_mc_stream_regression(case, shards):
    build, samples, nonlinear, samples_sha, delta0_sha, zeros = STREAM_DIGESTS[case]
    emp = run_mc(build(), McConfig(samples=samples, seed=7, shards=shards,
                                   nonlinear=nonlinear))
    assert hashlib.sha1(emp.samples.tobytes()).hexdigest() == samples_sha
    assert hashlib.sha1(emp.delta0.tobytes()).hexdigest() == delta0_sha
    assert emp.zero_count == zeros


LINEAR_DIGESTS = sorted(k for k, v in STREAM_DIGESTS.items() if not v[2])


def _run_on(monkeypatch, cores, spec, config):
    """run_mc as on a host with ``cores`` CPUs; returns it and the batch threads."""
    on_threads(monkeypatch, cores)
    seen = set()
    draw = mc_oracle._uniforms_into
    monkeypatch.setattr(mc_oracle, "_uniforms_into",
                        lambda *a: (seen.add(threading.get_ident()), draw(*a))[1])
    return run_mc(spec, config), seen


@pytest.mark.parametrize("case", LINEAR_DIGESTS)
def test_threaded_batches_are_bitwise_serial(monkeypatch, case):
    build, samples, _, samples_sha, delta0_sha, zeros = STREAM_DIGESTS[case]
    spec = build()
    monkeypatch.setattr(mc_oracle, "_BATCH_SAMPLES", 1_000)
    serial, seen = _run_on(monkeypatch, 1, spec, McConfig(samples=samples, seed=7))
    assert seen == {threading.get_ident()}  # no pool on one CPU
    for shards in (1, 4, 8):
        emp, seen = _run_on(monkeypatch, 2, spec,
                            McConfig(samples=samples, seed=7, shards=shards))
        assert len(seen) == 2 and threading.get_ident() not in seen
        assert emp.samples.tobytes() == serial.samples.tobytes()
        assert hashlib.sha1(emp.samples.tobytes()).hexdigest() == samples_sha
        assert hashlib.sha1(emp.delta0.tobytes()).hexdigest() == delta0_sha
        assert emp.zero_count == zeros


def test_thread_pool_stress_is_bitwise_and_leaves_no_thread(monkeypatch):
    # more threads than CPUs, switching as often as the interpreter allows:
    # a batch that borrowed a busy buffer set or lost a row would show here
    spec = mixed_spec()
    config = McConfig(samples=20_000, seed=3)
    monkeypatch.setattr(mc_oracle, "_BATCH_SAMPLES", 1_000)
    serial, _ = _run_on(monkeypatch, 1, spec, config)
    baseline = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        emp, seen = _run_on(monkeypatch, 8, spec, config)
    finally:
        sys.setswitchinterval(interval)
    assert mc_oracle.batch_plan(spec.n, config) == (1_000, 8)
    assert len(seen) > 1
    assert emp.samples.tobytes() == serial.samples.tobytes()
    assert threading.active_count() == baseline


def test_batch_plan(monkeypatch):
    plan = mc_oracle.batch_plan
    monkeypatch.setattr(mc_oracle, "_BATCH_SAMPLES", 1_000)
    monkeypatch.setattr(mixed_dist, "_cores", lambda: 2)
    assert plan(4, McConfig(samples=10_000)) == (1_000, 2)
    assert plan(4, McConfig(samples=10_000, shards=40)) == (250, 2)
    assert plan(4, McConfig(samples=1_000)) == (1_000, 1)  # one batch, no pool
    monkeypatch.setattr(mixed_dist, "_cores", lambda: 64)
    assert plan(4, McConfig(samples=100_000)) == (1_000, mixed_dist._MAX_THREADS)
    monkeypatch.setattr(mixed_dist, "_cores", lambda: 1)
    assert plan(4, McConfig(samples=10_000)) == (1_000, 1)
    # nonlinear batches cap the values of their samples x buses block
    assert plan(256, McConfig(samples=200_000, nonlinear=True)) == (
        mc_oracle._BATCH_VALUES // 256, 1)


def test_linear_mc_memory_is_independent_of_bus_count():
    # a samples x buses load matrix would be 2e5 x 256 x 8 B = 410 MB, and
    # even one 2^21-value batch of it 16 MB
    spec = chain_spec(256)
    tracemalloc.start()
    try:
        emp = run_mc(spec, McConfig(samples=200_000, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = emp.samples.nbytes + emp.delta0.nbytes
    assert peak <= outputs + 4_000_000


def test_nonlinear_mc_memory_is_bounded_by_the_batch_cap():
    # the sweep keeps about a dozen arrays of its samples x buses block, and
    # a block of 2^16 values is 512 KB; a batch of every sample (what a
    # 2^21-value cap gave here) peaked at 16 MB
    spec = parse_feeder(CONFIG4)
    tracemalloc.start()
    try:
        emp = run_mc(spec, McConfig(samples=200_000, seed=3, nonlinear=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = emp.samples.nbytes + emp.delta0.nbytes
    assert peak <= outputs + 8_400_000


def test_drop_dominates_head_term():
    emp = run_mc(reference_spec(), McConfig(samples=5_000, seed=3))
    s0, d0 = emp.samples[:, 0], emp.samples[:, 1]
    assert np.all(d0 >= np.maximum(0.0, 1e-3 * s0) - 1e-15)
    assert np.all(d0 >= 0.0)


def test_nonlinear_flag_bends_upward():
    spec = reference_spec()
    lin = run_mc(spec, McConfig(samples=200, seed=6))
    non = run_mc(spec, McConfig(samples=200, seed=6, nonlinear=True))
    d_lin = lin.samples[:, 1]
    gap = non.samples[:, 1] - d_lin
    assert np.all(gap >= -1e-12)
    # second-order effect at these load levels (sharp per-draw bounds live
    # with the solver tests, where the full load vector is in hand)
    assert gap.max() < 0.02
    assert gap.mean() < 1e-3
    assert not np.array_equal(non.samples[:, 1], d_lin)


def test_empirical_drop_validation_and_queries():
    with pytest.raises(ValueError, match="sorted"):
        EmpiricalDrop(np.array([2.0, 1.0]), 0, np.zeros((2, 2)), 1)
    with pytest.raises(ValueError, match="zero_count"):
        EmpiricalDrop(np.array([1.0, 2.0]), 3, np.zeros((2, 2)), 1)
    with pytest.raises(ValueError, match="pairs"):
        EmpiricalDrop(np.array([1.0, 2.0]), 0, np.zeros((3, 2)), 1)
    emp = EmpiricalDrop(np.array([0.0, 0.0, 1.0, 3.0]), 2, np.zeros((4, 2)), 7)
    assert emp.zero_fraction() == 0.5
    assert emp.cdf(0.0) == 0.5
    assert emp.cdf(2.0) == 0.75
    assert emp.quantile(0.5) == 0.0
    assert emp.quantile(1.0) == 3.0
    with pytest.raises(ValueError):
        emp.quantile(1.5)
    assert emp.mean_std()[0] == 1.0


# --------------------------------------------------------------- distances


def atom_law(loc: float) -> DropDistribution:
    return DropDistribution(MixedDensity1D(
        atom_locs=np.array([loc]), atom_masses=np.array([1.0])))


def test_ks_atom_cases_exact():
    law = atom_law(0.5)
    assert ks_distance(law, np.full(4, 0.5)) == 0.0
    assert ks_distance(law, np.full(4, 0.7)) == 1.0
    assert ks_distance(law, np.array([0.5, 0.5, 1.0, 1.0])) == 0.5


def _ks_over_union(dist, samples):
    """The KS distance as one scan over the union of knots and samples; kept
    as the oracle of the chunked scan, which must match it exactly."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = len(samples)
    xs = np.unique(np.concatenate((dist.knots(), samples)))
    f_hi = np.asarray(dist.cdf(xs))
    f_lo = np.asarray(dist.cdf_left(xs))
    e_hi = np.searchsorted(samples, xs, side="right") / n
    e_lo = np.searchsorted(samples, xs, side="left") / n
    return float(max(np.abs(e_hi - f_hi).max(), np.abs(e_lo - f_lo).max()))


@pytest.mark.parametrize("chunk", [7, None])
def test_ks_distance_equals_the_scan_over_the_union(monkeypatch, chunk):
    # random laws with a grid and atoms; samples with ties, samples drawn from
    # the atoms, samples on the knots and outside the grid, sorted or not
    if chunk is not None:
        monkeypatch.setattr(mc_oracle, "_KS_CHUNK", chunk)
    rng = np.random.default_rng(41)
    for trial in range(40):
        cells = int(rng.integers(2, 40))
        values = rng.random(cells)
        atoms = np.unique(np.round(rng.uniform(0.0, 2.0, int(rng.integers(0, 4))), 1))
        masses = rng.random(len(atoms))
        scale = rng.uniform(0.5, 1.0) / (values.sum() * 2.0 / cells + masses.sum())
        law = DropDistribution(MixedDensity1D(
            grid=Grid1D(0.0, 2.0, values * scale), atom_locs=atoms, atom_masses=masses * scale))
        n = int(rng.integers(1, 60))
        pool = np.concatenate((law.knots(), atoms, rng.uniform(-0.5, 2.5, 8)))
        samples = np.where(rng.random(n) < 0.5, rng.choice(pool, n),
                           np.round(rng.uniform(-0.2, 2.2, n), 2))
        if trial % 2:
            samples = np.sort(samples)
        assert ks_distance(law, samples) == _ks_over_union(law, samples)


def test_ks_distance_holds_no_sample_sized_temporary():
    # sorted samples are neither copied nor merged with the knots: a scan of
    # 1e6 of them peaks under their own 8 MB (the scan over the union built
    # about eight such arrays)
    law = exact_single_bus_law()
    samples = np.sort(np.random.default_rng(3).uniform(0.0, 0.02, 1_000_000))
    want = _ks_over_union(law, samples)
    tracemalloc.start()
    try:
        got = ks_distance(law, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < samples.nbytes


def exact_single_bus_law() -> DropDistribution:
    """Law of max(0, rho * s) built from the load's own cdf, no lattice."""
    sc = reference_load().scaled(1e-3)
    hi = sc.support(1e-15)[1]
    edges = np.linspace(0.0, hi, 65537)
    masses = np.diff(np.asarray(sc.cdf(edges)))
    grid = Grid1D(0.0, hi, masses / (edges[1] - edges[0]))
    return DropDistribution(MixedDensity1D(
        grid=grid,
        atom_locs=np.array([0.0]),
        atom_masses=np.array([float(sc.cdf(0.0))]),
    ))


def test_ks_shrinks_like_root_n():
    law = exact_single_bus_law()
    spec = reference_spec(n=1)
    sizes = np.array([2_000, 20_000, 200_000])
    ks = np.empty(len(sizes))
    for i, m in enumerate(sizes):
        vals = [ks_distance(law, run_mc(spec, McConfig(samples=int(m),
                                                       seed=s)).delta0)
                for s in (1, 2, 3)]
        ks[i] = np.mean(vals)
    slope = np.polyfit(np.log10(sizes), np.log10(ks), 1)[0]
    assert -0.65 < slope < -0.35


# --------------------------------------------------------------- compare


def test_compare_reference_run():
    rep = run(reference_spec(), DpConfig(grid_s=512, grid_delta=512))
    emp = run_mc(reference_spec(), McConfig(samples=100_000, seed=7))
    report = compare(rep.drop, emp)
    assert [c.name for c in report.checks] == ["ks_distance", "zero_atom_gap"]
    assert report.passed
    assert report.checks[0].value <= 0.01
    assert report.checks[1].value <= 0.005
    d = report.to_dict()
    assert d["passed"] is True
    assert set(d["stats"]) == {"mean", "std", "zero_atom", "exceed_twice_mean",
                               "quantiles", "dkw_band", "samples", "seed"}
    # DKW with Massart's constant at 1e5 samples: sqrt(ln 40 / 2e5) = 0.0042947
    assert d["stats"]["dkw_band"] == {"alpha": 0.05,
                                      "eps": pytest.approx(0.0042947, abs=1e-7)}
    assert d["stats"]["seed"] == 7
    assert d["stats"]["samples"] == 100_000
    assert set(d["stats"]["quantiles"]) == {"0.5", "0.9", "0.99"}


def test_compare_flags_wrong_law():
    emp = run_mc(reference_spec(), McConfig(samples=20_000, seed=7))
    report = compare(atom_law(0.003), emp)
    assert not report.passed
    assert not report.checks[0].passed
