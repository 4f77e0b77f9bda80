"""Mixed density carriers: grids, atoms, convolution, drop-law queries."""

import csv
import io
import math
import threading

import numpy as np
import pytest
from scipy.fft import next_fast_len

from helpers import transform_threads
from vdropstat import mixed_dist
from vdropstat.mixed_dist import (
    DropDistribution,
    Grid1D,
    JointLattice,
    JointState,
    MixedDensity1D,
    convolve_lines,
    line_spectrum,
    marginal_drop,
    write_density_csv,
)


# ---------------------------------------------------------------------------
# Grid1D
# ---------------------------------------------------------------------------


def test_grid_basic_geometry():
    g = Grid1D(0.0, 1.0, np.ones(4))
    assert g.step == 0.25
    assert np.allclose(g.centers(), [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(g.edges(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.mass() == pytest.approx(1.0)


def test_grid_rejects_bad_values():
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, np.ones(1))
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, np.array([1.0, -1e-9]))


def test_grid_clamps_arithmetic_dust():
    g = Grid1D(0.0, 1.0, np.array([1.0, -1e-13]))
    assert g.values[1] == 0.0
    with pytest.raises(ValueError):
        g.values[1] = 5.0  # read-only


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_convolve_uniforms_gives_triangle():
    h = 1.0 / 512
    tri = convolve_lines(np.ones(512), np.ones(512)) * h  # density of U + U
    centers = (np.arange(len(tri)) + 1.0) * h
    assert len(tri) == 1023
    assert tri.sum() * h == pytest.approx(1.0, abs=1e-12)
    i = int(np.argmax(tri))
    assert tri[i] == pytest.approx(1.0, abs=5e-3)
    assert centers[i] == pytest.approx(1.0, abs=h)
    # exact triangle ordinates at cell centers
    want = np.minimum(centers, 2.0 - centers)
    assert np.abs(tri - np.clip(want, 0.0, None)).max() < 5e-3


def test_convolve_fft_path_matches_direct():
    rng = np.random.default_rng(5)
    h = 1.0 / 3000
    va = rng.uniform(0.0, 1.0, 3000)
    vb = rng.uniform(0.0, 1.0, 3000)
    va /= va.sum() * h
    vb /= vb.sum() * h
    big = convolve_lines(va, vb) * h  # 5999 output cells: transform path
    direct = np.convolve(va, vb) * h
    assert np.abs(big - direct).max() < 1e-9
    assert big.sum() * h == pytest.approx(1.0, abs=1e-9)


def test_convolve_blocks_of_lines_are_bitwise_one_transform(monkeypatch):
    rng = np.random.default_rng(6)
    band = rng.random((37, 300))
    band[:, :100] = 0.0
    weights = rng.random(45)
    whole = convolve_lines(band, weights)  # one block at the default size
    n_fft = next_fast_len(300 + 45 - 1, real=True)  # the transform length of these lines
    spectrum = line_spectrum(weights, 300)
    seen = transform_threads(monkeypatch)
    for threads in (1, 2, 4):
        monkeypatch.setattr(mixed_dist, "_cores", lambda: threads)
        monkeypatch.setattr(mixed_dist, "_MAX_THREADS", threads)
        for rows in (1, 3, 8):
            # the block's cells are shared out among the threads
            monkeypatch.setattr(mixed_dist, "_FFT_BLOCK_CELLS", rows * threads * n_fft)
            seen.clear()
            assert np.array_equal(convolve_lines(band, weights, spectrum), whole)
            # one thread transforms on the caller, more on the pool alone
            assert (seen == {threading.get_ident()}) == (threads == 1)
            assert len(seen) <= threads
    # a lone line on the transform path keeps its 1D shape
    line = rng.random(5000)
    assert convolve_lines(line, weights).shape == (5044,)


@pytest.mark.parametrize("threads", [1, 3])
def test_map_blocks_allocates_on_the_caller(threads):
    # the scratch sets are made on the calling thread, one per thread, so no
    # pool thread allocates; one thread runs every call on the caller
    caller = threading.get_ident()
    made, calls = [], []

    def scratch():
        made.append(threading.get_ident())
        return [len(made)]

    def fn(start, bufs):
        calls.append((start, threading.get_ident(), bufs[0]))

    baseline = threading.active_count()
    mixed_dist.map_blocks(fn, range(0, 40, 4), threads, scratch)
    assert made == [caller] * threads
    assert sorted(start for start, _, _ in calls) == list(range(0, 40, 4))
    assert {bufs for _, _, bufs in calls} <= set(range(1, threads + 1))
    if threads == 1:
        assert {ident for _, ident, _ in calls} == {caller}
    assert threading.active_count() == baseline


# ---------------------------------------------------------------------------
# MixedDensity1D
# ---------------------------------------------------------------------------


def test_atoms_merge_within_half_cell():
    g = Grid1D(0.0, 1.0, np.zeros(10))  # step 0.1
    d = MixedDensity1D(grid=g,
                       atom_locs=np.array([0.50, 0.52, 0.80]),
                       atom_masses=np.array([0.1, 0.3, 0.2]))
    assert d.n_atoms() == 2
    # mass-weighted merge location
    assert d.atom_locs[0] == pytest.approx((0.5 * 0.1 + 0.52 * 0.3) / 0.4)
    assert d.atom_masses.tolist() == [0.4, 0.2]


def test_mixed_density_mass_guard():
    with pytest.raises(ValueError, match="exceeds 1"):
        MixedDensity1D(atom_locs=np.array([0.0, 1.0]),
                       atom_masses=np.array([0.6, 0.5]))
    with pytest.raises(ValueError):
        MixedDensity1D(atom_locs=np.array([0.0]), atom_masses=np.array([-0.1]))


# ---------------------------------------------------------------------------
# DropDistribution queries
# ---------------------------------------------------------------------------


@pytest.fixture
def hand_mix():
    # 0.6 uniform on [0, 1], atom 0.3 at zero, atom 0.1 at 0.5
    g = Grid1D(0.0, 1.0, np.full(16, 0.6))
    return DropDistribution(MixedDensity1D(
        grid=g,
        atom_locs=np.array([0.0, 0.5]),
        atom_masses=np.array([0.3, 0.1]),
    ))


def test_cdf_sides_at_atom(hand_mix):
    assert float(hand_mix.cdf(0.0)) == pytest.approx(0.3)
    assert float(hand_mix.cdf_left(0.0)) == 0.0
    assert float(hand_mix.cdf(0.5)) == pytest.approx(0.7)
    assert float(hand_mix.cdf_left(0.5)) == pytest.approx(0.6)
    assert float(hand_mix.cdf(2.0)) == pytest.approx(1.0)


def test_quantile_generalized_inverse(hand_mix):
    assert hand_mix.quantile(0.2) == 0.0
    assert hand_mix.quantile(0.3) == 0.0
    assert hand_mix.quantile(0.65) == 0.5          # inside the jump
    assert hand_mix.quantile(0.9) == pytest.approx((0.9 - 0.4) / 0.6)
    with pytest.raises(ValueError):
        hand_mix.quantile(1.5)


def test_exceedance_and_zero_atom(hand_mix):
    assert hand_mix.prob_exceed(0.5) == pytest.approx(0.3)
    assert hand_mix.atom_at_zero() == pytest.approx(0.3)
    assert hand_mix.total_mass() == pytest.approx(1.0)


def test_mean_std_with_cell_correction(hand_mix):
    mean, std = hand_mix.mean_std()
    assert mean == pytest.approx(0.35, abs=1e-12)
    # uniform grid second moment is exact with the h^2/12 term
    assert std == pytest.approx(math.sqrt(0.1025), abs=1e-12)


def test_renormalized(hand_mix):
    partial = DropDistribution(MixedDensity1D(
        grid=Grid1D(0.0, 1.0, np.full(16, 0.3)),
        atom_locs=np.array([0.0]),
        atom_masses=np.array([0.2]),
        tail_mass=0.5,
    ))
    assert partial.total_mass() == pytest.approx(0.5)
    fixed = partial.renormalized()
    assert fixed.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert fixed.atom_at_zero() == pytest.approx(0.4)


def test_density_csv_round_trip(hand_mix, tmp_path):
    path = tmp_path / "d.csv"
    write_density_csv(path, hand_mix)
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == 16 + 2
    grid_mass = sum(float(r["density"]) for r in rows) * (1.0 / 16)
    atom_mass = sum(float(r["atom_mass"]) for r in rows)
    assert grid_mass == pytest.approx(0.6, abs=1e-12)
    assert atom_mass == pytest.approx(0.4, abs=1e-12)

    buf = io.StringIO()
    write_density_csv(buf, hand_mix.density)
    assert buf.getvalue().splitlines()[0] == "x,density,atom_mass"


# ---------------------------------------------------------------------------
# joint state and its drop marginal
# ---------------------------------------------------------------------------


def _lattice():
    # S in [-1, 2] with edges on multiples of 0.5; D in [0, 2]
    return JointLattice(s_base=-2, s_step=0.5, s_cells=6,
                        d_step=0.25, d_cells=8)


def test_lattice_geometry():
    lat = _lattice()
    assert lat.s_lo == -1.0 and lat.s_hi == 2.0 and lat.d_hi == 2.0
    assert np.allclose(lat.s_centers()[:2], [-0.75, -0.25])
    assert np.allclose(lat.d_centers()[:2], [0.125, 0.375])


def test_terminal_state_is_double_atom():
    lat = _lattice()
    st = JointState.terminal(lat, stage=5)
    assert st.stage == 5
    assert st.total_mass() == 1.0
    assert st.pc is None and st.line is None
    assert (st.atom_s.tolist(), st.atom_d.tolist(), st.atom_mass.tolist()) == ([0.0], [0.0], [1.0])
    st.validate()


def test_marginal_drop_hand_state():
    lat = _lattice()
    # diagonal slope 0.5: S cells (0, 2] map onto D edges exactly
    diag_vals = np.array([0.0, 0.0, 0.2, 0.2, 0.2, 0.2]) / 0.5
    pc = np.zeros((1, 6))  # a one-row band: D cell 4
    pc[0, 5] = 0.1 / (0.5 * 0.25)  # mass 0.1 at D cell 4
    st = JointState(
        stage=0,
        slope=0.5,
        lattice=lat,
        pc=pc,
        pc_r0=4,
        line=diag_vals,
        # one atom on the zero line, one free atom off both lines
        atom_s=np.array([-0.5, 1.0]),
        atom_d=np.array([0.0, 1.9]),
        atom_mass=np.array([0.05, 0.05]),
    )
    st.validate()
    drop = marginal_drop(st)
    assert drop.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert drop.atom_at_zero() == pytest.approx(0.05)
    # diagonal mass 0.8 spreads over D in (0, 1], 0.2 per quarter cell
    assert float(drop.cdf(1.0)) == pytest.approx(0.05 + 0.8, abs=1e-12)
    assert float(drop.cdf(0.5)) == pytest.approx(0.05 + 0.4, abs=1e-12)
    # free atom lands exactly at its drop value
    assert drop.prob_exceed(1.85) == pytest.approx(0.05, abs=1e-12)


def test_grid_band_must_fit_the_lattice():
    lat = _lattice()  # 8 D rows, 6 S cells
    for shape, r0 in (((2, 6), -1), ((2, 6), 7), ((2, 5), 0), ((0, 6), 3), ((6,), 0)):
        with pytest.raises(ValueError, match="pc band"):
            JointState(stage=0, slope=0.5, lattice=lat, pc=np.ones(shape), pc_r0=r0)
    for shape, r0 in (((8, 6), 0), ((1, 6), 7)):
        JointState(stage=0, slope=0.5, lattice=lat, pc=np.ones(shape), pc_r0=r0)


def test_validate_rejects_wrong_support():
    lat = _lattice()
    # zero drop needs nonpositive flow, and no drop is negative
    for s, d in ((0.5, 0.0), (-0.5, -0.25)):
        st = JointState(stage=0, slope=0.5, lattice=lat, atom_s=np.array([s]),
                        atom_d=np.array([d]), atom_mass=np.array([1.0]))
        with pytest.raises(ValueError, match="atoms must sit"):
            st.validate()
    JointState(stage=0, slope=0.5, lattice=lat, atom_s=np.array([-0.5]),
               atom_d=np.array([0.0]), atom_mass=np.array([1.0])).validate()
