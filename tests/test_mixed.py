"""Mixed density carriers: grids, atoms, convolution, drop-law queries."""

import csv
import io
import math
import threading

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft

from helpers import on_threads
from vdropstat import mixed_dist
from vdropstat.mixed_dist import (
    DropDistribution,
    Grid1D,
    JointLattice,
    JointState,
    MixedDensity1D,
    Scratch,
    convolve_lines,
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
    tri = np.zeros(1023)
    tri[:512] = 1.0
    # U + U fits the 1023 cells
    assert convolve_lines(tri, tri, np.ones(512), 0, {}, Scratch(), [(0, 1, 0, 1023)]) == 0.0
    tri *= h  # density of U + U
    centers = (np.arange(len(tri)) + 1.0) * h
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
    big = np.zeros(5999)
    big[:3000] = va
    # 8998 output cells: transform path
    assert convolve_lines(big, big, vb, 0, {}, Scratch(), [(0, 1, 0, 5999)]) < 1e-9
    big *= h
    direct = np.convolve(va, vb) * h
    assert np.abs(big - direct).max() < 1e-9
    assert big.sum() * h == pytest.approx(1.0, abs=1e-9)


def test_next_fast_len_is_scipys_real_length():
    ns = range(1, (1 << 20) + 1)
    assert list(map(mixed_dist.next_fast_len, ns)) == [next_fast_len(n, real=True) for n in ns]


@pytest.mark.parametrize("rows, cells, width, n_fft", [
    (1351, 2048, 1300, 3375),  # feeder4 at 2048^2, stage 0
    (74, 60, 52, 120),  # chain256 at 256^2
])
def test_convolve_lines_is_bitwise_scipys_transforms(rows, cells, width, n_fft):
    # numpy.fft runs the pocketfft that scipy.fft runs: the folded band equals
    # scipy's transforms of the whole band, bit for bit
    rng = np.random.default_rng(rows)
    weights = rng.random(width)
    n_out = cells + width - 1
    assert mixed_dist.next_fast_len(n_out) == n_fft
    band = np.zeros((rows, n_out))
    band[:, :cells] = rng.random((rows, cells)) * (rng.random(cells) < 0.8)
    full = irfft(rfft(band[:, :cells], n_fft, axis=-1) * rfft(weights, n_fft), n_fft, axis=-1)
    expected = np.clip(full[:, :n_out], 0.0, None) + 0.0
    # every output cell stays
    assert convolve_lines(band, band.T, weights, 0, {}, Scratch(), [(0, rows, 0, cells)]) == 0.0
    assert band.tobytes() == expected.tobytes()


def test_convolve_lines_caches_the_weights_transform_by_length(monkeypatch):
    weight_calls = []
    transform = mixed_dist.rfft
    monkeypatch.setattr(mixed_dist, "rfft", lambda a, *args, **kw: (
        weight_calls.append(a.ndim == 1), transform(a, *args, **kw))[1])
    rng = np.random.default_rng(8)
    weights = rng.random(45)
    spectra = {}
    # a line of 344 output cells is summed directly: no transform is made
    line = rng.random(300)
    convolve_lines(line, line, weights, -7, spectra, Scratch(), [(0, 1, 0, 300)])
    assert spectra == {} and weight_calls == []
    band = rng.random((5, 300))
    first = band.copy()
    spill = convolve_lines(first, first.T, weights, -7, spectra, Scratch(), [(0, 5, 0, 300)])
    n_fft = next_fast_len(300 + 45 - 1, real=True)
    assert list(spectra) == [n_fft]
    assert spectra[n_fft].tobytes() == rfft(weights, n_fft).tobytes()
    assert sum(weight_calls) == 1
    again = band.copy()
    assert convolve_lines(again, again.T, weights, -7, spectra, Scratch(),
                          [(0, 5, 0, 300)]) == spill
    assert again.tobytes() == first.tobytes()
    assert sum(weight_calls) == 1 and list(spectra) == [n_fft]  # the weights, transformed once


def test_convolve_blocks_of_lines_are_bitwise_one_transform(monkeypatch):
    rng = np.random.default_rng(6)
    band = rng.random((37, 300))
    band[:, :100] = 0.0
    weights = rng.random(45)
    k0 = -7  # output cells spill off both ends
    whole = band.copy()
    spectra = {}  # the weights' transform, cached by the first call
    groups = [(0, 37, 0, 300)]
    # one block at the default size
    spill = convolve_lines(whole, whole.T, weights, k0, spectra, Scratch(), groups)
    n_fft = next_fast_len(300 + 45 - 1, real=True)  # the transform length of these lines
    for threads in (1, 2, 4):
        for rows in (1, 3, 8):
            # the block's cells are shared out among the threads
            seen = on_threads(monkeypatch, threads, rows * threads * n_fft)
            got = band.copy()
            assert convolve_lines(got, got.T, weights, k0, spectra, Scratch(), groups) == spill
            assert got.tobytes() == whole.tobytes()
            # one thread transforms on the caller, more on the pool alone
            assert (seen == {threading.get_ident()}) == (threads == 1)
            assert len(seen) <= threads
    # a lone line on the transform path comes out as a band's row does
    line = rng.random(5000)
    row = line[np.newaxis].copy()
    one = [(0, 1, 0, 5000)]
    assert (convolve_lines(line, line, weights, k0, {}, Scratch(), one)
            == convolve_lines(row, row.T, weights, k0, {}, Scratch(), one))
    assert line.tobytes() == row[0].tobytes()


def test_calls_within_one_share_run_on_the_calling_thread(monkeypatch):
    # on two threads, calls whose transform cells fit one thread's share of
    # a block run on the caller, however many blocks they make; past a share
    # the blocks run on the pool
    seen = on_threads(monkeypatch, 2)
    folds = []  # the thread of each block's fold
    fold = mixed_dist._fold
    monkeypatch.setattr(mixed_dist, "_fold", lambda *a: (
        folds.append(threading.get_ident()), fold(*a))[1])
    caller = threading.get_ident()
    share = mixed_dist._FFT_BLOCK_CELLS // 2
    rng = np.random.default_rng(13)
    weights = rng.random(45)
    # two row groups of 360 and 3072 transform cells a line: two calls, two
    # blocks, 32 * 360 + 32 * 3072 cells within the share
    band = rng.random((64, 3000))
    groups = [(0, 32, 0, 300), (32, 64, 0, 3000)]
    assert 32 * 360 + 32 * 3072 <= share
    convolve_lines(band, np.empty((3000, 64)), weights, -7, {}, Scratch(), groups)
    assert folds == [caller, caller] and seen == {caller}
    # a short line, summed directly: no transform, one block on the caller
    folds.clear()
    seen.clear()
    line = rng.random(300)
    convolve_lines(line, line.copy(), weights, -7, {}, Scratch(), [(0, 1, 0, 300)])
    assert folds == [caller] and not seen
    # 128 lines of 3072 cells pass the share: the pool transforms them
    folds.clear()
    seen.clear()
    band = rng.random((128, 3000))
    assert 128 * 3072 > share
    convolve_lines(band, np.empty((3000, 128)), weights, -7, {}, Scratch(), [(0, 128, 0, 3000)])
    assert caller not in folds and seen - {caller}


def _full_convolution(vals, weights):
    """Each line's full convolution, as ``convolve_lines`` forms it before
    it folds it into its destination: shifted sums for weights of at most
    two cells, summed directly for a short single line, and otherwise
    transformed and clipped of transform dust. Kept as the fold's oracle."""
    n_out = vals.shape[-1] + len(weights) - 1
    if len(weights) <= 2:
        full = np.zeros(vals.shape[:-1] + (n_out,))
        full[..., :vals.shape[-1]] = vals * weights[0]
        if len(weights) == 2:
            full[..., 1:] += vals * weights[1]
        return full
    if vals.ndim == 1 and n_out < 4096:
        return np.convolve(vals, weights)
    n_fft = next_fast_len(n_out, real=True)
    full = irfft(rfft(vals, n_fft, axis=-1) * rfft(weights, n_fft), n_fft, axis=-1)
    return np.clip(full[..., :n_out], 0.0, None)


def _fold_last(dest, src, k0):
    """dest[..., t + k0] += src[..., t]; returns the out-of-range value sum:
    each line's cells off the low end and off the high end, summed as a
    lines x 2 array. The fold the engine runs on that output; kept with it
    as the oracle."""
    n = dest.shape[-1]
    width = src.shape[-1]
    lines = src.reshape(-1, width)
    lo = max(0, -k0)
    hi = min(width, n - k0)
    if hi <= lo:
        lo = hi = width
    else:
        dest[..., k0 + lo:k0 + hi] += src[..., lo:hi]
    return float(np.column_stack((lines[:, :lo].sum(axis=1), lines[:, hi:].sum(axis=1))).sum())


def _assert_fold_matches_oracle(vals, weights, k0, cells=None):
    # the oracle convolves the input cells alone and folds the output onto
    # the line from the first input cell on
    i0, i1 = (0, vals.shape[-1]) if cells is None else cells
    want = np.zeros_like(vals)
    want_spill = _fold_last(want, _full_convolution(vals[..., i0:i1], weights), i0 + k0)
    got = vals.copy()
    groups = [(0, 1 if vals.ndim == 1 else len(vals), i0, i1)]
    spill = convolve_lines(got, got if vals.ndim == 1 else got.T, weights, k0, {}, Scratch(),
                           groups)
    assert got.tobytes() == want.tobytes()  # bitwise, signed zeros included
    assert spill.hex() == want_spill.hex()


# (lines, line cells, kernel cells, k0[, input cells]): the input cells
# [i0, i1) (all by default) give n_out = i1 - i0 + kernel - 1 output cells, of
# which [max(0, -i0 - k0), min(n_out, cells - i0 - k0)) stay on the line
FOLD_CASES = {
    "1D direct": (None, 300, 45, -7),
    "1D transform": (None, 5000, 45, -7),
    "one row": (1, 300, 45, -7),
    "lo == 0": (9, 300, 45, 5),
    "empty tail": (9, 300, 45, -50),
    "nothing spills": (9, 300, 1, 0),
    "all spill, right": (9, 300, 45, 300),
    "all spill, left": (9, 300, 45, -344),
    "1D all spill": (None, 300, 45, 400),
    "window inside the line": (9, 300, 45, -7, (80, 200)),
    "window, output past both ends": (9, 300, 45, -30, (10, 290)),
    "window left of its output": (9, 300, 45, 60, (20, 120)),
    "window, all spill": (9, 300, 45, 200, (150, 250)),
    "1D window": (None, 300, 45, -7, (50, 120)),
    "1D window, transform": (None, 5000, 45, -7, (1000, 4990)),
}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_fold_into_the_band_matches_the_full_output(case):
    lines, cells, width, k0, *window = FOLD_CASES[case]
    rng = np.random.default_rng(len(case))
    vals = rng.random(cells if lines is None else (lines, cells))
    vals[..., :cells // 4] = 0.0  # an empty stretch, as bands have
    _assert_fold_matches_oracle(vals, rng.random(width), k0, *window)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_fold_of_several_blocks_matches_the_full_output(monkeypatch, threads):
    # blocks of 1-3 rows on 1, 2 and 4 threads, at random shapes and offsets;
    # spills hundreds of cells wide, as at 2048^2, are where a sum over
    # contiguous copies of the spilled columns would round differently
    on_threads(monkeypatch, threads)
    rng = np.random.default_rng(threads)
    for _ in range(40):
        rows = int(rng.integers(1, 12))
        cells = int(rng.integers(20, 3000))
        width = int(rng.integers(1, 2000))
        n_out = cells + width - 1
        k0 = int(rng.integers(-n_out - 3, cells + 3))
        n_fft = next_fast_len(n_out, real=True)
        monkeypatch.setattr(mixed_dist, "_FFT_BLOCK_CELLS",
                            int(rng.integers(1, 4)) * threads * n_fft)
        weights = rng.random(width)
        vals = rng.random((rows, cells)) * (rng.random(cells) < 0.8)
        _assert_fold_matches_oracle(vals, weights, k0)
    # the same with a window of input cells, transformed at its own length
    rng = np.random.default_rng(10 + threads)
    for _ in range(40):
        rows = int(rng.integers(1, 12))
        cells = int(rng.integers(20, 3000))
        i0 = int(rng.integers(0, cells - 1))
        i1 = int(rng.integers(i0 + 1, cells + 1))
        width = int(rng.integers(1, 2000))
        n_out = i1 - i0 + width - 1
        k0 = int(rng.integers(-i0 - n_out - 3, cells - i0 + 3))
        n_fft = next_fast_len(n_out, real=True)
        monkeypatch.setattr(mixed_dist, "_FFT_BLOCK_CELLS",
                            int(rng.integers(1, 4)) * threads * n_fft)
        weights = rng.random(width)
        vals = rng.random((rows, cells)) * (rng.random(cells) < 0.8)
        _assert_fold_matches_oracle(vals, weights, k0, (i0, i1))


def test_fold_reuses_scratch_of_any_earlier_shape():
    # arrays left by a larger, differently shaped call change no value
    rng = np.random.default_rng(9)
    scratch = mixed_dist.Scratch()
    big = rng.random((50, 700))
    convolve_lines(big, big.T, rng.random(90), -20, {}, scratch, [(0, 50, 0, 700)])
    vals = rng.random((7, 300))
    weights = rng.random(45)
    want = vals.copy()
    groups = [(0, 7, 0, 300)]
    spill = convolve_lines(want, want.T, weights, -7, {}, Scratch(), groups)
    got = vals.copy()
    assert convolve_lines(got, got.T, weights, -7, {}, scratch, groups) == spill
    assert got.tobytes() == want.tobytes()


class _GarbageScratch(mixed_dist.Scratch):
    """Scratch whose arrays hold NaN whenever they are handed out."""

    def array(self, name, shape, dtype=float):
        out = super().array(name, shape, dtype)
        out[...] = np.nan
        return out


def test_row_groups_of_one_width_pad_every_row_they_transform():
    # two calls of one transform length, 32 rows and then 64, on one
    # thread's arrays: the rows past the first call's must be padded too
    rng = np.random.default_rng(12)
    band = rng.random((128, 300))
    weights = rng.random(45)
    groups = [(0, 32, 0, 300), (32, 64, 0, 0), (64, 128, 0, 300)]
    got = np.empty((300, 128))
    spill = convolve_lines(band, got, weights, -7, {}, _GarbageScratch(), groups)
    want = np.zeros((300, 128))
    want_spill = 0.0
    for a, b, i0, i1 in groups:
        if i1 > i0:
            want_spill += convolve_lines(band[a:b].copy(), want[:, a:b], weights, -7, {}, Scratch(),
                                         [(0, b - a, 0, 300)])
    assert got.tobytes() == want.tobytes()
    assert spill == want_spill


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
    assert len(d.atom_locs) == 2
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
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
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
    # (shape, pc_r0, pc_c0): rows off either end, no rows, not 2D; columns
    # off either end, no columns, wider than the lattice
    for shape, r0, c0 in (((2, 6), -1, 0), ((2, 6), 7, 0), ((0, 6), 3, 0), ((6,), 0, 0),
                          ((2, 5), 0, 2), ((2, 1), 0, 6), ((2, 3), 0, -1), ((2, 0), 0, 3),
                          ((2, 7), 0, 0)):
        with pytest.raises(ValueError, match="pc band"):
            JointState(stage=0, slope=0.5, lattice=lat, pc=np.ones(shape), pc_r0=r0, pc_c0=c0)
    for shape, r0, c0 in (((8, 6), 0, 0), ((1, 6), 7, 0), ((2, 5), 0, 1), ((1, 1), 7, 5)):
        JointState(stage=0, slope=0.5, lattice=lat, pc=np.ones(shape), pc_r0=r0, pc_c0=c0)


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
