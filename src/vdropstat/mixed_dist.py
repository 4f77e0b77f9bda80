"""Mixed discrete/continuous densities on uniform grids, and the joint
flow-drop state of the dynamic program.

The joint law of (through-flow S, downstream maximal drop D) at any stage
sits on the two carriers that ``dp_engine`` steps:

* grid: the 2D density ``pc`` on D > 0, held as a frame of the lattice: a
  band of D rows (first row ``pc_r0``) over a window of S columns (first
  column ``pc_c0``) that moves with the through-flow from stage to stage,
  plus the hinge ``line``, a 1D density over all the S cells whose mass
  sits at D = max(0, slope * S). Its S < 0 cells form the zero line D = 0;
  its S > 0 cells form the diagonal D = slope * S (mass that had zero drop
  until the latest segment),
* atoms (s, d, m): exact point masses with d >= 0. The start state is
  one; point-mass loads shift them without error, so degenerate feeders
  stay exact, and a continuous load spreads them onto the grid.

Grids share one integer-anchored lattice: S cell edges sit at
``(s_base + j) * s_step`` so that S = 0 is exactly a cell edge, which puts
every line cell on exactly one side of the hinge. D cell edges sit at
``j * d_step``. The drop law integrated out of a state is a
``MixedDensity1D`` (D grid plus atoms) wrapped in a ``DropDistribution``.

``convolve_lines`` convolves lines with the real transforms of
``numpy.fft`` (pocketfft, the code ``scipy.fft`` also runs), so this module
imports no scipy.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import queue
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft

__all__ = [
    "Grid1D",
    "MixedDensity1D",
    "JointLattice",
    "JointState",
    "DropDistribution",
    "pool_threads",
    "map_blocks",
    "Scratch",
    "convolve_lines",
    "next_fast_len",
    "marginal_drop",
    "text_target",
    "write_density_csv",
]

# Values below this are rejected as real negativity; anything in
# [-_NEG_REJECT, 0) is treated as arithmetic dust and clamped to zero.
_NEG_REJECT = 1e-12
# Direct summation below this output size, transform-based above.
_FFT_THRESHOLD = 4096
# The longest transform whose weights' spectrum the caller's cache keeps. A
# band's row groups each take their own length, and a long spectrum kept
# for the rest of a run is a small block that stays in the middle of the
# heap, between a stage's band and the next one: feeder4 2048^2 then peaked
# 25-45 MB higher in the benchmark. A long spectrum costs little next to the
# transforms of a call; short ones recur from stage to stage of a long chain:
# a chain256-256 solve needs 255 spectra of 23 lengths, and computes 23 in
# 0.5 ms with the cache against 255 in 3.8 ms (2% of the solve) without.
_CACHED_FFT_LEN = 1024
# Transform cells that one more call to the transforms is worth: adjacent
# row groups share a call unless that costs more than this beyond the two.
_CALL_CELLS = 1 << 12
# Transform cells per block of lines on one thread (4 MB arrays), shared
# out among a pool's threads, so that the arrays in flight stay the same
# whatever the thread count. A line's result does not depend on the block
# it is transformed in, nor on the thread. Small blocks leave less of the
# heap to fragment as frames change size from stage to stage: feeder4
# 2048^2 after a 1e6-sample Monte Carlo peaks 13 MB lower than with 8 MB
# arrays.
_FFT_BLOCK_CELLS = 1 << 19
# Pool threads at most: bounds the working sets the threads hold (the MC's
# vector sets, the transform blocks) whatever the host's CPU count. Only
# 2-CPU hosts have been measured.
_MAX_THREADS = 4


# ---------------------------------------------------------------------------
# 1D carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform cell-centered density: ``values[i]`` at ``lo + (i+1/2)*step``."""

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError("Grid1D needs at least 2 cells")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.hi > self.lo):
            raise ValueError("Grid1D needs finite hi > lo")
        if not np.all(np.isfinite(vals)):
            raise ValueError("Grid1D values must be finite")
        worst = float(vals.min(initial=0.0))
        if worst < -_NEG_REJECT:
            raise ValueError(f"negative density {worst!r} below the clamping threshold")
        np.clip(vals, 0.0, None, out=vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def cells(self) -> int:
        return len(self.values)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.cells

    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.cells) + 0.5) * self.step

    def edges(self) -> np.ndarray:
        return self.lo + np.arange(self.cells + 1) * self.step

    def mass(self) -> float:
        return float(self.values.sum() * self.step)


def _merge_atoms(locs, masses, tol: float):
    locs = np.asarray(locs, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if locs.shape != masses.shape or locs.ndim != 1:
        raise ValueError("atom locations and masses must be matching 1D arrays")
    if len(locs) == 0:
        return locs, masses
    if not (np.all(np.isfinite(locs)) and np.all(np.isfinite(masses))):
        raise ValueError("atoms must be finite")
    if float(masses.min()) < 0.0:
        raise ValueError("atom masses must be nonnegative")
    keep = masses > 0.0
    locs, masses = locs[keep], masses[keep]
    if len(locs) == 0:
        return locs, masses
    order = np.argsort(locs, kind="stable")
    locs, masses = locs[order], masses[order]
    out_loc: list[float] = []
    out_mass: list[float] = []
    for x, m in zip(locs, masses):
        if out_loc and x - out_loc[-1] <= tol:
            total = out_mass[-1] + m
            # mass-weighted location keeps the mean exact under merging
            out_loc[-1] = (out_loc[-1] * out_mass[-1] + x * m) / total
            out_mass[-1] = total
        else:
            out_loc.append(x)
            out_mass.append(m)
    return np.asarray(out_loc), np.asarray(out_mass)


@dataclass(frozen=True, eq=False)
class MixedDensity1D:
    """Optional continuous grid plus exact atoms.

    Atoms closer than half a cell are merged on construction (weighted by
    mass); ``tail_mass`` records what a truncation dropped so the books
    stay auditable. Total mass may not exceed 1 + 1e-6.
    """

    grid: Grid1D | None = None
    atom_locs: np.ndarray = field(default_factory=lambda: np.empty(0))
    atom_masses: np.ndarray = field(default_factory=lambda: np.empty(0))
    tail_mass: float = 0.0

    def __post_init__(self):
        tol = 0.5 * self.grid.step if self.grid is not None else 0.0
        locs, masses = _merge_atoms(self.atom_locs, self.atom_masses, tol)
        locs.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "atom_locs", locs)
        object.__setattr__(self, "atom_masses", masses)
        if self.tail_mass < 0.0:
            raise ValueError("tail_mass must be nonnegative")
        total = self.total_mass()
        if total > 1.0 + 1e-6:
            raise ValueError(f"total mass {total!r} exceeds 1 beyond tolerance")

    def grid_mass(self) -> float:
        return self.grid.mass() if self.grid is not None else 0.0

    def atom_mass(self) -> float:
        return float(self.atom_masses.sum())

    def total_mass(self) -> float:
        return self.grid_mass() + self.atom_mass()


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def pool_threads(tasks: int | None = None) -> int:
    """Threads for a pool: one per CPU this process may use, but no more
    than _MAX_THREADS or, when given, the number of ``tasks``."""
    threads = min(_cores(), _MAX_THREADS)
    return threads if tasks is None else min(threads, tasks)


def map_blocks(fn, starts, threads: int, scratch) -> None:
    """Call ``fn(start, bufs)`` for every start, on ``threads`` threads.

    ``bufs`` is one of ``threads`` scratch sets, each made by ``scratch()``
    here on the calling thread; a call borrows a free set and puts it back.
    So no pool thread allocates: glibc gives each thread its own malloc
    arena, which would keep the thread's freed arrays resident by an amount
    that varies from run to run. With one thread the calls run in order on
    the calling thread with one set and no pool starts; otherwise the pool
    is started here and joined on return, also when a call raises.
    """
    if threads == 1:
        bufs = scratch()
        for start in starts:
            fn(start, bufs)
        return
    free = queue.SimpleQueue()
    for _ in range(threads):
        free.put(scratch())

    def call(start):
        bufs = free.get()
        try:
            fn(start, bufs)
        finally:
            free.put(bufs)

    with ThreadPoolExecutor(threads) as pool:
        for _ in pool.map(call, starts):
            pass


def _smooth_lengths(limit: int) -> list[int]:
    """Every 2·3·5-smooth number up to ``limit``, ascending."""
    out = []
    p2 = 1
    while p2 <= limit:
        p3 = p2
        while p3 <= limit:
            p5 = p3
            while p5 <= limit:
                out.append(p5)
                p5 *= 5
            p3 *= 3
        p2 *= 2
    return sorted(out)


# 3461 lengths, far past any line that fits in memory (2^40 cells is 8 TB)
_SMOOTH_LENGTHS = _smooth_lengths(1 << 40)


def next_fast_len(n: int) -> int:
    """The smallest 2·3·5-smooth number >= ``n``: a length pocketfft
    transforms fast, as ``scipy.fft.next_fast_len(n, real=True)`` gives it."""
    return _SMOOTH_LENGTHS[bisect_left(_SMOOTH_LENGTHS, n)]


class Scratch:
    """Named arrays kept from call to call, so that repeated work of a similar
    size maps no new memory.

    ``array(name, shape)`` hands out the first prod(shape) cells of the named
    array as that shape. An array is allocated again only when a request
    outgrows it, so each grows to the largest request. Its cells hold
    whatever the last user left there.
    """

    def __init__(self):
        self._arrays: dict = {}

    def array(self, name, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buf = self._arrays.get(name)
        if buf is None or buf.size < size:
            buf = self._arrays[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _calls(groups, line_cells) -> list[tuple[int, int, int, int, int]]:
    """The calls that transform the row groups (a, b, i0, i1) that hold
    input cells: (a, b, i0, i1, cells per line), as ``line_cells(i1 - i0)``
    gives them. A group joins the call before it when that call's lines end
    where the group's begin and the joint call, over both cell ranges,
    costs no more cells than the two apart plus _CALL_CELLS."""
    calls = []
    for a, b, i0, i1 in groups:
        if i1 <= i0:
            continue
        n = line_cells(i1 - i0)
        if calls:
            pa, pb, p0, p1, pn = calls[-1]
            u0, u1 = min(p0, i0), max(p1, i1)
            un = pn if (u0, u1) == (p0, p1) else line_cells(u1 - u0)
            if pb == a and (b - pa) * un <= (pb - pa) * pn + (b - a) * n + _CALL_CELLS:
                calls[-1] = (pa, b, u0, u1, un)
                continue
        calls.append((a, b, i0, i1, n))
    return calls


def _direct(x: np.ndarray, weights: np.ndarray, full: np.ndarray) -> np.ndarray:
    """The full convolutions of the lines of ``x`` with ``weights``, summed
    directly: weights of at most two cells as shifted products written into
    ``full`` (``x`` is scaled in place), others as the ``np.convolve`` of
    the one line of ``x``."""
    if len(weights) > 2:
        return np.convolve(x[0], weights)[np.newaxis]
    n_vals = x.shape[1]
    np.multiply(x, weights[0], out=full[:, :n_vals])
    if len(weights) == 2:
        full[:, n_vals] = 0.0
        x *= weights[1]
        full[:, 1:] += x
    return full


def _fold(lines: np.ndarray, full: np.ndarray, d: int, spills: np.ndarray) -> None:
    """Write the output lines ``full``, one per row, into ``lines``, one per
    column: output cell t on cell d + t, and zeros where no output cell
    lands. Each line's output cells off the low and the high end of
    ``lines`` are summed into its row of ``spills``."""
    n_dest, n_out = len(lines), full.shape[1]
    lo, hi = max(0, -d), min(n_out, n_dest - d)  # output cells [lo, hi) stay
    if hi <= lo:
        lines[...] = 0.0
        np.add.reduce(full, axis=1, out=spills[:, 0])
        return
    if d + lo > 0:
        lines[:d + lo] = 0.0
    lines[d + lo:d + hi] = full[:, lo:hi].T
    if d + hi < n_dest:
        lines[d + hi:] = 0.0
    if lo:
        np.add.reduce(full[:, :lo], axis=1, out=spills[:, 0])
    if hi < n_out:
        np.add.reduce(full[:, hi:], axis=1, out=spills[:, 1])


def convolve_lines(src, dest: np.ndarray, weights: np.ndarray, k0: int,
                   spectra: dict[int, np.ndarray], scratch: Scratch, groups) -> float:
    """Convolve lines of ``src`` with ``weights`` into ``dest``; returns the
    value sum of the output cells that land off ``dest``.

    ``src`` holds the lines' input cells: one line (1D) or a band of lines
    (2D, src[r, c] is cell c of line r), or it is a function ``fill(x, a,
    i0)`` that overwrites every cell of the 2D array ``x`` with the input
    cells [i0, i0 + x.shape[1]) of the lines [a, a + len(x)), one line per
    row. ``dest`` is one line (1D) or a band held S-major (2D): dest[j, i]
    is cell j of line i, so ``band.T`` writes a band's lines back into its
    rows. ``groups`` tiles the lines of ``dest`` in order with row groups
    (a, b, i0, i1): lines [a, b) whose input cells are [i0, i1), all others
    zero (none when i1 <= i0); an array ``src`` holds every cell they name.

    Cell t of the full linear convolution of a line's input cells (n_vals =
    i1 - i0 of them, so n_out = n_vals + len(weights) - 1 output cells) lands
    on dest cell i0 + t + k0 of the line and overwrites it; dest cells that
    no output cell reaches become zero, as do the lines of a group with no
    input cells. Each line's output cells off either end of ``dest`` are
    summed per line, and the spill returned adds up each call's lines in
    call order.

    Weights of at most two cells (a point load's split) shift the lines
    directly, and a single line (1D ``dest``) with fewer than 4096 output
    cells is summed directly. Everything else is transformed, one call per
    group, except that adjacent groups share a call when that costs no more
    than two calls (``_calls``). A call transforms at n_fft =
    ``next_fast_len`` of its n_out, against the weights' spectrum at n_fft
    from ``spectra``, the caller's cache of the weights' transforms by
    length: a missing one is computed here, on the calling thread, and
    stored in it when n_fft is at most _CACHED_FFT_LEN (longer ones serve
    this call only).

    Every call runs one way: its lines go as blocks of rows, and all the
    blocks run through one ``map_blocks``. A block fills its lines' input
    cells into its array (zero-padded when transformed), transforms it
    (``numpy.fft.rfft`` into the block's coefficient array), multiplies by
    the spectrum, transforms back (``numpy.fft.irfft`` into its inverse
    array), clips its transform dust and folds the output, transposed, into
    ``dest`` (``_fold``); a summed block sums its lines into the inverse
    array instead. _FFT_BLOCK_CELLS cells are shared out among
    ``pool_threads()``, and a call is cut into blocks of at most a share.
    Calls whose cells fit one share in all are one block each, run in
    order on the calling thread, with arrays the size of their largest
    block. Otherwise the blocks run on the pool, and each thread holds a
    whole share's arrays (or its largest block's, when one row is more), so
    the arrays in flight come to one block whatever the thread count. Each
    thread's block arrays come from ``scratch``; a thread zeroes the pad of
    a row of its padded array only when the row was last padded for another
    n_fft or n_vals, or not yet in this call. A line comes out bitwise the
    same whatever its block or thread: only the groups decide its call.
    """
    out = dest if dest.ndim == 2 else dest[:, np.newaxis]
    n_w = len(weights)
    fill = src
    if not callable(src):
        band = src if src.ndim == 2 else src[np.newaxis]

        def fill(x, a, i0):
            x[...] = band[a:a + len(x), i0:i0 + x.shape[1]]
    for a, b, i0, i1 in groups:
        if i1 <= i0:
            out[:, a:b] = 0.0
    summed = n_w <= 2 or (dest.ndim == 1 and groups[0][3] - groups[0][2] + n_w - 1 < _FFT_THRESHOLD)
    calls = _calls(groups, lambda n: n + n_w - 1 if summed else next_fast_len(n + n_w - 1))
    # one pass over the calls: their spectra, blocks, array sizes and threads
    threads = pool_threads()
    share = _FFT_BLOCK_CELLS // threads
    own, tasks, cells, coef_cells, total = {}, [], 0, 0, 0
    for a, b, i0, i1, n in calls:
        if not summed and n not in own:
            own[n] = spectra.get(n)
            if own[n] is None:
                own[n] = rfft(weights, n)
                if n <= _CACHED_FFT_LEN:
                    spectra[n] = own[n]
        step = min(max(share // n, 1), b - a)
        tasks += [(s, min(step, b - s), i0, i1 - i0, n) for s in range(a, b, step)]
        cells, coef_cells = max(cells, step * n), max(coef_cells, step * (n // 2 + 1))
        total += (b - a) * n
    if total > share:  # each pool thread holds a whole share
        threads = min(threads, len(tasks))
        cells, coef_cells = max(cells, share), max(coef_cells, share // 2 + 1)
    else:
        threads = 1
    spills = np.zeros((out.shape[1], 2))

    def block(task, bufs):
        # the lines [a, a + k) of one call, over their input cells [i0, i0 +
        # n_vals), at n cells per line
        a, k, i0, n_vals, n = task
        if summed:
            x = bufs[0][:k * n_vals].reshape(k, n_vals)
            fill(x, a, i0)
            full = _direct(x, weights, bufs[2][:k * n].reshape(k, n))
        else:
            padded = bufs[0][:k * n].reshape(k, n)
            n_fft, vals, rows = bufs[3]
            if (n_fft, vals) != (n, n_vals):
                rows = 0
            if k > rows:
                padded[rows:, n_vals:] = 0.0
                bufs[3] = (n, n_vals, k)
            fill(padded[:, :n_vals], a, i0)
            coef = bufs[1][:k * (n // 2 + 1)].reshape(k, n // 2 + 1)
            rfft(padded, axis=-1, out=coef)
            coef *= own[n]
            full = bufs[2][:k * n].reshape(k, n)
            irfft(coef, n, axis=-1, out=full)
            full = full[:, :n_vals + n_w - 1]
            np.maximum(full, 0.0, out=full)
        _fold(out[:, a:a + k], full, i0 + k0, spills[a:a + k])

    def block_set(i):
        # input lines (zero-padded on the transform path), coefficients and
        # inverse of one thread, and (n_fft, n_vals, rows): its padded
        # array's first rows, whose pad is zero for that n_fft and n_vals
        return [scratch.array(("padded", i), (cells,)),
                None if summed else scratch.array(("coef", i), (coef_cells,), complex),
                scratch.array(("inverse", i), (cells,)), (0, 0, 0)]

    ids = itertools.count()
    map_blocks(block, tasks, threads, lambda: block_set(next(ids)))
    spill = 0.0
    for a, b, *_ in calls:
        spill += float(spills[a:b].sum())
    return spill


# ---------------------------------------------------------------------------
# joint state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointLattice:
    """Shared integer-anchored lattice for one DP run.

    S edges at ``(s_base + j) * s_step`` for j = 0..s_cells (so S = 0 is an
    edge whenever s_base <= 0 <= s_base + s_cells), D edges at ``j * d_step``.
    ``stage_tail_budget`` records the per-stage truncation tolerance the
    domain was sized for. The rest records how ``plan_lattice`` sized it and
    sets no geometry: ``s_margin`` cells reserved beyond the S windows at
    each end of the S axis, ``d_margin`` cells reserved at the top of the D
    axis, and ``s_windows[j]``, the (lo, hi) quantile window of stage j's
    through-flow at the stage budget, padded by three planning cells.
    """

    s_base: int
    s_step: float
    s_cells: int
    d_step: float
    d_cells: int
    stage_tail_budget: float = 1e-6
    s_margin: int = 0
    d_margin: int = 0
    s_windows: tuple[tuple[float, float], ...] = field(default=(), repr=False)

    def __post_init__(self):
        if self.s_step <= 0 or self.d_step <= 0:
            raise ValueError("lattice steps must be > 0")
        if self.s_cells < 2 or self.d_cells < 2:
            raise ValueError("lattice needs at least 2 cells per axis")

    @property
    def s_lo(self) -> float:
        return self.s_base * self.s_step

    @property
    def s_hi(self) -> float:
        return (self.s_base + self.s_cells) * self.s_step

    @property
    def d_hi(self) -> float:
        return self.d_cells * self.d_step

    @property
    def hinge(self) -> int:
        """The first S cell on the S >= 0 side, clipped to the lattice: the
        cells before it have centers below zero."""
        return min(max(-self.s_base, 0), self.s_cells)

    def s_centers(self) -> np.ndarray:
        return (self.s_base + np.arange(self.s_cells) + 0.5) * self.s_step

    def d_centers(self) -> np.ndarray:
        return (np.arange(self.d_cells) + 0.5) * self.d_step

    def s_grid(self, values: np.ndarray) -> Grid1D:
        return Grid1D(self.s_lo, self.s_hi, values)

    def d_grid(self, values: np.ndarray) -> Grid1D:
        return Grid1D(0.0, self.d_hi, values)


_EMPTY = np.empty(0)


@dataclass(frozen=True, eq=False)
class JointState:
    """Joint law of (through-flow, downstream maximal drop) at one stage.

    ``pc`` is the 2D density on a frame of the lattice: cell (i, j) of
    ``pc`` is lattice cell (``pc_r0 + i``, ``pc_c0 + j``), the frame lies
    within the lattice, and the cells outside it hold no mass. Any memory
    layout will do; the engine's states hold it S-major (``pc.T`` is
    C-contiguous), as its shear writes it. ``line`` is
    the hinge line density over all the S cells, its mass at
    D = max(0, slope * S). Each is None while it holds no mass. ``slope``
    is the drop coefficient of the most recently applied segment.
    ``atom_s``, ``atom_d`` and ``atom_mass`` list the exact atoms; d = 0
    needs s <= 0, since a positive flow through the latest segment makes a
    positive drop.
    ``lost_mass`` accumulates all logged truncation over the run so far.
    """

    stage: int
    slope: float
    lattice: JointLattice
    pc: np.ndarray | None = None
    pc_r0: int = 0
    pc_c0: int = 0
    line: np.ndarray | None = None
    atom_s: np.ndarray = field(default_factory=lambda: _EMPTY)
    atom_d: np.ndarray = field(default_factory=lambda: _EMPTY)
    atom_mass: np.ndarray = field(default_factory=lambda: _EMPTY)
    lost_mass: float = 0.0

    def __post_init__(self):
        if self.pc is not None:
            lat = self.lattice
            if (self.pc.ndim != 2
                    or not 0 <= self.pc_r0 < self.pc_r0 + len(self.pc) <= lat.d_cells
                    or not 0 <= self.pc_c0 < self.pc_c0 + self.pc.shape[1] <= lat.s_cells):
                raise ValueError("pc band does not fit the lattice")
        if self.line is not None and self.line.shape != (self.lattice.s_cells,):
            raise ValueError("line shape does not match the lattice")
        for arr in (self.atom_s, self.atom_d, self.atom_mass):
            if len(arr) != len(self.atom_s):
                raise ValueError("atom arrays must have equal length")

    @classmethod
    def terminal(cls, lattice: JointLattice, stage: int) -> "JointState":
        """Exact double point mass at (S, D) = (0, 0): nothing downstream."""
        return cls(stage=stage, slope=0.0, lattice=lattice, atom_s=np.array([0.0]),
                   atom_d=np.array([0.0]), atom_mass=np.array([1.0]))

    def pc_mass(self) -> float:
        if self.pc is None:
            return 0.0
        # row sums first, as a stage sums the band it steps
        return float(self.pc.sum(axis=1).sum()) * self.lattice.s_step * self.lattice.d_step

    def hinge_sides(self) -> tuple[Grid1D, Grid1D]:
        """The line cut at S = 0: (zero side on D = 0, diagonal on D = slope * S).

        Both span all S cells, with zeros on the other side of the hinge.
        """
        lat = self.lattice
        zero, diag = np.zeros(lat.s_cells), np.zeros(lat.s_cells)
        if self.line is not None:
            zero[:lat.hinge] = self.line[:lat.hinge]
            diag[lat.hinge:] = self.line[lat.hinge:]
        return lat.s_grid(zero), lat.s_grid(diag)

    def total_mass(self) -> float:
        zero, diag = self.hinge_sides()
        return self.pc_mass() + zero.mass() + diag.mass() + float(self.atom_mass.sum())

    def validate(self, mass_tol: float = 1e-4) -> None:
        """Check the atoms' support and the mass ledger; raises on violation."""
        if np.any(self.atom_d < 0.0) or np.any((self.atom_d == 0.0) & (self.atom_s > 0.0)):
            raise ValueError("atoms must sit at D > 0, or at D = 0 with S <= 0")
        gap = abs(self.total_mass() + self.lost_mass - 1.0)
        if gap > mass_tol:
            raise ValueError(f"mass ledger off by {gap!r}")


def marginal_drop(state: JointState) -> DropDistribution:
    """Integrate the through-flow out of a stage state.

    The zero side of the line collapses into the atom at D = 0, the
    diagonal side maps cell by cell through D = slope * S (conservative
    rebinning onto the D grid, exact for the piecewise-constant line
    density), and each atom stays an exact atom at its d.
    """
    lat = state.lattice
    vals = np.zeros(lat.d_cells)
    if state.pc is not None:
        vals[state.pc_r0:state.pc_r0 + len(state.pc)] += state.pc.sum(axis=1) * lat.s_step

    zero, diag = state.hinge_sides()
    if diag.values.any():
        src_edges = state.slope * diag.edges()
        cum = np.concatenate(([0.0], np.cumsum(diag.values) * diag.step))
        d_edges = np.arange(lat.d_cells + 1) * lat.d_step
        # clamp into [first, last] source edge; outside mass would have been
        # clipped during the shear already
        new_cum = np.interp(d_edges, src_edges, cum)
        vals += np.diff(new_cum) / lat.d_step
        top = float(cum[-1] - new_cum[-1])
        if top > 0.0:
            vals[-1] += top / lat.d_step  # guard: keep any top remainder

    density = MixedDensity1D(
        grid=lat.d_grid(vals),
        atom_locs=np.concatenate(([0.0], state.atom_d)),
        atom_masses=np.concatenate(([zero.mass()], state.atom_mass)),
        tail_mass=state.lost_mass,
    )
    return DropDistribution(density)


# ---------------------------------------------------------------------------
# final drop law
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DropDistribution:
    """Law of the maximal voltage drop: atom(s) plus a continuous density.

    Queries treat cell mass as uniform within its cell, so the CDF is
    piecewise linear between grid edges with jumps at atoms. With the
    default report-only normalization the total mass may fall short of one
    by the logged truncation; queries work on the raw masses.
    """

    density: MixedDensity1D

    def total_mass(self) -> float:
        return self.density.total_mass()

    def atom_at_zero(self) -> float:
        """Mass of the exact-zero drop (atoms within half a cell of zero)."""
        d = self.density
        tol = 0.5 * d.grid.step if d.grid is not None else 0.0
        if not len(d.atom_locs):
            return 0.0
        return float(d.atom_masses[np.abs(d.atom_locs) <= tol].sum())

    def _grid_cum(self):
        g = self.density.grid
        if g is None:
            return np.array([0.0, 0.0]), np.array([0.0, 0.0])
        return g.edges(), np.concatenate(([0.0], np.cumsum(g.values) * g.step))

    def _cdf(self, x, side: str):
        """Grid CDF plus the atoms at or below x ("right") or below x ("left")."""
        x = np.asarray(x, dtype=float)
        edges, cum = self._grid_cum()
        out = np.interp(x, edges, cum)
        d = self.density
        if len(d.atom_locs):
            idx = np.searchsorted(d.atom_locs, x, side=side)
            out = out + np.concatenate(([0.0], np.cumsum(d.atom_masses)))[idx]
        return out if out.ndim else float(out)

    def cdf(self, x):
        """P(D <= x), right-continuous, vectorized."""
        return self._cdf(x, "right")

    def cdf_left(self, x):
        """P(D < x): the left limit of the CDF."""
        return self._cdf(x, "left")

    def prob_exceed(self, x) -> float:
        """P(D > x) under the raw (possibly sub-unit) mass."""
        return float(self.total_mass() - self.cdf(x))

    def knots(self) -> np.ndarray:
        """Points where the CDF changes character; enough for sup-distance scans."""
        edges, _ = self._grid_cum()
        return np.unique(np.concatenate((edges, self.density.atom_locs)))

    def quantile(self, p: float) -> float:
        """Generalized inverse CDF. p above the total mass clamps to the top."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile level {p!r} outside [0, 1]")
        xs = self.knots()
        f_right = np.asarray(self.cdf(xs))
        f_left = np.asarray(self.cdf_left(xs))
        i = int(np.searchsorted(f_right, p, side="left"))
        if i >= len(xs):
            return float(xs[-1])
        if i == 0:
            return float(xs[0])
        if f_left[i] >= p:
            base = f_right[i - 1]
            span = f_left[i] - base
            if span <= 0.0:
                return float(xs[i - 1])
            frac = (p - base) / span
            return float(xs[i - 1] + frac * (xs[i] - xs[i - 1]))
        return float(xs[i])

    def mean_std(self) -> tuple[float, float]:
        """Mean and std of the raw mass (uniform-within-cell second moment)."""
        d = self.density
        mean = 0.0
        second = 0.0
        if d.grid is not None:
            c = d.grid.centers()
            m = d.grid.values * d.grid.step
            mean += float(np.dot(m, c))
            second += float(np.dot(m, c**2) + m.sum() * d.grid.step**2 / 12.0)
        if len(d.atom_locs):
            mean += float(np.dot(d.atom_masses, d.atom_locs))
            second += float(np.dot(d.atom_masses, d.atom_locs**2))
        return mean, math.sqrt(max(second - mean**2, 0.0))

    def renormalized(self) -> "DropDistribution":
        """Scale the raw masses up to total one (explicit opt-in policy)."""
        total = self.total_mass()
        if total <= 0.0:
            raise ValueError("cannot renormalize an empty distribution")
        d = self.density
        grid = None
        if d.grid is not None:
            grid = Grid1D(d.grid.lo, d.grid.hi, d.grid.values / total)
        return DropDistribution(MixedDensity1D(
            grid=grid,
            atom_locs=d.atom_locs.copy(),
            atom_masses=d.atom_masses / total,
            tail_mass=0.0,
        ))


@contextmanager
def text_target(target):
    """Yield a text handle on ``target``: a path opened for writing (and
    closed on exit), or an open handle as given (left open)."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            yield fh
    else:
        yield target


def write_density_csv(target, obj) -> None:
    """Emit a MixedDensity1D or DropDistribution as x,density,atom_mass rows."""
    density = obj.density if isinstance(obj, DropDistribution) else obj
    with text_target(target) as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "density", "atom_mass"])
        if density.grid is not None:
            for x, v in zip(density.grid.centers(), density.grid.values):
                writer.writerow([repr(float(x)), repr(float(v)), "0"])
        for x, m in zip(density.atom_locs, density.atom_masses):
            writer.writerow([repr(float(x)), "0", repr(float(m))])
