"""Deterministic power flow along the chain, linear and nonlinear.

Node 0 is the substation at the base voltage; segment j feeds node j+1,
which carries the combined load ``loads[j]`` (kW). The linearized model
drops the quadratic loss terms, giving the backward flow sum

    S_j = s_j + s_{j+1} + ... + s_{N-1}        (flow through segment j)

and the forward voltage profile V_{j+1} = V_j - rho_j * S_j. The nonlinear
solver keeps the loss terms and exists to quantify the linearization error;
everything statistical downstream is built on the linear model. Its sweep
(``_sweep``) solves a whole samples x N block of load vectors at once, each
row stopping at its own convergence; ``solve_nonlinear`` is its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feeder_model import FeederSpec

__all__ = [
    "FlowProfile",
    "DropResult",
    "NonConvergenceError",
    "solve_linear",
    "solve_nonlinear",
    "max_drop",
]


class NonConvergenceError(RuntimeError):
    """The backward/forward sweep diverged or ran out of iterations."""


@dataclass(frozen=True)
class FlowProfile:
    """Per-node voltages (length N+1, index 0 = substation) and per-segment
    flows (length N). ``flow_s = flow_p + alpha * flow_q`` is the combined
    flow the drop statistics are built on. The virtual flow beyond the last
    node is identically zero and not stored."""

    voltage: np.ndarray
    flow_p: np.ndarray
    flow_q: np.ndarray
    flow_s: np.ndarray
    iterations: int = 0

    def __post_init__(self):
        n = len(self.flow_s)
        if len(self.voltage) != n + 1 or len(self.flow_p) != n or len(self.flow_q) != n:
            raise ValueError("inconsistent array lengths in FlowProfile")


@dataclass(frozen=True)
class DropResult:
    """Maximal downstream voltage drop. ``delta[k]`` is the drop seen at
    node k looking toward the end of the feeder (length N+1, so delta[0]
    is the feeder-head value and delta[N] is zero by construction)."""

    delta: np.ndarray
    delta0: float
    argmin_bus: int


def _combined_loads(spec: FeederSpec, loads) -> np.ndarray:
    s = np.asarray(loads, dtype=float)
    if s.shape != (spec.n,):
        raise ValueError(f"expected {spec.n} load values, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("loads must be finite")
    return s


def _split_pq(spec: FeederSpec, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Combined demand s = p + alpha*q with q/p = alpha (load power factor
    # matching the homogeneous line x/r), hence p = s/(1+alpha^2).
    p = s / (1.0 + spec.alpha**2)
    return p, spec.alpha * p


def _suffix_sums(a: np.ndarray) -> np.ndarray:
    """Sums from each entry to the end of the last axis: the flows of loads."""
    return np.cumsum(a[..., ::-1], axis=-1)[..., ::-1]


def solve_linear(spec: FeederSpec, loads) -> FlowProfile:
    """Lossless linearized profile for one realized load vector (kW)."""
    s = _combined_loads(spec, loads)
    flow_s = _suffix_sums(s)
    rho = spec.rho
    voltage = np.empty(spec.n + 1)
    voltage[0] = spec.base_voltage
    voltage[1:] = spec.base_voltage - np.cumsum(rho * flow_s)
    p, q = _split_pq(spec, s)
    return FlowProfile(
        voltage=voltage,
        flow_p=_suffix_sums(p),
        flow_q=_suffix_sums(q),
        flow_s=flow_s,
    )


# A collapsing sweep can overflow to inf or nan on its way to the V^2 check,
# which reports it as NonConvergenceError; numpy need not warn as well.
@np.errstate(over="ignore", invalid="ignore")
def _sweep(spec: FeederSpec, loads: np.ndarray, tol: float = 1e-10,
           max_iter: int = 100) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward/forward sweep with quadratic loss terms (Baran & Wu 1989),
    one sample per row of ``loads`` (samples x N).

    The backward pass rebuilds segment flows from the end using the previous
    iterate's voltages in the loss terms; the forward pass updates squared
    voltages from the substation, node by node for all rows at once. A row
    stops when its largest voltage change falls below ``tol``, so it gets
    exactly what a sweep of that row alone gives. Returns (voltage, flow_p,
    flow_q, iterations) per row. Raises NonConvergenceError when a row's
    squared voltage goes nonpositive (physical collapse) or not finite, or
    a row hits the iteration cap.
    """
    p_load, q_load = _split_pq(spec, loads)
    r, x = np.array([(seg.r, seg.x) for seg in spec.segments]).T
    voltage = np.full((len(loads), spec.n + 1), spec.base_voltage)
    flow_p, flow_q = _suffix_sums(p_load), _suffix_sums(q_load)
    iterations = np.zeros(len(loads), dtype=np.int64)
    live = np.arange(len(loads))  # the rows still sweeping

    for iteration in range(1, max_iter + 1):
        v = voltage[live]
        sq = flow_p[live]**2 + flow_q[live]**2
        vsq_send = v[:, :-1] ** 2
        # Balance at the receiving node: P_j = loss_j + p_{j+1} + P_{j+1},
        # so each segment's flow carries its own loss.
        new_p = _suffix_sums(p_load[live] + r * sq / vsq_send)
        new_q = _suffix_sums(q_load[live] + x * sq / vsq_send)

        new_v = np.empty_like(v)
        new_v[:, 0] = spec.base_voltage
        for j in range(spec.n):
            vsq = new_v[:, j] ** 2
            vv = (vsq
                  - 2.0 * (r[j] * new_p[:, j] + x[j] * new_q[:, j])
                  + (r[j]**2 + x[j]**2) * (new_p[:, j]**2 + new_q[:, j]**2) / vsq)
            bad = ~((vv > 0.0) & (vv < np.inf))
            if bad.any():
                raise NonConvergenceError(
                    f"voltage collapse at node {j + 1} (V^2 = {vv[bad.argmax()]:.6g})")
            np.sqrt(vv, out=new_v[:, j + 1])

        done = np.abs(new_v - v).max(axis=1) < tol
        voltage[live], flow_p[live], flow_q[live] = new_v, new_p, new_q
        iterations[live[done]] = iteration
        live = live[~done]
        if not len(live):
            return voltage, flow_p, flow_q, iterations

    raise NonConvergenceError(f"no convergence in {max_iter} iterations")


def solve_nonlinear(spec: FeederSpec, loads, tol: float = 1e-10,
                    max_iter: int = 100) -> FlowProfile:
    """The loss-keeping sweep (``_sweep``) for one realized load vector (kW)."""
    s = _combined_loads(spec, loads)
    voltage, flow_p, flow_q, iterations = _sweep(spec, s[None, :], tol, max_iter)
    return FlowProfile(
        voltage=voltage[0],
        flow_p=flow_p[0],
        flow_q=flow_q[0],
        flow_s=flow_p[0] + spec.alpha * flow_q[0],
        iterations=int(iterations[0]),
    )


def _batch_delta0(rho: np.ndarray, columns,
                  out=None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized drop recursion over a batch of samples, folded bus by bus.

    ``columns`` yields one load vector per bus (one value per sample) from
    the feeder end: bus N-1 first, bus 0 last. Each is added to the running
    flow in that order, the order of a reversed cumsum, and folded at once
    into the running drop. Returns (delta0, head_flow). ``out``, if given,
    is (delta, flow, step): float64 vectors of the batch's length that the
    fold writes in place, the last one scratch, so a caller that reuses
    them allocates nothing. ``max_drop`` keeps the per-node form of the
    same recursion, whose intermediate drops ``deterministic`` reports.
    """
    delta, flow, step = out if out is not None else (None, None, None)
    first = True
    for k, col in zip(range(len(rho) - 1, -1, -1), columns, strict=True):
        if first:
            first = False
            if out is None:
                delta = np.empty(len(col))
                flow = np.empty_like(delta)
                step = np.empty_like(delta)
            # a copy, not zeros + col, so a head flow of -0.0 keeps its sign
            flow[...] = col
            delta.fill(0.0)
        else:
            flow += col
        np.multiply(rho[k], flow, out=step)
        np.add(delta, step, out=step)
        np.maximum(0.0, step, out=delta)
    return delta, flow


def max_drop(spec: FeederSpec, loads) -> DropResult:
    """Maximal drop Delta_0 = V_0 - min_k V_k via the backward recursion.

    delta[k] accumulates max(0, delta[k+1] + rho_k * S_k) from the feeder
    end; the head value equals the profile drop identically (the recursion
    is an algebraic rewrite of the running minimum).
    """
    s = _combined_loads(spec, loads)
    rho = spec.rho
    flow = _suffix_sums(s)
    delta = np.zeros(spec.n + 1)
    for k in range(spec.n - 1, -1, -1):
        delta[k] = max(0.0, delta[k + 1] + rho[k] * flow[k])
    profile = solve_linear(spec, s)
    return DropResult(
        delta=delta,
        delta0=float(delta[0]),
        argmin_bus=int(np.argmin(profile.voltage)),
    )
