"""Deterministic chain flow: linear profile, drop recursion, loss terms."""

import math

import numpy as np
import pytest

from helpers import point_spec, reference_spec, segment
from vdropstat.distflow import (
    NonConvergenceError,
    _batch_delta0,
    _sweep,
    max_drop,
    solve_linear,
    solve_nonlinear,
)
from vdropstat.feeder_model import FeederSpec, PointMass


def test_linear_profile_hand_case():
    # four 2 kW buses behind rho = 1e-3: flows 8, 6, 4, 2
    spec = reference_spec()
    prof = solve_linear(spec, [2.0, 2.0, 2.0, 2.0])
    assert np.allclose(prof.flow_s, [8.0, 6.0, 4.0, 2.0], atol=1e-15)
    assert np.allclose(prof.voltage, [1.0, 0.992, 0.986, 0.982, 0.980], atol=1e-15)
    drop = max_drop(spec, [2.0, 2.0, 2.0, 2.0])
    assert drop.delta0 == pytest.approx(0.020, abs=1e-15)
    assert drop.argmin_bus == 4


def test_mixed_sign_recursion_hand_case():
    # injection upstream cancels the head drop: flows -3, 2
    spec = point_spec([-5.0, 2.0])
    drop = max_drop(spec, [-5.0, 2.0])
    assert drop.delta0 == 0.0
    prof = solve_linear(spec, [-5.0, 2.0])
    assert prof.voltage[1] == pytest.approx(1.003, abs=1e-15)
    assert drop.delta[1] == pytest.approx(0.002, abs=1e-15)


def test_recursion_equals_profile_minimum():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        spec = point_spec(rng.uniform(-4, 6, size=n),
                          r=float(rng.uniform(1e-4, 5e-3)))
        loads = rng.uniform(-4, 6, size=n)
        drop = max_drop(spec, loads)
        prof = solve_linear(spec, loads)
        assert abs(drop.delta0 - (1.0 - prof.voltage.min())) < 1e-12


def test_monotone_loads_make_drop_linear():
    # nonnegative loads keep the profile monotone, so the head drop is the
    # plain weighted sum of flows
    rng = np.random.default_rng(11)
    spec = reference_spec(n=6)
    for _ in range(50):
        loads = rng.uniform(0.0, 5.0, size=6)
        drop = max_drop(spec, loads)
        flow = np.cumsum(loads[::-1])[::-1]
        assert drop.delta0 == pytest.approx(float(np.dot(spec.rho, flow)), abs=1e-15)


def _fold_vectors(samples):
    """The (delta, flow, step) vectors ``_batch_delta0`` folds into."""
    return tuple(np.empty(samples) for _ in range(3))


def test_batch_recursion_matches_scalar():
    rng = np.random.default_rng(3)
    spec = point_spec(rng.uniform(-2, 4, size=5))
    loads = rng.uniform(-4, 6, size=(64, 5))
    # columns from bus N-1
    delta0, head = _batch_delta0(spec.rho, loads.T[::-1], _fold_vectors(64))
    for i in range(64):
        one = max_drop(spec, loads[i])
        assert delta0[i] == one.delta0
        assert head[i] == pytest.approx(loads[i].sum(), rel=1e-12)


def test_batch_recursion_matches_matrix_form():
    # the recursion over a whole (samples, N) matrix, flows by reversed cumsum
    def matrix_form(rho, loads):
        flow = np.cumsum(loads[:, ::-1], axis=1)[:, ::-1]
        delta = np.zeros(loads.shape[0])
        for k in range(loads.shape[1] - 1, -1, -1):
            delta = np.maximum(0.0, delta + rho[k] * flow[:, k])
        return delta, flow[:, 0]

    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 33):
        rho = rng.uniform(1e-4, 5e-3, size=n)
        loads = rng.uniform(-4, 6, size=(257, n))
        loads[:3] = -0.0  # the head flow keeps the sign of zero
        got = _batch_delta0(rho, (loads[:, k] for k in range(n - 1, -1, -1)),
                            _fold_vectors(257))
        want = matrix_form(rho, loads)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
    with pytest.raises(ValueError):
        _batch_delta0(np.ones(3), loads.T[:2], _fold_vectors(257))


def test_nonlinear_converges_near_linear():
    spec = reference_spec()
    loads = [2.0, 2.0, 2.0, 2.0]
    lin = solve_linear(spec, loads)
    non = solve_nonlinear(spec, loads)
    assert non.iterations >= 1
    gap = np.abs(non.voltage - lin.voltage).max()
    # loss terms are quadratic in rho * S
    assert 0.0 < gap < 10.0 * (1e-3 * 8.0) ** 2
    assert non.voltage[0] == 1.0


def test_nonlinear_with_reactive_part():
    spec = FeederSpec(
        base_voltage=1.0,
        alpha=0.5,
        segments=(segment(1e-3, x=0.5e-3), segment(1e-3, x=0.5e-3)),
        loads=(PointMass(location=2.0), PointMass(location=2.0)),
    )
    non = solve_nonlinear(spec, [2.0, 2.0])
    assert non.flow_s == pytest.approx(non.flow_p + 0.5 * non.flow_q)
    assert np.all(np.diff(non.voltage) < 0.0)


def test_nonlinear_divergence_raises():
    spec = point_spec([0.95], r=1.0)
    with np.errstate(over="ignore"), pytest.raises(NonConvergenceError):
        solve_nonlinear(spec, [0.95])


def scalar_sweep(spec, loads, tol=1e-10, max_iter=100):
    """The sweep one sample and one node at a time, in Python floats: the
    reference of the vectorised sweep, which may round a square differently
    in the last bit. Returns (voltage, flow_p, flow_q, iterations)."""
    p_load = [float(s) / (1.0 + spec.alpha**2) for s in loads]
    q_load = [spec.alpha * p for p in p_load]
    n = spec.n
    r = [seg.r for seg in spec.segments]
    x = [seg.x for seg in spec.segments]
    voltage = [spec.base_voltage] * (n + 1)
    flow_p = list(np.cumsum(p_load[::-1])[::-1])
    flow_q = list(np.cumsum(q_load[::-1])[::-1])
    for iteration in range(1, max_iter + 1):
        loss_p = [r[j] * (flow_p[j]**2 + flow_q[j]**2) / voltage[j]**2 for j in range(n)]
        loss_q = [x[j] * (flow_p[j]**2 + flow_q[j]**2) / voltage[j]**2 for j in range(n)]
        new_p, new_q = [0.0] * n, [0.0] * n
        for j in range(n - 1, -1, -1):
            new_p[j] = p_load[j] + loss_p[j] + (new_p[j + 1] if j + 1 < n else 0.0)
            new_q[j] = q_load[j] + loss_q[j] + (new_q[j + 1] if j + 1 < n else 0.0)
        new_v = [spec.base_voltage] + [0.0] * n
        for j in range(n):
            vsq = new_v[j]**2
            vv = (vsq - 2.0 * (r[j] * new_p[j] + x[j] * new_q[j])
                  + (r[j]**2 + x[j]**2) * (new_p[j]**2 + new_q[j]**2) / vsq)
            if not 0.0 < vv < math.inf:
                raise NonConvergenceError(f"voltage collapse at node {j + 1}")
            new_v[j + 1] = math.sqrt(vv)
        change = max(abs(a - b) for a, b in zip(new_v, voltage))
        voltage, flow_p, flow_q = new_v, new_p, new_q
        if change < tol:
            return voltage, flow_p, flow_q, iteration
    raise NonConvergenceError("no convergence")


def test_sweep_rows_equal_the_one_row_solve():
    # rows of different load scales stop at different iterations; each must
    # keep its own last iterate, bit for bit what the one-row call gives
    rng = np.random.default_rng(17)
    for n, alpha in ((1, 0.0), (4, 0.5), (9, 0.2), (23, 1.0)):
        r = rng.uniform(0.2, 1.0, size=n) * 0.01 / n
        spec = FeederSpec(base_voltage=1.0, alpha=alpha,
                          segments=tuple(segment(v, x=alpha * v) for v in r),
                          loads=tuple(PointMass(location=0.0) for _ in r))
        loads = rng.uniform(-3.0, 6.0, size=(40, n)) * rng.uniform(0.0, 1.5, size=(40, 1))
        loads[0] = 0.0
        voltage, flow_p, flow_q, iterations = _sweep(spec, loads)
        assert len(set(iterations.tolist())) >= 3
        for i in range(len(loads)):
            one = solve_nonlinear(spec, loads[i])
            assert type(one.iterations) is int
            assert one.iterations == iterations[i]
            for got, want in ((voltage[i], one.voltage), (flow_p[i], one.flow_p),
                              (flow_q[i], one.flow_q)):
                assert got.tobytes() == want.tobytes()
            *ref, ref_iterations = scalar_sweep(spec, loads[i])
            assert one.iterations == ref_iterations
            for got, want in zip((one.voltage, one.flow_p, one.flow_q), ref):
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_sweep_batch_with_one_collapsing_row_raises():
    spec = point_spec([0.0], r=1.0)
    loads = np.array([[0.0], [0.1], [0.95], [0.2]])
    voltage, _, _, iterations = _sweep(spec, loads[[0, 1, 3]])
    assert np.all(voltage > 0.5) and iterations.max() > 1
    # the other rows stop converged while the collapsing one still sweeps
    with np.errstate(over="ignore"), pytest.raises(NonConvergenceError,
                                                   match="collapse at node 1"):
        _sweep(spec, loads)


def test_load_vector_validation():
    spec = reference_spec()
    with pytest.raises(ValueError, match="expected 4"):
        solve_linear(spec, [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        max_drop(spec, [1.0, np.nan, 0.0, 0.0])
