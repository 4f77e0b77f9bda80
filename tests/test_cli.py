"""End-to-end runs of every subcommand against real configs."""

import json
import math

import numpy as np
import pytest

from helpers import CONFIG4, reference_spec, single_point_config, write_config
from vdropstat import cli, mixed_dist
from vdropstat.cli import _sweep_spec, main
from vdropstat.feeder_model import FeederConfigError, PointMass


CFG_FLAGS = ["--grid-s", "256", "--grid-delta", "256"]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_validate_ok(capsys):
    assert main(["validate", str(CONFIG4)]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "4 buses" in out


def test_missing_config_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", str(tmp_path / "nope.json"),
                 "--out-dir", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["validate", str(bad)]) == 1
    assert main(["mc", str(bad), "--out-dir", str(out)]) == 1
    assert "malformed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, level", [("analyze", "1.5"), ("mc", "-0.1"),
                                            ("analyze", "nan")])
def test_bad_quantile_exits_1_before_writing(tmp_path, capsys, command, level):
    out = tmp_path / "out"
    code = main([command, str(CONFIG4), "--quantile", "0.5", "--quantile", level,
                 "--seed", "1", "--out-dir", str(out)])
    assert code == 1
    assert "outside [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_deterministic_outputs(tmp_path):
    out = tmp_path / "det"
    assert main(["deterministic", str(CONFIG4), "--out-dir", str(out)]) == 0
    payload = read_json(out / "deterministic.json")
    assert payload["command"] == "deterministic"
    assert payload["loads"] == [2.0, 2.0, 2.0, 2.0]
    lin = payload["linear"]
    assert lin["delta0"] == pytest.approx(0.020, abs=1e-15)
    assert lin["argmin_bus"] == 4
    assert lin["head_flow"] == pytest.approx(8.0)
    assert len(lin["voltage"]) == 5
    non = payload["nonlinear"]
    assert non["iterations"] >= 1
    assert non["delta0"] == pytest.approx(0.020, abs=1e-3)
    assert non["delta0"] > lin["delta0"]


def test_analyze_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(mixed_dist, "_cores", lambda: 3)
    out = tmp_path / "an"
    code = main(["analyze", str(CONFIG4), *CFG_FLAGS, "--seed", "5",
                 "--threshold", "0.05", "--out-dir", str(out)])
    assert code == 0
    assert (out / "drop_marginal.csv").exists()
    assert (out / "joint.csv").exists()
    payload = read_json(out / "summary.json")
    assert payload["command"] == "analyze"
    assert payload["seed"] == 5
    assert payload["config"]["grid_s"] == 256
    assert abs(payload["mass"]["ledger_gap"]) < 1e-9
    assert payload["mass"]["lost"] < 1e-4
    assert payload["mass"]["total"] == pytest.approx(1.0, abs=1e-4)
    assert 0.0 < payload["atom_at_zero"] < 0.2
    assert set(payload["quantiles"]) == {"0.5", "0.9", "0.99"}
    assert set(payload["exceedance"]) == {"0.05"}
    # the config, lattice and stage blocks are the records' own fields, so a
    # renamed field shows up here as a schema change
    assert set(payload["config"]) == {"grid_s", "grid_delta", "tail_tol", "renormalize"}
    assert set(payload["lattice"]) == {
        "s_base", "s_step", "s_cells", "d_step", "d_cells", "stage_tail_budget",
        "s_margin", "d_margin", "s_windows"}
    assert len(payload["stages"]) == 4
    for stage in payload["stages"]:
        assert set(stage) == {
            "stage", "seconds", "kernel_tail", "boundary_spill", "window_cut",
            "cumulative_lost", "rows", "cols", "masses", "phase_s", "minor_faults"}
        assert set(stage["phase_s"]) <= {"kernel", "lift", "convolve", "shear", "lines"}
        r0, r1 = stage["rows"]
        assert 0 <= r0 <= r1 <= 256
        c0, c1 = stage["cols"]
        assert 0 <= c0 <= c1 <= payload["lattice"]["s_cells"]
        assert (c1 > c0) == (r1 > r0)  # a band with rows has occupied columns
        assert set(stage["masses"]) == {"grid", "zero", "diag", "atoms"}
        assert isinstance(stage["minor_faults"], int) and stage["minor_faults"] >= 0
    lat = payload["lattice"]
    assert lat["s_cells"] >= 256 and lat["d_cells"] == 256
    assert lat["s_step"] > 0.0 and lat["d_step"] > 0.0
    assert lat["s_base"] < 0 < lat["s_base"] + lat["s_cells"]  # feeder4 injects
    assert 0.0 < lat["stage_tail_budget"] < payload["config"]["tail_tol"]
    assert lat["s_margin"] == lat["d_margin"] == 6  # ceil(3 sqrt(4)) cells
    # what the stages logged as kernel tail, spill and trimmed rows is the lost mass
    assert all(0.0 <= st["window_cut"] <= lat["stage_tail_budget"] for st in payload["stages"])
    assert sum(st["kernel_tail"] + st["boundary_spill"] + st["window_cut"]
               for st in payload["stages"]) == pytest.approx(payload["mass"]["lost"], rel=1e-12)
    assert len(lat["s_windows"]) == 4  # one [lo, hi] per stage, stage 0 first
    s_lo = (lat["s_base"] + lat["s_margin"]) * lat["s_step"]
    s_hi = (lat["s_base"] + lat["s_cells"] - lat["s_margin"]) * lat["s_step"]
    assert all(s_lo < lo < hi < s_hi for lo, hi in lat["s_windows"])
    assert payload["threads"] == 3  # one per CPU, on a host that has three
    # the first stage starts from the (0, 0) atom: no 2D grid yet
    assert payload["stages"][0]["rows"] == [0, 0]
    assert payload["stages"][0]["cols"] == [0, 0]
    assert payload["stages"][-1]["rows"][1] > 0
    assert payload["exceed_twice_mean"]["threshold"] == pytest.approx(
        2.0 * payload["mean"])
    header = (out / "joint.csv").read_text().split("\n", 1)[0]
    assert header == "part,s,delta,density,atom_mass"


def test_close_levels_keep_their_own_keys(tmp_path):
    # levels that agree to 6 digits used to share one key, dropping a value
    levels = ["0.9999991", "0.9999994"]
    flags = [arg for q in levels for arg in ("--quantile", q)]
    out = tmp_path / "close"
    assert main(["analyze", str(CONFIG4), *CFG_FLAGS, *flags, "--threshold", "0.0500001",
                 "--threshold", "0.0500002", "--skip-joint", "--seed", "1",
                 "--out-dir", str(out)]) == 0
    payload = read_json(out / "summary.json")
    assert list(payload["quantiles"]) == levels
    assert list(payload["exceedance"]) == ["0.0500001", "0.0500002"]
    assert main(["mc", str(CONFIG4), "--samples", "1000", *flags, "--seed", "1",
                 "--out-dir", str(out)]) == 0
    assert list(read_json(out / "mc_summary.json")["quantiles"]) == levels
    assert main(["sweep", str(CONFIG4), "--parameter", "load-mean-scale",
                 "--values", "1.0000001,1.0000002", *CFG_FLAGS, "--out-dir", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    assert [float(r.split(",")[0]) for r in rows] == [1.0000001, 1.0000002]


def test_analyze_skip_joint(tmp_path):
    out = tmp_path / "an2"
    code = main(["analyze", str(CONFIG4), *CFG_FLAGS, "--seed", "1",
                 "--skip-joint", "--out-dir", str(out)])
    assert code == 0
    assert not (out / "joint.csv").exists()
    assert (out / "summary.json").exists()


def test_analyze_point_mass_exact(tmp_path):
    cfg = single_point_config(tmp_path, location=2.0, r=1e-3)
    out = tmp_path / "pm"
    code = main(["analyze", str(cfg), "--grid-s", "64", "--grid-delta", "64",
                 "--seed", "1", "--out-dir", str(out)])
    assert code == 0
    payload = read_json(out / "summary.json")
    assert payload["mean"] == 0.002
    assert payload["std"] == 0.0
    assert payload["atom_at_zero"] == 0.0
    assert payload["quantiles"]["0.5"] == 0.002
    assert payload["mass"]["total"] == 1.0
    assert payload["mass"]["lost"] == 0.0


def test_analyze_renormalize(tmp_path):
    out = tmp_path / "rn"
    code = main(["analyze", str(CONFIG4), *CFG_FLAGS, "--seed", "1",
                 "--renormalize", "--skip-joint", "--out-dir", str(out)])
    assert code == 0
    payload = read_json(out / "summary.json")
    assert payload["mass"]["total"] == pytest.approx(1.0, abs=1e-12)
    assert payload["config"]["renormalize"] is True


def test_mc_outputs(tmp_path):
    out = tmp_path / "mc"
    code = main(["mc", str(CONFIG4), "--samples", "5000", "--seed", "11",
                 "--out-dir", str(out)])
    assert code == 0
    lines = (out / "mc_samples.csv").read_text().strip().split("\n")
    assert lines[0] == "delta0"
    assert len(lines) == 5001
    vals = np.array([float(v) for v in lines[1:]])
    assert np.all(np.diff(vals) >= 0.0)  # sorted drops
    payload = read_json(out / "mc_summary.json")
    assert payload["seed"] == 11
    assert payload["samples"] == 5000
    assert payload["nonlinear"] is False
    assert 0.0 <= payload["zero_fraction"] < 0.2
    assert payload["mean"] == pytest.approx(vals.mean())
    assert payload["seconds"] > 0.0
    assert payload["samples_per_s"] > 0.0
    assert payload["samples_per_s"] == pytest.approx(5000 / payload["seconds"])
    # 5000 samples fit one batch, which runs on the calling thread
    assert payload["batch_samples"] == 5000
    assert payload["threads"] == 1


def test_mc_nonlinear_collapse_exits_2_without_output(tmp_path, capsys):
    feeder = read_json(CONFIG4)
    for seg in feeder["segments"]:
        seg["r"] = 0.05  # the sweep collapses at these loads
    cfg = write_config(tmp_path / "weak.json", feeder)
    out = tmp_path / "out"
    code = main(["mc", cfg, "--samples", "200", "--seed", "1", "--nonlinear",
                 "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "voltage collapse" in err
    assert "np.float64" not in err
    assert not (out / "mc_samples.csv").exists()


def test_mc_with_s0(tmp_path):
    out = tmp_path / "mc2"
    code = main(["mc", str(CONFIG4), "--samples", "100", "--seed", "11",
                 "--with-s0", "--out-dir", str(out)])
    assert code == 0
    lines = (out / "mc_samples.csv").read_text().strip().split("\n")
    assert lines[0] == "s0,delta0"
    assert len(lines) == 101
    s0, d0 = map(float, lines[1].split(","))
    assert d0 >= max(0.0, 1e-3 * s0) - 1e-15


def test_compare_passes_and_gates(tmp_path):
    out = tmp_path / "cmp"
    args = ["compare", str(CONFIG4), *CFG_FLAGS, "--samples", "20000",
            "--seed", "7", "--out-dir", str(out)]
    assert main(args) == 0
    payload = read_json(out / "compare.json")
    assert payload["passed"] is True
    assert payload["seed"] == 7
    names = [c["name"] for c in payload["checks"]]
    assert names == ["ks_distance", "zero_atom_gap"]
    band = payload["stats"]["dkw_band"]  # reported beside the gate, not gating
    assert band["eps"] == pytest.approx(math.sqrt(math.log(40.0) / 40_000), rel=1e-12)
    # the solve's config block is analyze's, plus the sample count
    assert main(["analyze", str(CONFIG4), *CFG_FLAGS, "--skip-joint",
                 "--out-dir", str(tmp_path / "an")]) == 0
    config = dict(payload["config"])
    assert config.pop("samples") == 20000
    assert config == read_json(tmp_path / "an" / "summary.json")["config"]
    # same data, absurd threshold: the gate must trip with exit code 3
    out2 = tmp_path / "cmp2"
    args2 = ["compare", str(CONFIG4), *CFG_FLAGS, "--samples", "20000",
             "--seed", "7", "--ks-threshold", "1e-9", "--out-dir", str(out2)]
    assert main(args2) == 3
    assert read_json(out2 / "compare.json")["passed"] is False


def test_compare_bad_samples_exit_1_before_solving(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the DP solve ran")

    monkeypatch.setattr(cli, "run", no_run)
    out = tmp_path / "cmp0"
    code = main(["compare", str(CONFIG4), *CFG_FLAGS, "--samples", "0",
                 "--seed", "1", "--out-dir", str(out)])
    assert code == 1
    assert "need at least one sample" in capsys.readouterr().err
    assert not out.exists()


def chain64_config(tmp_path):
    """feeder4's bus repeated 64 times: loses mass past the gate at 16^2."""
    feeder = read_json(CONFIG4)
    feeder["segments"] = feeder["segments"][:1] * 64
    feeder["loads"] = feeder["loads"][:1] * 64
    return write_config(tmp_path / "chain64.json", feeder)


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_mass_loss_exits_2_without_output(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main([command, chain64_config(tmp_path), "--grid-s", "16", "--grid-delta", "16",
                 "--seed", "1", "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "mass loss" in err
    assert not out.exists()


def test_compare_point_mass_is_exact(tmp_path):
    cfg = single_point_config(tmp_path, location=2.0, r=1e-3)
    out = tmp_path / "cmp_pm"
    code = main(["compare", str(cfg), "--grid-s", "64", "--grid-delta", "64",
                 "--samples", "1000", "--seed", "1", "--out-dir", str(out)])
    assert code == 0
    payload = read_json(out / "compare.json")
    checks = {c["name"]: c["value"] for c in payload["checks"]}
    assert checks["ks_distance"] == 0.0
    assert checks["zero_atom_gap"] == 0.0


def test_sweep_csv(tmp_path):
    out = tmp_path / "sw"
    code = main(["sweep", str(CONFIG4), "--parameter", "bus-count",
                 "--values", "4,8", *CFG_FLAGS, "--out-dir", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "value,mean_drop,threshold,exceed_prob,runtime_s"
    assert len(lines) == 3
    for row in lines[1:]:
        value, mean, threshold, prob, runtime = map(float, row.split(","))
        assert threshold == pytest.approx(2.0 * mean)
        assert 0.0 <= prob <= 1.0
        assert runtime > 0.0
    v4, v8 = (float(r.split(",")[1]) for r in lines[1:])
    assert v8 > v4  # longer feeder, deeper drop


def test_sweep_explicit_threshold(tmp_path):
    out = tmp_path / "sw_t"
    code = main(["sweep", str(CONFIG4), "--parameter", "load-mean-scale",
                 "--values", "1.0", "--threshold", "0.05", *CFG_FLAGS,
                 "--out-dir", str(out)])
    assert code == 0
    row = (out / "sweep.csv").read_text().strip().split("\n")[1]
    assert float(row.split(",")[2]) == 0.05


def test_sweep_rejects_a_second_threshold(tmp_path, capsys):
    out = tmp_path / "sw_tt"
    code = main(["sweep", str(CONFIG4), "--parameter", "load-mean-scale",
                 "--values", "1.0", "--threshold", "0.01", "--threshold", "0.05",
                 *CFG_FLAGS, "--out-dir", str(out)])
    assert code == 1
    assert "at most one --threshold" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_bad_values_exit_1(tmp_path, capsys):
    out = tmp_path / "sw_bad"
    code = main(["sweep", str(CONFIG4), "--parameter", "bus-count",
                 "--values", "4,oops", "--out-dir", str(out)])
    assert code == 1
    assert "cannot parse" in capsys.readouterr().err
    assert not out.exists()
    code = main(["sweep", str(CONFIG4), "--parameter", "bus-count",
                 "--values", "2.5", "--out-dir", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--parameter", "bus-count", "--values", "4,inf"],
    ["sweep", "--parameter", "load-mean-scale", "--values", "nan"],
    ["sweep", "--parameter", "bus-count", "--values", "4", "--threshold=-inf"],
    ["analyze", "--threshold", "nan"],
], ids=["sweep-inf", "sweep-nan", "sweep-threshold", "analyze-threshold"])
def test_non_finite_numbers_exit_1_before_writing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main([argv[0], str(CONFIG4), *argv[1:], *CFG_FLAGS, "--out-dir", str(out)])
    assert code == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_injection_scale_needs_two_sided(tmp_path, capsys):
    cfg = single_point_config(tmp_path, location=2.0, r=1e-3)
    out = tmp_path / "sw_pm"
    code = main(["sweep", str(cfg), "--parameter",
                 "injection-probability-scale", "--values", "2",
                 "--out-dir", str(out)])
    assert code == 1
    assert "two-sided" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_spec_transforms():
    spec = reference_spec()
    wide = _sweep_spec(spec, "bus-count", 6)
    assert wide.n == 6
    assert wide.segments[4].rho == spec.segments[0].rho
    assert wide.loads[5] is spec.loads[1]

    flat = _sweep_spec(spec, "load-mean-scale", 0.0)
    assert all(isinstance(d, PointMass) and d.location == 0.0
               for d in flat.loads)

    tilted = _sweep_spec(spec, "injection-probability-scale", 2.0)
    d0, d1 = spec.loads[0], tilted.loads[0]
    assert d1.weight == 0.2
    assert d1.rate_pos == 3.0
    assert d1.rate_neg == 0.5
    odds0 = d0.neg_mass / (1.0 - d0.neg_mass)
    odds1 = d1.neg_mass / (1.0 - d1.neg_mass)
    assert odds1 / odds0 == pytest.approx(2.0, rel=1e-14)

    with pytest.raises(FeederConfigError):
        _sweep_spec(spec, "injection-probability-scale", 0.0)
    with pytest.raises(FeederConfigError):
        _sweep_spec(spec, "load-mean-scale", -1.0)


def test_sweep_mass_loss_exit_2(tmp_path, capsys):
    out = tmp_path / "sw_ml"
    code = main(["sweep", str(CONFIG4), "--parameter", "bus-count",
                 "--values", "64", "--grid-s", "16", "--grid-delta", "16",
                 "--out-dir", str(out)])
    assert code == 2
    assert "mass loss" in capsys.readouterr().err
    # the csv stays, holding whatever completed before the abort
    assert (out / "sweep.csv").exists()


def test_analyze_seed_echoed_when_omitted(tmp_path):
    out = tmp_path / "an3"
    code = main(["analyze", str(CONFIG4), *CFG_FLAGS, "--skip-joint",
                 "--out-dir", str(out)])
    assert code == 0
    payload = read_json(out / "summary.json")
    assert isinstance(payload["seed"], int)
    assert 0 <= payload["seed"] < 2**32


@pytest.mark.parametrize("locations, part", [
    ([-2.0], "zero"),                    # ends on the zero line
    ([2.0], "diag"),                     # ends on the diagonal
    ([-1.0, 2.0, -3.0, 4.0, 1.0], "atom"),  # ends off both lines
])
def test_joint_csv_atom_rows_are_numbers(tmp_path, locations, part):
    config = write_config(tmp_path / "points.json", {
        "base_voltage": 1.0,
        "alpha": 0.0,
        "segments": [{"r": 1e-3, "x": 0.0} for _ in locations],
        "loads": [{"family": "point-mass", "location": v} for v in locations],
    })
    out = tmp_path / "out"
    assert main(["analyze", config, "--grid-s", "64", "--grid-delta", "64",
                 "--seed", "1", "--out-dir", str(out)]) == 0
    rows = (out / "joint.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == [part]
    s, d, density, mass = (float(v) for v in rows[0].split(",")[1:])
    assert s == sum(locations) and density == 0.0 and mass == 1.0
    assert d == read_json(out / "summary.json")["mean"]
