import math

import numpy as np
import pytest

from etau import _csvio, catenoid, cli, curves
from etau.barriers import BoundaryCurve
from etau.errors import UsageError
from etau.models import AmbientSpace, BoundaryPoint
from reference_checks import reference_profile


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for the test; the returned list grows by one per call."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_catenoid_height_forward(capsys):
    rc, out, _ = run(capsys, "catenoid-height", "--tau", "0.5", "--d", "2.0")
    assert rc == 0
    amb = AmbientSpace(0.5)
    h = catenoid.asymptotic_height(catenoid.CatenoidProfile(amb, 2.0))
    assert f"asymptotic_height = {h!r}" in out
    assert "supremum" in out


def test_catenoid_height_inverse(capsys):
    rc, out, _ = run(capsys, "catenoid-height", "--tau", "0.5", "--height", "1.0")
    assert rc == 0
    d = catenoid.neck_parameter_for_height(AmbientSpace(0.5), 1.0)
    assert f"d = {d!r}" in out


def test_catenoid_height_reports_unconverged_quadrature(capsys):
    # an absolute tolerance below double precision exhausts the budget
    rc, out, err = run(
        capsys, "catenoid-height", "--tau", "0.5", "--d", "2.0",
        "--abs-tol", "1e-20", "--rel-tol", "1e-20",
    )
    assert rc == 2
    assert out == ""
    assert "asymptotic height: quadrature stopped" in err


def test_catenoid_height_reports_unreachable_tiny_tolerance(capsys):
    # a 1e-300 tolerance lies far below the quadrature's rounding floor
    rc, out, err = run(
        capsys, "catenoid-height", "--tau", "0.5", "--d", "2.0",
        "--abs-tol", "1e-300", "--rel-tol", "1e-300",
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: asymptotic height: quadrature stopped")


def test_lemmas_reports_cosh_overflow(tmp_path, capsys):
    # the truncation radius 1.5 log d passes 710, where cosh overflows
    rc, out, err = run(
        capsys, "lemmas", "--d-start", "1e209", "--d-stop", "1e210", "--d-count", "2",
        "--output", str(tmp_path / "lemmas.csv"),
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: radius 721.86")
    assert "overflows cosh" in err


def test_lemmas_sweep(tmp_path, capsys):
    out_path = tmp_path / "lemmas.csv"
    rc, out, _ = run(
        capsys,
        "lemmas",
        "--tau",
        "0.5",
        "--d-start",
        "8",
        "--d-stop",
        "100",
        "--d-count",
        "4",
        "--output",
        str(out_path),
    )
    assert rc == 0
    kind, version, columns, rows = _csvio.read_table(out_path, "lemmas")
    assert version == 1
    assert columns[:3] == ["d", "R", "feasible"]
    assert len(rows) == 4
    feas = [r[2] for r in rows]
    assert set(feas) <= {"true", "false"}
    holds = [r[columns.index("upper_holds")] for r in rows if r[2] == "true"]
    assert holds and all(h == "true" for h in holds)
    assert "crossover_d" in out


def test_lemmas_integrates_each_catenoid_area_once(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, catenoid, "annulus_area")
    out_path = tmp_path / "lemmas.csv"
    rc, _, _ = run(capsys, "lemmas", "--tau", "0.5", "--output", str(out_path))
    assert rc == 0
    _, _, _, rows = _csvio.read_table(out_path, "lemmas")
    assert len(rows) == 25
    assert all(r[2] == "true" for r in rows)
    assert len(calls) == 25


def test_isometry_bound(tmp_path, capsys):
    out_path = tmp_path / "iso.csv"
    args = (
        "isometry-bound",
        "--tau",
        "0.5",
        "--magnitudes",
        "0.5,0.9",
        "--samples",
        "2000",
        "--output",
        str(out_path),
    )
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    _, _, columns, rows = _csvio.read_table(out_path, "isometry-bound")
    assert columns == ["f0_magnitude", "sampled_sup_shift", "bound", "ratio"]
    assert len(rows) == 2
    bound = 2.0 * 0.5 * math.pi
    for row in rows:
        assert float(row[1]) < bound
        assert 0.0 < float(row[3]) < 1.0
    first = out_path.read_bytes()
    assert cli.main(list(args)) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == first


def test_isometry_bound_bad_magnitudes(capsys):
    rc, _, err = run(capsys, "isometry-bound", "--magnitudes", "1.5")
    assert rc == 2
    assert "error:" in err


def test_classify_file_roundtrip(tmp_path, capsys, monkeypatch):
    sweeps = count_calls(monkeypatch, curves, "height_profile")
    curve_path = tmp_path / "curve.csv"
    ang = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    comps = [(ang, np.zeros(720)), (ang, np.full(720, 5.0))]
    _csvio.write_curve_components(curve_path, comps)
    rc, out, _ = run(capsys, "classify", "--tau", "0.5", "--curve-file", str(curve_path))
    assert rc == 0
    assert "verdict = Tall" in out
    assert sweeps == []  # the verdict comes from the exact sweep, not a grid
    profile_path = tmp_path / "profile.csv"
    rc, out, _ = run(
        capsys,
        "classify",
        "--tau",
        "0.5",
        "--curve-file",
        str(curve_path),
        "--grid",
        "180",
        "--output",
        str(profile_path),
    )
    assert rc == 0
    assert "verdict = Tall" in out
    _, version, columns, rows = _csvio.read_table(profile_path, "height-profile")
    assert version == 2
    assert columns == ["angle", "height", "crossings"]
    assert len(rows) == 180
    assert all(r[2] == "2" for r in rows)
    # the same text as the per-angle crossing search of the reference
    loops = [
        BoundaryCurve((BoundaryPoint(th, t) for th, t in zip(*comp)), closed=True)
        for comp in _csvio.read_curve_components(curve_path)
    ]
    heights, counts, retried = reference_profile(curves.AsymptoticCurve(loops), 180)
    assert not retried.any()
    angles = np.linspace(0.0, 2.0 * math.pi, 180, endpoint=False)
    assert rows == [
        [_csvio.format_value(v) for v in (float(a), float(h), int(c))]
        for a, h, c in zip(angles, heights, counts)
    ]
    assert len(sweeps) == 1  # one grid sweep, for the profile CSV only
    rc, _, err = run(
        capsys, "classify", "--curve-file", str(curve_path), "--grid", "4"
    )
    assert rc == 2
    assert "error:" in err

    back = _csvio.read_curve_components(curve_path)
    assert len(back) == 2
    np.testing.assert_allclose(back[0][0], ang)
    np.testing.assert_allclose(back[1][1], 5.0)


def test_classify_missing_file(tmp_path, capsys):
    rc, _, err = run(capsys, "classify", "--curve-file", str(tmp_path / "nope.csv"))
    assert rc == 2
    assert "error:" in err


def test_classify_non_ascii_curve_file(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_bytes(b"# etau-csv curves 1\ncomponent_id,sample_index,theta,t\n0,0,0.0,\xe9\n")
    rc, out, err = run(capsys, "classify", "--curve-file", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {path}:3: non-ASCII byte")


def test_classify_non_numeric_curve_field(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text("# etau-csv curves 1\ncomponent_id,sample_index,theta,t\n0,0,abc,0.0\n")
    rc, out, err = run(capsys, "classify", "--curve-file", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {path}:3: non-numeric field in '0,0,abc,0.0'")


def test_classify_non_numeric_schema_version(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text("# etau-csv curves x\ncomponent_id,sample_index,theta,t\n0,0,0.0,0.0\n")
    rc, out, err = run(capsys, "classify", "--curve-file", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {path}:1: schema version 'x' is not an integer")


def test_classify_non_finite_curve_field(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    ang = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    for column in (0, 1):
        for bad in (math.nan, math.inf, -math.inf):
            comp = [ang.copy(), np.zeros(720)]
            comp[column][17] = bad
            _csvio.write_curve_components(path, [(ang, np.full(720, 5.0)), comp])
            rc, out, err = run(capsys, "classify", "--curve-file", str(path))
            assert rc == 2
            assert out == ""
            assert err == "error: boundary point coordinates must be finite\n"


def test_classify_folded_loop(tmp_path, capsys):
    # three samples on one vertical line: every pair of segments is adjacent
    path = tmp_path / "curve.csv"
    _csvio.write_curve_components(path, [([0.5, 0.5, 0.5], [0.0, 1.0, 2.0])])
    rc, out, err = run(capsys, "classify", "--curve-file", str(path))
    assert rc == 2
    assert out == ""
    assert err == "error: component loop self-intersects\n"


def test_non_ascii_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"tau = 0.5\nd = 2.0 # \xc3\xa9\n")
    rc, out, err = run(capsys, "catenoid-height", "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {cfg}:2: non-ASCII byte")


def test_rectangle_placement(tmp_path, capsys):
    out_path = tmp_path / "rect.csv"
    t2 = 2.0 * math.pi * math.sqrt(2.0)
    rc, out, _ = run(
        capsys,
        "rectangle",
        "--tau",
        "0.5",
        "--t1",
        "0.0",
        "--t2",
        repr(t2),
        "--theta1",
        "1.0",
        "--theta2",
        "1.6",
        "--samples",
        "181",
        "--output",
        str(out_path),
    )
    assert rc == 0
    assert f"delta = {math.pi * math.sqrt(2.0) / 4.0!r}" in out
    assert "containment = true" in out
    comps = _csvio.read_curve_components(out_path)
    assert len(comps) == 1
    thetas, ts = comps[0]
    assert len(thetas) == len(ts) >= 181
    assert 0.0 < ts.min() and ts.max() < t2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_classify_rectangle_closing_on_a_vertical_side(tmp_path, capsys):
    # the rectangle loop across angle 0 closes on its vertical left side; the
    # pipeline used to print Short with nan heights and exit 0
    path = tmp_path / "r.csv"
    argv = ["--tau", "0.3", "--t1", "0", "--t2", "9.42477796076938"]
    argv += ["--theta1", "6.2", "--theta2", "0.1", "--samples", "400"]
    rc, out, _ = run(capsys, "rectangle", *argv, "--output", str(path))
    assert rc == 0
    h = out.split("h = ")[1].split(",")[0]
    rc, out, err = run(capsys, "classify", "--tau", "0.3", "--curve-file", str(path))
    assert (rc, err) == (0, "")
    assert "verdict = Tall\n" in out
    fields = dict(line.split(" = ") for line in out.splitlines())
    for name in ("footprint_min_height", "global_min_height"):
        assert abs(float(fields[name]) - float(h)) < 1e-9


def test_rectangle_requires_both_angles(capsys):
    rc, _, err = run(capsys, "rectangle", "--t1", "0", "--t2", "10", "--theta1", "1.0")
    assert rc == 2
    assert "error:" in err


def test_plateau_disk(tmp_path, capsys):
    out_path = tmp_path / "disk.csv"
    off_prefix = tmp_path / "mesh"
    rc, out, _ = run(
        capsys,
        "plateau",
        "--disk",
        "1.0",
        "--mesh-theta",
        "48",
        "--mesh-rings",
        "12",
        "--max-iterations",
        "150",
        "--off-prefix",
        str(off_prefix),
        "--output",
        str(out_path),
    )
    assert rc == 0
    _, version, columns, rows = _csvio.read_table(out_path, "plateau-disk")
    assert version == 2
    assert columns[-2:] == ["converged", "termination"]
    assert len(rows) == 1
    row = dict(zip(columns, rows[0]))
    assert float(row["rel_error"]) < 0.05
    assert (row["converged"], row["termination"]) == ("true", "converged")
    closed = catenoid.disk_area_closed_form(AmbientSpace(0.0), 1.0)
    assert float(row["closed_form"]) == pytest.approx(closed, abs=1e-12)
    assert (tmp_path / "mesh_disk.off").exists()


def test_plateau_rejects_non_finite_gradient_tol(capsys):
    for tol in ("inf", "nan"):
        rc, out, err = run(capsys, "plateau", "--disk", "2", "--gradient-tol", tol)
        assert rc == 2
        assert out == ""
        assert "error: gradient_tol must be positive and finite" in err


def test_plateau_race(tmp_path, capsys):
    out_path = tmp_path / "race.csv"
    rc, out, _ = run(
        capsys,
        "plateau",
        "--height",
        "1.0",
        "--mesh-theta",
        "48",
        "--mesh-rows",
        "13",
        "--mesh-rings",
        "12",
        "--max-iterations",
        "150",
        "--output",
        str(out_path),
    )
    assert rc == 0
    assert "connected_wins = true" in out
    _, version, columns, rows = _csvio.read_table(out_path, "plateau-compare")
    assert version == 2
    assert columns[-2:] == ["annulus_termination", "disks_termination"]
    row = dict(zip(columns, rows[0]))
    assert row["connected_wins"] == "true"
    assert float(row["optimized_annulus"]) < float(row["optimized_disks"])
    terminations = ("converged", "stalled", "iteration_cap", "line_search_failed")
    assert row["annulus_termination"] in terminations
    assert row["disks_termination"] in terminations


def test_config_file_defaults_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\ntau = 0.9\nd = 2.0\n")
    rc, from_config, _ = run(capsys, "catenoid-height", "--config", str(cfg))
    assert rc == 0
    assert "tau = 0.9" in from_config
    # explicit flags beat config values
    rc, overridden, _ = run(
        capsys, "catenoid-height", "--config", str(cfg), "--tau", "0.5"
    )
    assert rc == 0
    assert "tau = 0.5" in overridden
    rc, direct, _ = run(capsys, "catenoid-height", "--tau", "0.5", "--d", "2.0")
    assert overridden == direct


def test_load_config_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("tau 0.5\n")
    with pytest.raises(UsageError):
        cli.load_config(path)
    good = tmp_path / "good.cfg"
    good.write_text("\n# comment only\nmesh-theta = 64  # trailing\n")
    assert cli.load_config(good) == {"mesh_theta": "64"}


def test_negative_tau_exits_2(capsys):
    rc, _, err = run(capsys, "catenoid-height", "--tau", "-0.5", "--d", "2.0")
    assert rc == 2
    assert "error:" in err
