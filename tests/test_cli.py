import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nsflow
from nsflow import apps
from nsflow.apps import preset
from nsflow.bderiv import b_evaluate
from nsflow.cli import main
from nsflow.core import corner_model_from_json, corner_model_to_json
from nsflow.oracle import random_corner_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bderiv_pwc_linear_prints_scaled_direction(capsys):
    code, out, _ = run_cli(
        capsys, "bderiv", "--preset", "pwc-linear", "--delta", "0.5", "--dir", "0.6,-0.9"
    )
    assert code == 0
    values = [float(v) for v in out.splitlines()[0].split(",")]
    np.testing.assert_allclose(values, [0.2, -0.3], atol=1e-15)


def test_bderiv_zero_direction(capsys):
    code, out, _ = run_cli(
        capsys, "bderiv", "--preset", "pwc-linear", "--delta", "0.5", "--dir", "0,0"
    )
    assert code == 0
    assert out.splitlines()[0] == "0.0,0.0"


def test_bderiv_model_file_matches_library_bitwise(tmp_path, capsys):
    rng = np.random.default_rng(60)
    m = random_corner_model(rng, 3, 4)
    path = tmp_path / "corner.json"
    path.write_text(corner_model_to_json(m))
    direction = rng.normal(size=4)
    dir_arg = ",".join(repr(float(v)) for v in direction)
    code, out, _ = run_cli(
        capsys, "bderiv", "--model", str(path), "--dir=" + dir_arg, "--json"
    )
    assert code == 0
    payload = json.loads(out)
    res = b_evaluate(m, [float(v) for v in dir_arg.split(",")])
    assert payload["delta_rho_plus"] == res.delta_rho_plus.tolist()
    assert payload["sigma"] == list(res.sigma.order)
    assert payload["delta_t"] == res.delta_t


def test_bderiv_all_pieces(capsys):
    code, out, _ = run_cli(
        capsys,
        "bderiv", "--preset", "pwc-linear", "--delta", "0.5", "--dir", "1,0",
        "--json", "--all-pieces",
    )
    payload = json.loads(out)
    assert set(payload["pieces"]) == {"1-2", "2-1"}
    np.testing.assert_allclose(payload["pieces"]["1-2"], np.eye(2) / 3.0, atol=1e-14)


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_bderiv_refuses_an_image_that_is_not_finite(capsys, json_flag):
    # a finite direction can overflow B; it exits 2 instead of printing nan or NaN
    code, out, err = run_cli(capsys, "bderiv", "--preset", "pwc-linear", "--dir=1e308,-1e308", *json_flag)
    assert (code, out) == (2, "")
    assert err == "validation error: B is not finite on --dir 1e308,-1e308\n"


def test_ball_pwc_linear_all_outputs_one_third(capsys):
    code, out, _ = run_cli(
        capsys, "ball", "--preset", "pwc-linear", "--delta", "0.5", "--points", "360"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "in_1,in_2,out_1,out_2,sigma"
    assert len(lines) == 361
    for line in lines[1:]:
        parts = line.split(",")
        vec = np.array([float(parts[2]), float(parts[3])])
        assert np.linalg.norm(vec) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_ball_general_pwc_has_two_pieces(capsys):
    code, out, _ = run_cli(
        capsys, "ball", "--preset", "pwc", "--points", "360", "--seed", "3"
    )
    sigmas = {line.rsplit(",", 1)[1] for line in out.splitlines()[1:]}
    assert sigmas == {"1-2", "2-1"}


def test_ball_continuous_field_is_isometric(tmp_path, capsys):
    payload = {
        "d": 2, "n": 2, "rho": [0.0, 0.0], "eta": [[1.0, 0.0], [0.0, 1.0]],
        "gamma": {key: [1.0, 1.0] for key in ("--", "-+", "+-", "++")}, "f_min": 0.5,
    }
    path = tmp_path / "const.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "ball", "--model", str(path), "--points", "90")
    for line in out.splitlines()[1:]:
        p = [float(v) for v in line.split(",")[:4]]
        assert np.hypot(p[2], p[3]) == pytest.approx(1.0, abs=1e-12)


def ball_rows_from_scalar(m, out):
    """The ball output rebuilt from its printed directions through b_evaluate."""
    d = m.d
    header = [f"in_{i + 1}" for i in range(d)] + [f"out_{i + 1}" for i in range(d)]
    lines = [",".join(header + ["sigma"])]
    for line in out.splitlines()[1:]:
        v = [float(x) for x in line.split(",")[:d]]
        res = b_evaluate(m, v)
        lines.append(
            ",".join(map(repr, v + res.delta_rho_plus.tolist()))
            + ","
            + "-".join(map(str, res.sigma.order))
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv, kwargs",
    [
        (["--preset", "pwc", "--seed", "3"], dict(name="pwc", seed=3)),
        (["--preset", "pwc-linear", "--dim", "4"], dict(name="pwc-linear", d=4)),
    ],
)
def test_ball_preset_bytes_match_scalar(capsys, argv, kwargs):
    code, out, _ = run_cli(capsys, "ball", *argv)
    assert code == 0
    assert len(out.splitlines()) == 361
    assert out == ball_rows_from_scalar(preset(**kwargs)[1], out)


def test_ball_model_file_bytes_match_scalar(tmp_path, capsys):
    # the smallest templates too: one surface in one dimension, and a single row
    for n, d, points in [(8, 9, 120), (1, 1, 7), (8, 9, 1), (1, 1, 1)]:
        m = random_corner_model(np.random.default_rng(61), n, d)
        path = tmp_path / "corner.json"
        path.write_text(corner_model_to_json(m))
        code, out, _ = run_cli(capsys, "ball", "--model", str(path), "--points", str(points))
        assert code == 0
        assert len(out.splitlines()) == points + 1
        assert out == ball_rows_from_scalar(corner_model_from_json(path.read_text()), out)


@pytest.mark.parametrize("points", ["0", "-1"])
@pytest.mark.parametrize("dim", ["2", "3"])
def test_ball_refuses_fewer_than_one_point(capsys, dim, points):
    code, out, err = run_cli(capsys, "ball", "--preset", "pwc-linear", "--dim", dim, "--points", points)
    assert code == 2
    assert out == ""
    assert err == f"validation error: ball needs --points >= 1, got {points}\n"


def test_ball_points_are_checked_before_the_model_loads(capsys):
    code, _, err = run_cli(capsys, "ball", "--model", "missing.json", "--points", "0")
    assert code == 2 and "--points >= 1" in err


def test_triangulate_schema(capsys):
    code, out, _ = run_cli(capsys, "triangulate", "--preset", "pwc-linear", "--delta", "0.3")
    payload = json.loads(out)
    assert set(payload) == {"z_minus", "z_plus", "simplices"}
    assert set(payload["z_minus"]) == {"--", "-+", "+-", "++"}
    assert len(payload["simplices"]) == 2
    assert payload["simplices"][0]["sigma"] == [1, 2]
    assert payload["simplices"][0]["vertices"] == ["--", "+-", "++"]


def test_triangulate_cap_exit_code(capsys):
    code, out, err = run_cli(capsys, "triangulate", "--preset", "pwc-linear", "--dim", "11")
    assert code == 2
    assert "2**11 triangulation vertices exceed cap 10" in err


def test_simulate_pwc_through_corner(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    events = tmp_path / "events.json"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--preset", "pwc-linear", "--delta", "0.5",
        "--x0=-0.75,-0.75", "--t", "1.0", "--steps", "512",
        "--out", str(traj), "--events-out", str(events),
    )
    assert code == 0
    lines = traj.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,orthant"
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(1.0)
    assert float(last[1]) == pytest.approx(0.25, abs=1e-9)
    assert last[3] == "++"
    recs = json.loads(events.read_text())
    assert len(recs) == 1 and recs[0]["surface"] == "corner"


def test_simulate_zero_time_single_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--preset", "pwc-linear", "--x0=-0.3,-0.4", "--t", "0",
    )
    assert code == 0
    csv_part = out.splitlines()
    assert csv_part[0] == "t,x_1,x_2,orthant"
    assert csv_part[1].startswith("0.0,-0.3,-0.4")
    assert json.loads("".join(csv_part[2:])) == []


def test_simulate_biped_drop_emits_corner_record(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    events = tmp_path / "events.json"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--preset", "biped-xor", "--x0", "0,1,0,0,0,0",
        "--t", "2.0", "--steps", "1024", "--out", str(traj), "--events-out", str(events),
    )
    assert code == 0
    recs = json.loads(events.read_text())
    assert [r["surface"] for r in recs] == ["corner"]


def test_verify_suites_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "sampled-oracle", "--seed", "7", "--models", "5", "--samples", "40"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out, _ = run_cli(
        capsys, "verify", "cone-partition", "--seed", "7", "--models", "5", "--samples", "40"
    )
    assert code == 0

    code, out, _ = run_cli(
        capsys, "verify", "fd-convergence", "--seed", "7", "--models", "2", "--samples", "6"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_invalid_model_exit_code(tmp_path, capsys):
    payload = {
        "d": 2, "n": 2, "rho": [0.0, 0.0],
        "eta": [[1.0, 0.0], [2.0, 0.0]],  # rank deficient
        "gamma": {key: [1.0, 1.0] for key in ("--", "-+", "+-", "++")},
        "f_min": 1e-9,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "bderiv", "--model", str(path), "--dir", "1,0")
    assert code == 2
    assert "rank" in err


def test_model_json_with_numeral_strings_exit_code(tmp_path, capsys):
    # a string rho and string gamma rows cast to floats, and bderiv exited 0
    payload = {
        "d": 2, "n": 2, "rho": ["0", "0"], "eta": [[1, 0], [0, 1]],
        "gamma": {key: ["1", "1"] for key in ("--", "-+", "+-", "++")},
    }
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "bderiv", "--model", str(path), "--dir", "1,0")
    assert (code, out) == (2, "")
    assert err == "validation error: rho has an entry that is not a real number at index 0: '0'\n"


def test_model_json_with_a_bool_among_numbers_exit_code(tmp_path, capsys):
    # numpy cast the true to 1.0, and ball exited 0 on rho = [0.0, 1.0]
    payload = {
        "d": 2, "n": 2, "rho": [0, True], "eta": [[1, 0], [0, 1]],
        "gamma": {key: [1, 1] for key in ("--", "-+", "+-", "++")},
    }
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "ball", "--model", str(path))
    assert (code, out) == (2, "")
    assert err == "validation error: rho has an entry that is not a real number at index 1: True\n"


def test_missing_gamma_key_exit_code(tmp_path, capsys):
    path = tmp_path / "no_gamma.json"
    path.write_text('{"d":2,"n":2,"rho":[0,0],"eta":[[1,0],[0,1]]}')
    code, out, err = run_cli(capsys, "bderiv", "--model", str(path), "--dir", "1,0")
    assert code == 2
    assert out == ""
    assert "validation error" in err and "gamma" in err


def test_non_finite_direction_exit_code(capsys):
    code, out, err = run_cli(capsys, "bderiv", "--preset", "pwc-linear", "--dir", "nan,1")
    assert code == 2
    assert out == ""
    assert "validation error" in err and "non-finite" in err


@pytest.mark.parametrize(
    "x0, t", [("-0.6,-0.6", "nan"), ("-0.6,-0.6", "inf"), ("nan,-0.6", "1")]
)
def test_simulate_non_finite_input_exit_code(capsys, x0, t):
    code, out, err = run_cli(
        capsys, "simulate", "--preset", "pwc-linear", f"--x0={x0}", "--t", t
    )
    assert code == 2
    assert out == ""
    assert "validation error" in err


def test_model_direction_of_the_wrong_length_exit_code(tmp_path, capsys):
    path = tmp_path / "corner.json"
    path.write_text(corner_model_to_json(preset("pwc-linear")[1]))
    code, out, err = run_cli(capsys, "bderiv", "--model", str(path), "--dir", "1,0,0")
    assert (code, out) == (2, "")
    assert err == "validation error: direction has shape (3,), expected (2,)\n"


def test_ball_without_a_model_exit_code(capsys):
    code, out, err = run_cli(capsys, "ball")
    assert (code, out) == (2, "")
    assert err == "validation error: provide --model FILE or --preset NAME\n"


def test_simulate_refuses_a_model_file(tmp_path, capsys):
    path = tmp_path / "corner.json"
    path.write_text(corner_model_to_json(preset("pwc-linear")[1]))
    argv = ["simulate", "--x0=-0.6,-0.6", "--t", "1"]
    code, out, err = run_cli(capsys, *argv, "--model", str(path))
    assert (code, out) == (2, "")
    assert err == "validation error: simulate needs a field preset, not a bare corner model\n"
    # a missing file fails to open before the model is looked at
    code, out, err = run_cli(capsys, *argv, "--model", str(tmp_path / "missing.json"))
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 2] No such file or directory")


def test_seed_env_override(capsys, monkeypatch):
    argv = ["ball", "--preset", "pwc", "--points", "36"]
    monkeypatch.setenv("NSFLOW_SEED", "99")
    from_env = run_cli(capsys, *argv)
    monkeypatch.delenv("NSFLOW_SEED")
    assert from_env[1]
    assert from_env == run_cli(capsys, *argv, "--seed", "99")


def test_bad_seed_env_is_a_validation_error(capsys, monkeypatch):
    monkeypatch.setenv("NSFLOW_SEED", "abc")
    for seed_flag in ([], ["--seed", "3"]):
        code, out, err = run_cli(capsys, "ball", "--preset", "pwc", *seed_flag)
        assert code == 2
        assert out == ""
        assert err == "validation error: NSFLOW_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("raw", ["Infinity", "1e400"])
def test_model_json_with_an_infinite_f_min_exit_code(tmp_path, capsys, raw):
    path = tmp_path / "infinite_floor.json"
    path.write_text(
        '{"d": 1, "n": 1, "rho": [0], "eta": [[1]], "gamma": {"-": [1], "+": [1]}, '
        f'"f_min": {raw}}}'
    )
    code, out, err = run_cli(capsys, "ball", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err == "validation error: f_min must be positive and finite, got inf\n"


@pytest.mark.parametrize("key, raw, axis", [("d", "Infinity", "column"), ("n", "1e400", "row")])
def test_model_json_with_an_infinite_size_exit_code(tmp_path, capsys, key, raw, axis):
    text = '{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}'
    path = tmp_path / "infinite.json"
    path.write_text(text.replace(f'"{key}": 2', f'"{key}": {raw}'))
    code, out, err = run_cli(capsys, "ball", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err == f"validation error: malformed model JSON: {key} must equal eta's {axis} count 2, got inf\n"


def test_model_json_with_a_size_past_the_str_limit_exit_code(tmp_path, capsys):
    # json's own refusal of an int of 5000 digits came out without the reader's prefix
    path = tmp_path / "long.json"
    path.write_text('{"d": 2, "n": ' + "9" * 5000 + ', "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}')
    code, out, err = run_cli(capsys, "ball", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("validation error: malformed model JSON: Exceeds the limit (4300 digits)")


def test_seed_env_change_between_calls_moves_the_default(capsys, monkeypatch):
    argv = ["ball", "--preset", "pwc", "--points", "36"]
    outs = {}
    for seed in ("5", "6"):
        monkeypatch.setenv("NSFLOW_SEED", seed)
        outs[seed] = run_cli(capsys, *argv)[1]
    monkeypatch.delenv("NSFLOW_SEED")
    for seed, out in outs.items():
        assert out == run_cli(capsys, *argv, "--seed", seed)[1]
    assert outs["5"] != outs["6"]


@pytest.mark.parametrize("steps", ["0", "-4"])
def test_simulate_non_positive_steps_exit_code(capsys, steps):
    code, out, err = run_cli(
        capsys, "simulate", "--preset", "pwc-linear", "--x0=-0.6,-0.6", "--t", "1", "--steps", steps
    )
    assert code == 2
    assert out == ""
    assert "validation error" in err and "steps >= 1" in err


@pytest.mark.parametrize("counts", [["--models", "0"], ["--models", "-1"], ["--samples", "0"]])
@pytest.mark.parametrize("suite", ["sampled-oracle", "cone-partition", "fd-convergence"])
def test_verify_refuses_empty_runs(capsys, suite, counts):
    code, out, err = run_cli(capsys, "verify", suite, *counts)
    assert code == 2
    assert out == ""
    assert "validation error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ball", "--preset", "biped-xor", "--dim", "3"], "preset biped-xor does not read --dim"),
        (["ball", "--preset", "biped-uniform", "--delta", "0.2"], "does not read --delta"),
        (["ball", "--preset", "pwc", "--delta", "5"], "preset pwc does not read --delta"),
        (["ball", "--preset", "pwc-linear", "--psi", "0.2"], "does not read --psi"),
        (["triangulate", "--preset", "pwc", "--beta", "0.2"], "does not read --beta"),
        (["bderiv", "--preset", "biped-xor", "--dim", "6", "--dir", "1,0,0,0,0,0"], "does not read --dim"),
        (["bderiv", "--preset", "pwc", "--dim", "3", "--dir", "0.3,0.4"], "--dim 3 differs"),
        (["ball", "--model", "corner.json", "--preset", "pwc"], "not both"),
        (["ball", "--model", "corner.json", "--dim", "2"], "--dim does not apply to --model"),
        (["ball", "--model", "corner.json", "--delta", "0.5"], "--delta does not apply"),
        (["bderiv", "--model", "corner.json", "--psi", "0.1", "--dir", "1,0,0"], "--psi does not apply"),
        (["ball", "--model", "corner.json", "--beta", "0.5"], "--beta does not apply"),
    ],
)
def test_model_flags_the_model_does_not_read_are_refused(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corner.json").write_text(
        corner_model_to_json(random_corner_model(np.random.default_rng(62), 2, 3))
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("validation error") and message in err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["bderiv", "--preset", "pwc", "--dir", "0.3,-0.7"], ["--dim", "2"]),
        (["bderiv", "--preset", "biped-xor", "--dir", "1,0,0,0,0,0"], ["--psi", "0.1", "--beta", "0.5"]),
        (["ball", "--preset", "pwc-linear", "--points", "8"], ["--dim", "2", "--delta", "0.5"]),
    ],
)
def test_model_flags_the_preset_reads_are_accepted(capsys, argv, flags):
    code, out, err = run_cli(capsys, *argv, *flags)
    assert code == 0 and err == ""
    # the flags at their default values print the same bytes as without them
    assert run_cli(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["ball", "--preset", "pwc"],
        ["ball", "--preset", "pwc-linear"],
        ["simulate", "--preset", "pwc-linear", "--x0=" + ",".join(["-0.5"] * 17), "--t", "1"],
    ],
)
def test_pwc_presets_over_the_cap_exit_code(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated orthants before the cap check")

    monkeypatch.setattr(apps, "pwc_linear_delta", refuse)
    monkeypatch.setattr(apps, "pwc_model", refuse)
    code, out, err = run_cli(capsys, *argv, "--dim", "17")
    assert code == 2
    assert out == ""
    assert "validation error" in err and "d <= 16" in err


@pytest.mark.parametrize("mass", [np.diag([1.0, -1.0, 1.0]), np.diag([1.0, np.inf, 1.0])])
def test_bad_mass_matrix_exit_code(capsys, monkeypatch, mass):
    biped_model = apps.biped_model

    def bad_mass_biped(**kwargs):
        return dataclasses.replace(biped_model(**kwargs), mass=mass)

    monkeypatch.setattr(apps, "biped_model", bad_mass_biped)
    code, out, err = run_cli(capsys, "ball", "--preset", "biped-xor", "--points", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("error: mass matrix not")


def test_no_scipy_at_import():
    # numpy is the only runtime dependency; scipy is a test dependency
    code = (
        "import sys; import nsflow, nsflow.cli, nsflow.apps, nsflow.oracle, nsflow.flow; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(nsflow.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_byte_stable_outputs(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "ball", "--preset", "pwc", "--points", "36", "--seed", "5"
        )
        outs.append(out)
    assert outs[0] == outs[1]


# SHA-256 of stdout for fixed seeds; any change to a printed digit shows here
PINNED_STDOUT = [
    (["ball", "--preset", "pwc", "--seed", "3"], "6bd05ab2831480d0304c786ab184cfdd70647eedc6c70c42e68e224217052e38"),
    (["ball", "--preset", "pwc-linear", "--dim", "4"], "1e4ecff22a438550f1b243b489cec430b0e4b9d72f6c0b269a9c8db1dc1ab098"),
    (["ball", "--preset", "biped-xor"], "4197b9f508c7cacbe693a7b3ff3fc3d6fb1980f61401bfffac78bcd8b001c24d"),
    (["bderiv", "--preset", "pwc", "--seed", "5", "--dir", "0.3,-0.7", "--all-pieces"], "dcdb28efafb4ccc574a6524b794fab7c7b35bbd50ebfac76df7c639f83d0fa03"),
    (["triangulate", "--preset", "pwc", "--seed", "3"], "f2e81d0f61fb50fbb4840710de33402b2875d976286432d64eab52db420f0ed3"),
    (["simulate", "--preset", "pwc-linear", "--dim", "3", "--x0=-0.7,-0.5,-0.6", "--t", "1.5", "--steps", "64"], "61772d94049895f2edb20a37346eee9e547ff2737914b59776a8cb725cb1fd08"),
    (["verify", "sampled-oracle", "--seed", "7", "--models", "5", "--samples", "40"], "e35f965c3e581744a8e977c63ca2121b522294ca803d85e100e2c1fb8e3bd654"),
    (["verify", "cone-partition", "--seed", "7", "--models", "5", "--samples", "40"], "501996ea678f830daa821504eb0d8a1d18a38a0f66b09f088032d1210264060b"),
    (["verify", "fd-convergence", "--seed", "7", "--models", "2", "--samples", "6"], "ef90a73e02ee38e6c3f3acfbd081d5d36f9cd6016b4a41e0d0e0ebf06d3a06c3"),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT, ids=[" ".join(a) for a, _ in PINNED_STDOUT])
def test_stdout_digest_is_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("NSFLOW_SEED", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert sha256(out) == digest


def test_not_event_selected_message_is_pinned(tmp_path, capsys):
    # surface 2 runs backwards in orthant "+-" only
    gamma = {"--": [1.0, 1.0], "-+": [1.0, 1.0], "+-": [1.0, -0.25], "++": [1.0, 1.0]}
    payload = {"d": 2, "n": 2, "rho": [0.0, 0.0], "eta": [[1.0, 0.0], [0.0, 1.0]], "gamma": gamma}
    path = tmp_path / "backward.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "bderiv", "--model", str(path), "--dir", "1,0")
    assert code == 2
    assert out == ""
    assert "orthant +-" in err
    assert sha256(err) == "bee6a0c127920eadaee308f941c11a34e1da44f86bce06552fea792839b796d0"
