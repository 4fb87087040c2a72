import json

import numpy as np
import pytest

from nsflow.bderiv import b_evaluate
from nsflow.cli import main
from nsflow.core import all_sign_vectors, corner_model_to_json
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
    table = {b: [1.0, 1.0] for b in all_sign_vectors(2)}
    payload = {
        "d": 2, "n": 2, "rho": [0.0, 0.0], "eta": [[1.0, 0.0], [0.0, 1.0]],
        "gamma": {b.key(): table[b] for b in all_sign_vectors(2)}, "f_min": 0.5,
    }
    path = tmp_path / "const.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "ball", "--model", str(path), "--points", "90")
    for line in out.splitlines()[1:]:
        p = [float(v) for v in line.split(",")[:4]]
        assert np.hypot(p[2], p[3]) == pytest.approx(1.0, abs=1e-12)


def test_triangulate_schema(capsys):
    code, out, _ = run_cli(capsys, "triangulate", "--preset", "pwc-linear", "--delta", "0.3")
    payload = json.loads(out)
    assert set(payload) == {"z_minus", "z_plus", "simplices"}
    assert set(payload["z_minus"]) == {"--", "-+", "+-", "++"}
    assert len(payload["simplices"]) == 2
    assert payload["simplices"][0]["sigma"] == [1, 2]
    assert payload["simplices"][0]["vertices"] == ["--", "+-", "++"]


def test_triangulate_cap_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "triangulate", "--preset", "pwc-linear", "--dim", "4", "--cap", "3"
    )
    assert code == 2


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


def test_bench_produces_csv(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--n", "2,4", "--calls", "50", "--seed", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,d,calls,median_seconds"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["2", "4"]
    assert [r[1] for r in rows] == ["4", "6"]
    assert all(float(r[3]) > 0.0 for r in rows)


def test_invalid_model_exit_code(tmp_path, capsys):
    payload = {
        "d": 2, "n": 2, "rho": [0.0, 0.0],
        "eta": [[1.0, 0.0], [2.0, 0.0]],  # rank deficient
        "gamma": {b.key(): [1.0, 1.0] for b in all_sign_vectors(2)},
        "f_min": 1e-9,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "bderiv", "--model", str(path), "--dir", "1,0")
    assert code == 2
    assert "rank" in err


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


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NSFLOW_SEED", "99")
    from nsflow.cli import build_parser

    args = build_parser().parse_args(["ball", "--preset", "pwc"])
    assert args.seed == 99


def test_byte_stable_outputs(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "ball", "--preset", "pwc", "--points", "36", "--seed", "5"
        )
        outs.append(out)
    assert outs[0] == outs[1]
