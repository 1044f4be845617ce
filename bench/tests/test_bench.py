"""Tests of the benchmark itself: its inputs, its output checks and its trace.

    python3 -m pytest -q bench/tests
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import outputs
import run as bench
import tracer
import workloads
from entroflux.config import load_config
from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 42, 2**31 - 1])
def test_generated_configs_pass_the_strict_loader(tmp_path, name, seed):
    w = WORKLOADS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(w.config(seed)))
    cfg = load_config(str(path))
    assert cfg.ensemble.master_seed == seed
    assert cfg.ensemble.n_trajectories == w.n_trajectories
    assert cfg.ensemble.integrator.n_steps == w.n_steps
    assert cfg.model.dim == (4 if w.scenario == "spin32" else 2)
    assert set(cfg.emit) == set(w.emit)


def test_config_is_a_function_of_the_seed():
    w = WORKLOADS["explicit_d4"]
    assert json.dumps(w.config(7)) == json.dumps(w.config(7))
    assert w.config(7) != w.config(8)


def _matrix(pairs):
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def test_spin32_operators_and_initial_state_are_valid():
    scenario, initial = workloads.spin32_model()
    h, probe, deco = (_matrix(scenario[k]) for k in ("hamiltonian", "probe", "decoherence"))
    assert np.array_equal(h, h.conj().T)
    assert np.array_equal(probe, probe.conj().T)
    ops = {k: np.array(v) for k, v in workloads.spin32_operators().items()}
    jx = 0.5 * (ops["jp"] + ops["jm"])
    # spin-3/2 algebra: [J_z, J_+] = J_+ and J_x^2 + J_y^2 + J_z^2 = j(j+1) = 15/4
    assert np.allclose(ops["jz"] @ ops["jp"] - ops["jp"] @ ops["jz"], ops["jp"])
    assert np.allclose(jx @ jx + ops["jy"] @ ops["jy"] + ops["jz"] @ ops["jz"], 3.75 * np.eye(4))
    assert np.allclose(deco, ops["jm"])

    rho0 = _matrix(initial["matrix"])
    assert np.array_equal(rho0, rho0.conj().T)
    assert abs(np.trace(rho0).real - 1.0) < 1e-15
    w = np.linalg.eigvalsh(rho0)
    assert np.allclose(w, [0.025, 0.025, 0.025, 0.925])
    plus_x = np.array([1.0, np.sqrt(3), np.sqrt(3), 1.0]) / np.sqrt(8)
    assert np.allclose(jx @ plus_x, 1.5 * plus_x)


class _FakeChild:
    """Stands in for a child process: records argv, always fails."""

    seen: list = []

    def __init__(self, argv, log_path, deadline):
        self.seen.append(argv)
        self.exit_code, self.wall_s, self.cpu_s, self.peak_rss_mb, self.log = 1, 1.0, 1.0, 1.0, "x"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_seed_argument_reaches_the_cli(monkeypatch, capsys, trace):
    _FakeChild.seen = []
    configs = []
    real_run = bench.Run

    def recording_run(workload, seed):
        r = real_run(workload, seed)
        with open(r.config, encoding="utf-8") as fh:
            configs.append(json.load(fh))
        return r

    monkeypatch.setattr(bench, "Child", _FakeChild)
    monkeypatch.setattr(bench, "Run", recording_run)
    assert bench.main(["--workload", "qubit_readme", "--seed", "7", "--seconds", "0",
                       "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    cli_runs = [argv for argv in _FakeChild.seen if "verify-bound" in argv]
    assert cli_runs
    for argv in cli_runs:
        k = argv.index("--seed")
        assert argv[k + 1] == "7"
    assert configs[0]["ensemble"]["master_seed"] == 7


class _SpeedChild:
    """A child whose times say the machine runs at half the reference speed."""

    def __init__(self, argv, log_path, deadline):
        self.exit_code, self.peak_rss_mb, self.log = 0, 40.0, "x"
        if bench.CALIBRATION in argv:
            self.wall_s = self.cpu_s = 2.0 * bench.CALIBRATION_S
        elif "-c" in argv and argv[argv.index("-c") + 1] == bench.SETUP_CODE:
            self.wall_s = self.cpu_s = 0.4
        else:
            self.wall_s, self.cpu_s = 6.0, 8.0


def test_times_are_scaled_by_the_calibration(monkeypatch, capsys):
    monkeypatch.setattr(bench, "Child", _SpeedChild)
    assert bench.main(["--workload", "qubit_long_horizon", "--seed", "7", "--seconds", "0"]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    w = WORKLOADS["qubit_long_horizon"]
    scale = 0.5 ** bench.CALIBRATION_EXPONENT
    assert metrics["wall_s"]["value"] == pytest.approx(6.0 * scale)
    assert metrics["cpu_s"]["value"] == pytest.approx(8.0 * scale)
    assert metrics["setup_s"]["value"] == pytest.approx(0.4 * scale)
    assert metrics["traj_steps_per_s"]["value"] == pytest.approx(
        w.n_trajectories * w.n_steps / (6.0 * scale))
    assert metrics["peak_rss_mb"]["value"] == 40.0


def _write_run(out, n_traj=3):
    out.mkdir()
    (out / "bound_report.csv").write_text(
        "t,lhs_rate,lhs_se,rhs_bound,sufficient,violation\n"
        "0,0.25,0.125,-4,0,0\n0.5,0.5,0.0625,-3.5,0,0\n"
    )
    (out / "ensemble.csv").write_text("t,x,y,z\n0,1,0,0\n0.5,0.75,0,0.125\n")
    for i in range(n_traj):
        (out / f"trajectory_{i:05d}.csv").write_text(f"t,x\n0,1\n0.5,0.{i + 1}\n")
    return sorted(os.listdir(out))


def test_checker_accepts_an_identical_run(tmp_path):
    expected = _write_run(tmp_path / "a")
    reference = outputs.digest_outputs(str(tmp_path / "a"))
    _write_run(tmp_path / "b")
    assert outputs.check_outputs(str(tmp_path / "b"), expected, reference) == []


@pytest.mark.parametrize("name", ["trajectory_00001.csv", "ensemble.csv", "bound_report.csv"])
def test_checker_rejects_one_changed_digit(tmp_path, name):
    expected = _write_run(tmp_path / "a")
    reference = outputs.digest_outputs(str(tmp_path / "a"))
    _write_run(tmp_path / "b")
    path = tmp_path / "b" / name
    text = path.read_text()
    k = text.rindex("5")  # a digit in the last row of every file above
    path.write_text(text[:k] + "6" + text[k + 1:])
    problems = outputs.check_outputs(str(tmp_path / "b"), expected, reference)
    assert problems == [f"{name}: differs from the reference"]


def test_checker_rejects_a_missing_trajectory_file(tmp_path):
    expected = _write_run(tmp_path / "a")
    reference = outputs.digest_outputs(str(tmp_path / "a"))
    _write_run(tmp_path / "b")
    os.remove(tmp_path / "b" / "trajectory_00002.csv")
    assert outputs.check_outputs(str(tmp_path / "b"), expected, reference) == [
        "trajectory_00002.csv: missing"
    ]
    # without a reference the expected file list still catches it
    assert outputs.check_outputs(str(tmp_path / "b"), expected, None) == [
        "trajectory_00002.csv: missing"
    ]


def test_bound_report_pins_columns_by_name(tmp_path):
    expected = _write_run(tmp_path / "a")
    reference = outputs.digest_outputs(str(tmp_path / "a"))
    _write_run(tmp_path / "b")
    # a changed lhs_se and an added column are not mismatches
    (tmp_path / "b" / "bound_report.csv").write_text(
        "t,lhs_rate,lhs_se,rhs_bound,sufficient,violation,margin\n"
        "0,0.25,0.5,-4,0,0,1\n0.5,0.5,0.25,-3.5,0,0,2\n"
    )
    assert outputs.check_outputs(str(tmp_path / "b"), expected, reference) == []


@pytest.mark.parametrize("row, problem", [
    ("0.5,0.5,0.0625,-3.5,0,1", "violation flagged"),
    ("0.5,0.5,0,-3.5,0,0", "lhs_se 0 where lhs_rate is 0.5"),
    ("0.5,1e-140,0,-3.5,0,0", "lhs_se 0 where lhs_rate is 1e-140"),
    ("0.5,0.5,nan,-3.5,0,0", "lhs_se nan is not finite and non-negative"),
    ("0.5,0.5,-0.25,-3.5,0,0", "lhs_se -0.25 is not finite and non-negative"),
])
def test_bound_report_fixed_properties(tmp_path, row, problem):
    expected = _write_run(tmp_path / "a")
    (tmp_path / "a" / "bound_report.csv").write_text(
        "t,lhs_rate,lhs_se,rhs_bound,sufficient,violation\n0,0.25,0.125,-4,0,0\n" + row + "\n"
    )
    assert outputs.check_outputs(str(tmp_path / "a"), expected, None) == [
        f"bound_report.csv: {problem}"
    ]


@pytest.mark.parametrize("row", [
    "0.5,0,0,-6,0,0",  # every trajectory exactly pure: the exact SE is 0
    "0.5,-2.0095516917319166e-230,0,-6,0,0",  # entropies ~1e-230: squares underflow
])
def test_bound_report_allows_zero_se_below_resolvable_rate(tmp_path, row):
    expected = _write_run(tmp_path / "a")
    (tmp_path / "a" / "bound_report.csv").write_text(
        "t,lhs_rate,lhs_se,rhs_bound,sufficient,violation\n0,0.25,0.125,-4,0,0\n" + row + "\n"
    )
    assert outputs.check_outputs(str(tmp_path / "a"), expected, None) == []


def test_traced_run_spans_add_up_and_cover_every_layer(tmp_path):
    cfg = WORKLOADS["qubit_trajectory_csv"].config(3)
    cfg["ensemble"]["n_trajectories"] = 3
    cfg["ensemble"]["integrator"]["t_final"] = 0.06
    cfg["ensemble"]["integrator"]["record_stride"] = 6
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    spans = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "tracer.py"), "run", str(spans), "--",
         "simulate", "--config", str(config), "--workers", "1", "--out", str(tmp_path / "out")],
        check=True, env=bench.child_env(), timeout=120,
    )
    doc = json.loads(spans.read_text())
    assert doc["exit_code"] == 0 and doc["absent"] == []
    assert tracer.self_time_gap(doc) < 1e-9
    values = tracer.layer_metrics(doc, untraced_wall_s=1.0, traced_wall_s=1.5,
                                  pool_walls=None, workers=1)
    assert set(values) == set(tracer.LAYER_METRICS)
    assert values["cli.trajectory_resim_calls"] == 3
    assert values["integrate.kernel_builds"] == 4  # one per trajectory plus the chunk
    assert values["integrate.step_calls"] == 4 * 60
    assert values["integrate.traj_steps"] == 2 * 3 * 60
    assert values["integrate.wiener_draws"] == 2 * 3 * 60
    assert values["entropy.checkpoint_states"] == 2 * 3 * 11
    assert values["ensemble.noise_buffer_mb_computed"] == 3 * 60 * 8 / 1e6
    assert values["trace.overhead_s"] == 0.5
    assert values["cli.csv_bytes"] == sum(
        os.path.getsize(tmp_path / "out" / f) for f in os.listdir(tmp_path / "out")
    )


def test_pool_overhead_does_not_depend_on_the_trace():
    def doc(chunk_s):
        # a root span holding two chunk spans of chunk_s each
        return {"names": [tracer.ROOT_SPAN, "ensemble._chunk_sums"],
                "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 1.0 + chunk_s, 0],
                          [1, 5.0, 5.0 + chunk_s, 0]],
                "counters": {}, "absent": []}

    fast, slow = (tracer.layer_metrics(doc(c), 9.0, 10.0, (8.0, 4.5), 2) for c in (1.0, 3.0))
    assert fast["ensemble.pool_overhead_s"] == slow["ensemble.pool_overhead_s"] == 0.5
    assert tracer.layer_metrics(doc(1.0), 9.0, 10.0, None, 1)["ensemble.pool_overhead_s"] == 0.0


def test_workers_never_exceed_cores_or_chunks(monkeypatch):
    monkeypatch.setattr(workloads, "nproc", lambda: 4)
    assert WORKLOADS["qubit_readme"].worker_count() == 4
    assert WORKLOADS["qubit_trajectory_csv"].worker_count() == 1  # one chunk: no pool
    assert WORKLOADS["qubit_long_horizon"].worker_count() == 1
    monkeypatch.setattr(workloads, "nproc", lambda: 1)
    assert WORKLOADS["qubit_readme"].worker_count() == 1


def test_a_reference_is_made_despite_a_failed_fixed_property(tmp_path):
    expected = _write_run(tmp_path / "a")
    (tmp_path / "a" / "bound_report.csv").write_text(
        "t,lhs_rate,lhs_se,rhs_bound,sufficient,violation\n0,0.25,0,-4,0,0\n"
    )
    assert outputs.check_outputs(str(tmp_path / "a"), expected, None) == [
        "bound_report.csv: lhs_se 0 where lhs_rate is 0.25"
    ]
    assert outputs.reference_digests(str(tmp_path / "a"), expected) == outputs.digest_outputs(
        str(tmp_path / "a"))
    os.remove(tmp_path / "a" / "ensemble.csv")
    assert outputs.reference_digests(str(tmp_path / "a"), expected) is None


def test_absent_boundary_is_reported_as_absent_not_zero():
    class Fake:
        pass

    t = tracer.Tracer()
    t.install({"cli": Fake, "ensemble": Fake, "integrate": Fake})
    assert len(t.absent) == len(tracer.BOUNDARIES)
    root = t.open(tracer.ROOT_SPAN)
    t.close(root)
    doc = {"names": t.names, "spans": t.spans, "counters": t.counters, "absent": t.absent}
    values = tracer.layer_metrics(doc, 1.0, 1.0, None, 1)
    assert values["integrate.repair_s"] is None
    assert values["cli.csv_bytes"] is None
    assert values["trace.overhead_s"] == 0.0


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (unit, _) in tracer.LAYER_METRICS.items()
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
