import json
import os

import numpy as np
import pytest

from entroflux import ensemble
from entroflux.cli import main
from entroflux.config import ConfigError, load_config
from entroflux.ensemble import trajectory_seed
from entroflux.integrate import simulate_trajectory
from entroflux.linalg import random_density, random_hermitian, random_operator
from entroflux.qubit import density_to_bloch


_CHUNK_SUMS = ensemble._chunk_sums


# Module-level span runners, so that a pool worker unpickles them by name.
def _exit_in_first_span(payload, keep_rows=False):
    if payload[4] == 0:
        os._exit(1)
    return _CHUNK_SUMS(payload, keep_rows=keep_rows)


def _no_memory_after_first_span(payload, keep_rows=False):
    if payload[4] > 0:
        raise MemoryError
    return _CHUNK_SUMS(payload, keep_rows=keep_rows)


def pairs(matrix):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(matrix, dtype=complex)]


def write_config(path, **overrides):
    cfg = {
        "scenario": {"kind": "qubit", "kappa": 1.0, "alpha": 6.0,
                     "control": {"kind": "zero"}},
        "initial_state": {"bloch": [1.0, 0.0, 0.0]},
        "ensemble": {
            "n_trajectories": 40,
            "master_seed": 42,
            "worker_count": 1,
            "integrator": {"dt": 0.001, "t_final": 0.3, "record_stride": 30},
        },
        "emit": ["ensemble"],
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigParsing:
    def test_valid_qubit_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert cfg.model.dim == 2
        assert cfg.scenario.alpha == 6.0
        assert cfg.ensemble.n_trajectories == 40

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path / "c.json", extra_knob=1)
        with pytest.raises(ConfigError, match="unknown key.*extra_knob"):
            load_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = tmp_path / "c.json"
        write_config(path)
        raw = json.loads(path.read_text())
        raw["ensemble"]["integrator"]["burn_in"] = 5
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="unknown key.*burn_in"):
            load_config(str(path))

    def test_nonpositive_dt_message(self, tmp_path):
        path = tmp_path / "c.json"
        write_config(path)
        raw = json.loads(path.read_text())
        raw["ensemble"]["integrator"]["dt"] = -0.1
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="dt must be positive"):
            load_config(str(path))

    def test_bloch_norm_checked(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            initial_state={"bloch": [1.0, 1.0, 1.0]})
        with pytest.raises(ConfigError, match="norm"):
            load_config(path)

    def test_explicit_model_re_im_pairs(self, tmp_path):
        scenario = {
            "kind": "explicit",
            "dim": 2,
            "hamiltonian": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
            "probe": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            "decoherence": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
            "control": {"kind": "zero"},
        }
        cfg = load_config(write_config(tmp_path / "c.json", scenario=scenario))
        np.testing.assert_allclose(cfg.model.hamiltonian,
                                   np.array([[0, -1j], [1j, 0]]))
        np.testing.assert_allclose(cfg.model.probe, np.diag([1.0, -1.0]))
        assert cfg.scenario is None

    def test_explicit_model_rejects_non_hermitian_h(self, tmp_path):
        scenario = {
            "kind": "explicit",
            "dim": 2,
            "hamiltonian": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
            "probe": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            "decoherence": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        }
        with pytest.raises(ConfigError, match="Hermitian"):
            load_config(write_config(tmp_path / "c.json", scenario=scenario))

    def test_matrix_initial_state(self, tmp_path):
        path = write_config(tmp_path / "c.json",
                            initial_state={"matrix": [[[0.5, 0], [0, 0]],
                                                      [[0, 0], [0.5, 0]]]})
        cfg = load_config(path)
        np.testing.assert_allclose(cfg.initial_state, np.eye(2) / 2)

    def test_missing_required_section(self, tmp_path):
        path = tmp_path / "c.json"
        raw = json.loads(open(write_config(path)).read())
        del raw["ensemble"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="missing required key 'ensemble'"):
            load_config(str(path))

    def test_emit_values_checked(self, tmp_path):
        path = write_config(tmp_path / "c.json", emit=["plots"])
        with pytest.raises(ConfigError, match="emit entries"):
            load_config(path)


class TestSimulateCommand:
    def test_exit_zero_and_csv_shape(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "ensemble.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,z,S_mean,S_se,quantumness_mean"
        assert len(lines) == 1 + 300 // 30 + 1  # header + checkpoints

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        write_config(path)
        raw = json.loads(path.read_text())
        raw["ensemble"]["integrator"]["dt"] = 0
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "dt must be positive" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_frozen_dynamics_rows_constant(self, tmp_path):
        scenario = {
            "kind": "explicit",
            "dim": 2,
            "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "probe": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "decoherence": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        }
        cfg = write_config(tmp_path / "c.json", scenario=scenario)
        raw = json.loads(open(cfg).read())
        raw["ensemble"]["n_trajectories"] = 1
        (tmp_path / "c.json").write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "ensemble.csv").read_text().splitlines()[1:]
        cells = [row.split(",") for row in rows]
        for row in cells:
            assert row[1:] == cells[0][1:]  # state and entropy never move
        assert float(cells[0][1]) == 1.0  # x stays at the initial value

    def test_byte_identical_across_worker_counts(self, tmp_path):
        # spans multiple chunks to exercise the ordered reduction
        cfg = write_config(tmp_path / "c.json")
        raw = json.loads(open(cfg).read())
        raw["ensemble"]["n_trajectories"] = 300
        (tmp_path / "c.json").write_text(json.dumps(raw))
        out1, out4 = tmp_path / "w1", tmp_path / "w4"
        assert main(["simulate", "--config", cfg, "--workers", "1",
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--workers", "4",
                     "--out", str(out4)]) == 0
        assert (out1 / "ensemble.csv").read_bytes() == (out4 / "ensemble.csv").read_bytes()

    def test_trajectory_emission(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", emit=["ensemble", "trajectories"])
        raw = json.loads(open(cfg).read())
        raw["ensemble"]["n_trajectories"] = 3
        (tmp_path / "c.json").write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert "trajectory_00000.csv" in names and "trajectory_00002.csv" in names
        header = (out / "trajectory_00000.csv").read_text().splitlines()[0]
        assert header == "t,x,y,z,S,dW,repair,y"

    def test_trajectory_csvs_are_the_batch_rows(self, tmp_path):
        # 300 trajectories span two chunks (256 + 44 rows); each CSV must be
        # the same bytes on any worker count and hold, bit for bit, the
        # batch-of-one record of its trajectory
        path = tmp_path / "c.json"
        write_config(path, emit=["trajectories"])
        raw = json.loads(path.read_text())
        raw["ensemble"]["n_trajectories"] = 300
        raw["ensemble"]["integrator"].update(t_final=0.05, record_stride=10)
        path.write_text(json.dumps(raw))
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        for out, workers in ((out1, "1"), (out2, "2")):
            assert main(["simulate", "--config", str(path), "--workers", workers,
                         "--out", str(out)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == [f"trajectory_{i:05d}.csv" for i in range(300)]
        cfg = load_config(str(path))
        for index, name in enumerate(names):
            text = (out1 / name).read_bytes()
            assert text == (out2 / name).read_bytes(), name
            rec = simulate_trajectory(cfg.model, cfg.initial_state, cfg.ensemble.integrator,
                                      trajectory_seed(42, index))
            want = np.column_stack([
                rec.times, [density_to_bloch(rho) for rho in rec.states], rec.entropies,
                rec.dW_draws, rec.repair_magnitudes, rec.measurement_record,
            ])
            # 17 significant digits round-trip every double exactly
            got = np.array([[float(cell) for cell in line.split(",")]
                            for line in text.decode().splitlines()[1:]])
            assert np.array_equal(got, want), name

    def test_d4_trajectory_csvs_are_simulate_trajectory(self, tmp_path):
        # for d > 2 a lone row used to take another BLAS path than a batch;
        # every row of a two-chunk d=4 run must equal its single-trajectory
        # record bit for bit
        rng = np.random.default_rng(4)
        ops = {"hamiltonian": random_hermitian(4, rng),
               "probe": random_hermitian(4, rng, scale=0.5),
               "decoherence": random_operator(4, rng, scale=0.5)}
        scenario = {"kind": "explicit", "dim": 4, "control": {"kind": "constant", "value": 0.5},
                    **{name: pairs(op) for name, op in ops.items()}}
        initial = {"matrix": pairs(random_density(4, min_eig=0.05, seed=3))}
        path = tmp_path / "c.json"
        write_config(path, scenario=scenario, initial_state=initial, emit=["trajectories"])
        raw = json.loads(path.read_text())
        raw["ensemble"]["n_trajectories"] = 300
        raw["ensemble"]["integrator"].update(t_final=0.05, record_stride=10)
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--workers", "2",
                     "--out", str(out)]) == 0
        cfg = load_config(str(path))
        for index in range(300):
            rec = simulate_trajectory(cfg.model, cfg.initial_state, cfg.ensemble.integrator,
                                      trajectory_seed(42, index))
            cells = np.stack([rec.states.real, rec.states.imag], axis=-1).reshape(len(rec.times), -1)
            want = np.column_stack([rec.times, cells, rec.entropies, rec.dW_draws,
                                    rec.repair_magnitudes, rec.measurement_record])
            text = (out / f"trajectory_{index:05d}.csv").read_text()
            got = np.array([[float(cell) for cell in line.split(",")]
                            for line in text.splitlines()[1:]])
            assert np.array_equal(got, want), index

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out2)])
        assert (out1 / "ensemble.csv").read_text() != (out2 / "ensemble.csv").read_text()

    def test_seventeen_digit_cells_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        main(["simulate", "--config", cfg, "--out", str(out)])
        rows = (out / "ensemble.csv").read_text().splitlines()[1:]
        for row in rows:
            for cell in row.split(","):
                value = float(cell)  # parseable
                assert format(value, ".17g") == cell  # round-trips exactly


class TestVerifyBoundCommand:
    def test_passes_on_qubit_run(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        assert main(["verify-bound", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bound_report.csv").read_text().splitlines()
        assert lines[0] == "t,lhs_rate,lhs_se,rhs_bound,sufficient,violation"
        assert all(row.split(",")[5] == "0" for row in lines[1:])

    def test_frozen_dynamics_all_zero_columns(self, tmp_path):
        scenario = {
            "kind": "explicit",
            "dim": 2,
            "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "probe": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "decoherence": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        }
        cfg = write_config(tmp_path / "c.json", scenario=scenario)
        out = tmp_path / "run"
        assert main(["verify-bound", "--config", cfg, "--out", str(out)]) == 0
        for row in (out / "bound_report.csv").read_text().splitlines()[1:]:
            _, rate, _, bound, _, violation = row.split(",")
            assert float(rate) == 0.0
            assert float(bound) == 0.0
            assert violation == "0"

    def test_violation_exits_four_but_writes_report(self, tmp_path, monkeypatch):
        # plumbing check: a flagged report must still be written and the
        # command must exit 4
        import entroflux.cli as cli_mod
        from entroflux.entropy import EntropyBoundReport

        def fake_report(model, stats):
            n = len(stats.times)
            return EntropyBoundReport(
                times=np.asarray(stats.times),
                lhs_rate=np.full(n, -1.0),
                lhs_se=np.zeros(n),
                rhs_bound=np.zeros(n),
                sufficient_flag=np.ones(n, dtype=bool),
                violation_flag=np.ones(n, dtype=bool),
            )

        monkeypatch.setattr(cli_mod, "build_bound_report", fake_report)
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        assert main(["verify-bound", "--config", cfg, "--out", str(out)]) == 4
        assert (out / "bound_report.csv").exists()
        rows = (out / "bound_report.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[5] == "1" for row in rows)

    def test_integration_failure_exits_three(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        write_config(path)
        raw = json.loads(path.read_text())
        raw["ensemble"]["integrator"]["repair_tolerance"] = 1e-9
        path.write_text(json.dumps(raw))
        assert main(["verify-bound", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "trajectory" in err and "step" in err

    def test_failure_names_one_trajectory_at_any_worker_count(self, tmp_path, capsys):
        # 600 trajectories fail at several steps in several chunks; the
        # report must be the earliest step, however the run is split
        path = tmp_path / "c.json"
        write_config(path, scenario={"kind": "qubit", "kappa": 1.0, "alpha": 0.0,
                                     "control": {"kind": "zero"}})
        raw = json.loads(path.read_text())
        raw["ensemble"]["n_trajectories"] = 600
        raw["ensemble"]["master_seed"] = 0
        raw["ensemble"]["integrator"].update(t_final=0.2, record_stride=20,
                                             repair_tolerance=1e-2)
        path.write_text(json.dumps(raw))
        messages = []
        for workers in ("1", "2", "3"):
            assert main(["verify-bound", "--config", str(path), "--workers", workers,
                         "--out", str(tmp_path / workers)]) == 3
            messages.append(capsys.readouterr().err)
        assert messages[1:] == messages[:1] * 2
        assert "trajectory 352: step 2 " in messages[0]

    @pytest.mark.parametrize("runner, span", [(_exit_in_first_span, "[0, 256)"),
                                              (_no_memory_after_first_span, "[256, 600)")])
    def test_lost_worker_exits_three_naming_its_span(self, runner, span, tmp_path,
                                                     capsys, monkeypatch):
        # 600 trajectories on 2 workers are the spans [0, 256) and [256, 600)
        path = tmp_path / "c.json"
        write_config(path)
        raw = json.loads(path.read_text())
        raw["ensemble"]["n_trajectories"] = 600
        path.write_text(json.dumps(raw))
        monkeypatch.setattr(ensemble, "_chunk_sums", runner)
        assert main(["verify-bound", "--config", str(path), "--workers", "2",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"worker error: trajectories {span} were not simulated: ")
        assert "Traceback" not in err

    def test_rejects_non_hermitian_probe(self, tmp_path, capsys):
        scenario = {
            "kind": "explicit",
            "dim": 2,
            "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "probe": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
            "decoherence": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        }
        cfg = write_config(tmp_path / "c.json", scenario=scenario)
        assert main(["verify-bound", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "Hermitian probe" in capsys.readouterr().err


class TestSweepAlphaCommand:
    def test_threshold_endpoints_and_order(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", sweep={"alphas": [6.0, 0.0, 1e6]})
        out = tmp_path / "run"
        assert main(["sweep-alpha", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,z_threshold,min_rhs_bound,first_sufficient_time"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [6.0, 0.0, 1e6]  # input order kept
        assert float(rows[0][1]) == 0.5
        assert float(rows[1][1]) == 1.0
        assert float(rows[2][1]) < 1e-4

    @pytest.mark.parametrize("control", [
        {"kind": "constant", "value": 3.0},
        {"kind": "bloch_x_proportional", "gain": 5.0},
    ])
    def test_rejects_nonzero_control(self, tmp_path, capsys, control):
        # the mean path is the zero-control closed form, so any other law
        # would be silently ignored
        scenario = {"kind": "qubit", "kappa": 1.0, "alpha": 6.0, "control": control}
        cfg = write_config(tmp_path / "c.json", scenario=scenario, sweep={"alphas": [6.0]})
        out = tmp_path / "run"
        assert main(["sweep-alpha", "--config", cfg, "--out", str(out)]) == 2
        assert "scenario.control" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_requires_sweep_section(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["sweep-alpha", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestSelftestCommand:
    def test_passes_clean(self):
        assert main(["selftest"]) == 0

    def test_corrupt_hook_fails(self, monkeypatch, capsys):
        monkeypatch.setenv("_ENTROFLUX_SELFTEST_CORRUPT", "1")
        assert main(["selftest"]) == 5
        out = capsys.readouterr().out
        assert "FAIL density-validation" in out
        assert "counterexample" in out


class TestWorkerEnvDefault:
    def test_env_var_feeds_default(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        write_config(path)
        raw = json.loads(path.read_text())
        del raw["ensemble"]["worker_count"]
        path.write_text(json.dumps(raw))
        monkeypatch.setenv("ENTROFLUX_WORKERS", "3")
        cfg = load_config(str(path), default_workers=int(os.environ["ENTROFLUX_WORKERS"]))
        assert cfg.ensemble.worker_count == 3

    def test_invalid_env_var_is_config_error(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.json")
        monkeypatch.setenv("ENTROFLUX_WORKERS", "many")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
