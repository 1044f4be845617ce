import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from entroflux import cli, ensemble, linalg
from entroflux.cli import main
from entroflux.config import ConfigError, load_config
from entroflux.ensemble import EnsembleConfig, run_ensemble, trajectory_seed
from entroflux.entropy import BOUND_SIGN_TOL, build_bound_report, entropy_rate_bound
from entroflux.integrate import (
    IntegrationError,
    IntegratorConfig,
    simulate_trajectory,
)
from entroflux.linalg import (
    ValidationError,
    random_density,
    random_hermitian,
    random_operator,
    validate_density,
)
from entroflux.qubit import (
    QubitScenario,
    bloch_to_density,
    density_to_bloch,
    qubit_model,
    unconditional_bloch,
    z_threshold,
)


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

    def test_bloch_control_rejected_at_load_above_two_levels(self, tmp_path, capsys):
        overrides = d4_explicit_overrides()
        overrides["scenario"]["control"] = {"kind": "bloch_x_proportional", "gain": 5.0}
        cfg = write_config(tmp_path / "c.json", **overrides)
        with pytest.raises(ConfigError, match="requires a two-level system"):
            load_config(cfg)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: bloch_x_proportional control requires a two-level system\n")
        assert not out.exists()  # rejected before the run started

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


def reference_header(dim, values):
    if dim == 2:
        state = ["x", "y", "z"]
    else:
        state = [f"rho_{i}_{j}_{part}" for i in range(dim) for j in range(dim)
                 for part in ("re", "im")]
    return ",".join(["t"] + state + values) + "\n"


def fmt(x):
    """One CSV cell as the writers formatted it before they took whole arrays."""
    return format(float(x), ".17g")


def flag(b):
    return "1" if b else "0"


def reference_row(t, rho, *values):
    """One CSV row formatted cell by cell, each state on its own, as the
    writer did before it formatted whole arrays."""
    if rho.shape[0] == 2:
        r = validate_density(rho)
        state = [(r[0, 1] + r[1, 0]).real, (1j * (r[0, 1] - r[1, 0])).real,
                 (r[0, 0] - r[1, 1]).real]
    else:
        state = [part for i in range(rho.shape[0]) for j in range(rho.shape[1])
                 for part in (rho[i, j].real, rho[i, j].imag)]
    return ",".join(fmt(cell) for cell in [t, *state, *values]) + "\n"


def d4_explicit_overrides():
    rng = np.random.default_rng(4)
    ops = {"hamiltonian": random_hermitian(4, rng),
           "probe": random_hermitian(4, rng, scale=0.5),
           "decoherence": random_operator(4, rng, scale=0.5)}
    scenario = {"kind": "explicit", "dim": 4, "control": {"kind": "constant", "value": 0.5},
                **{name: pairs(op) for name, op in ops.items()}}
    return {"scenario": scenario,
            "initial_state": {"matrix": pairs(random_density(4, min_eig=0.05, seed=3))}}


class TestCsvFormatting:
    @pytest.mark.parametrize("control", [
        {"kind": "zero"}, {"kind": "constant", "value": 3.0},
        {"kind": "bloch_x_proportional", "gain": 5.0}, "explicit_d4"],
        ids=lambda c: c if isinstance(c, str) else c["kind"])
    def test_csvs_are_the_cell_by_cell_bytes(self, tmp_path, control):
        # every trajectory CSV, ensemble.csv and bound_report.csv of a
        # two-chunk run on two workers must be, byte for byte, the rows
        # formatted state by state and cell by cell
        path = tmp_path / "c.json"
        if control == "explicit_d4":
            overrides = d4_explicit_overrides()
        else:
            overrides = {"scenario": {"kind": "qubit", "kappa": 1.0, "alpha": 6.0,
                                      "control": control}}
        write_config(path, emit=["ensemble", "trajectories", "bound_report"], **overrides)
        raw = json.loads(path.read_text())
        raw["ensemble"]["n_trajectories"] = 300
        raw["ensemble"]["integrator"].update(t_final=0.05, record_stride=10)
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--workers", "2",
                     "--out", str(out)]) == 0

        cfg = load_config(str(path))
        dim = cfg.model.dim
        want = {}

        def sink(start, times, *rows):
            for b in range(rows[0].shape[1]):
                want[f"trajectory_{start + b:05d}.csv"] = reference_header(
                    dim, ["S", "dW", "repair", "y"]) + "".join(
                    reference_row(t, *(r[k, b] for r in rows))
                    for k, t in enumerate(times))

        stats = run_ensemble(cfg.model, cfg.initial_state, cfg.ensemble, trajectory_sink=sink)
        want["ensemble.csv"] = reference_header(
            dim, ["S_mean", "S_se", "quantumness_mean"]) + "".join(
            reference_row(t, stats.mean_state[k], stats.mean_entropy[k], stats.entropy_se[k],
                          stats.quantumness_mean[k])
            for k, t in enumerate(stats.times))
        report = build_bound_report(cfg.model, stats)
        want["bound_report.csv"] = "t,lhs_rate,lhs_se,rhs_bound,sufficient,violation\n" + "".join(
            ",".join([fmt(report.times[k]), fmt(report.lhs_rate[k]), fmt(report.lhs_se[k]),
                      fmt(report.rhs_bound[k]), flag(report.sufficient_flag[k]),
                      flag(report.violation_flag[k])]) + "\n"
            for k in range(len(report.times)))
        assert sorted(p.name for p in out.iterdir()) == sorted(want)
        for name, text in want.items():
            assert (out / name).read_bytes() == text.encode(), name
        if control == {"kind": "zero"}:
            y_cells = [line.split(",")[2] for name, text in want.items()
                       if name != "bound_report.csv" for line in text.splitlines()[1:]]
            assert len(y_cells) == 301 * 6 and "-0" not in y_cells

    @pytest.mark.parametrize("corrupt", ["trace", "hermiticity"])
    def test_invalid_state_in_a_chunk_is_named(self, tmp_path, corrupt):
        cfg = load_config(write_config(tmp_path / "c.json", emit=["trajectories"]))
        cfg = replace(cfg, output_path=str(tmp_path / "run"))
        os.makedirs(cfg.output_path)
        times = np.array([0.0, 0.03, 0.06])
        states = np.array([random_density(2, seed=s) for s in range(12)]).reshape(3, 4, 2, 2)
        rows = [states] + [np.zeros((3, 4)) for _ in range(4)]
        cli._write_trajectory_csvs(cfg, 256, times, *rows)  # a valid chunk passes
        assert len(os.listdir(cfg.output_path)) == 4

        bad = {"trace": 1.1 * states[1, 2],
               "hermiticity": states[1, 2] + np.array([[0.0, 1e-6], [0.0, 0.0]])}[corrupt]
        rows[0] = states.copy()
        rows[0][1, 2] = bad
        with pytest.raises(ValidationError) as want:
            validate_density(bad)
        with pytest.raises(IntegrationError) as got:
            cli._write_trajectory_csvs(cfg, 256, times, *rows)
        assert str(got.value) == f"trajectory 258 at t = 0.029999999999999999: {want.value}"

    def test_invalid_state_from_a_run_exits_three(self, tmp_path, capsys, monkeypatch):
        # a state the run produced is an integration failure, not a config error
        def corrupt_chunk_sums(payload, keep_rows=False):
            sums, rows = _CHUNK_SUMS(payload, keep_rows=keep_rows)
            rows[0][1, 2] *= 1.1
            return sums, rows

        monkeypatch.setattr(ensemble, "_chunk_sums", corrupt_chunk_sums)
        cfg = write_config(tmp_path / "c.json", emit=["trajectories"])
        assert main(["simulate", "--config", cfg, "--workers", "1",
                     "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("integration error: trajectory 2 at t = 0.029999999999999999: "
                              "density matrix trace")

    def test_states_are_not_converted_one_by_one(self, tmp_path, monkeypatch):
        # the number of per-state conversions and checks must not grow with
        # the number of trajectories written
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "density_to_bloch", counted(cli.density_to_bloch))
        monkeypatch.setattr(linalg, "validate_density", counted(linalg.validate_density))
        counts = []
        for n in (30, 300):
            path = tmp_path / f"c{n}.json"
            write_config(path, emit=["ensemble", "trajectories"])
            raw = json.loads(path.read_text())
            raw["ensemble"]["n_trajectories"] = n
            raw["ensemble"]["integrator"].update(t_final=0.05, record_stride=10)
            path.write_text(json.dumps(raw))
            calls.clear()
            assert main(["simulate", "--config", str(path), "--workers", "1",
                         "--out", str(tmp_path / f"run{n}")]) == 0
            assert len(os.listdir(tmp_path / f"run{n}")) == n + 1
            counts.append(len(calls))
        assert counts[0] == counts[1]


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
        # byte for byte the cells formatted one by one, as the writer did
        # before it formatted rows of floats
        loaded = load_config(cfg)
        integ = loaded.ensemble.integrator
        b0 = density_to_bloch(loaded.initial_state)
        times = [k * integ.record_stride * integ.dt
                 for k in range(integ.n_steps // integ.record_stride + 1)]
        want = [lines[0]]
        for alpha in loaded.alphas:
            scenario = QubitScenario(kappa=loaded.scenario.kappa, alpha=alpha)
            bounds = np.array([entropy_rate_bound(qubit_model(scenario), bloch_to_density(
                unconditional_bloch(scenario, b0, t))) for t in times])
            hits = np.flatnonzero(bounds >= -BOUND_SIGN_TOL)
            first = float(times[hits[0]]) if hits.size else -1.0
            want.append(",".join([fmt(alpha), fmt(z_threshold(alpha)), fmt(bounds.min()),
                                  fmt(first)]))
        assert (out / "sweep.csv").read_bytes() == "".join(f"{line}\n" for line in want).encode()

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

    @pytest.mark.parametrize("option", [["--workers", "7"], ["--seed", "-1"]])
    def test_takes_no_run_options(self, tmp_path, capsys, option):
        # sweep-alpha runs no ensemble, so a seed or worker count is a usage error
        cfg = write_config(tmp_path / "c.json", sweep={"alphas": [6.0]})
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exited:
            main(["sweep-alpha", "--config", cfg, *option, "--out", str(out)])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_ignores_the_worker_count_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENTROFLUX_WORKERS", "many")
        cfg = write_config(tmp_path / "c.json", sweep={"alphas": [6.0]})
        out = tmp_path / "run"
        assert main(["sweep-alpha", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()

    def test_requires_sweep_section(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["sweep-alpha", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("where", ["onto", "under"])
    def test_unusable_output_path_exits_two(self, tmp_path, capsys, where):
        cfg = write_config(tmp_path / "c.json", sweep={"alphas": [6.0]})
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker if where == "onto" else blocker / "run"
        assert main(["sweep-alpha", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
        assert "Traceback" not in err


class TestSelftestCommand:
    def test_passes_clean(self):
        assert main(["selftest"]) == 0

    def test_corrupt_hook_fails(self, corrupt_validation_states, capsys):
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

    def test_invalid_env_var_is_config_error(self, tmp_path, monkeypatch, capsys):
        # neither the config nor --workers gives a count, so the variable is read
        ensemble = {"n_trajectories": 40, "master_seed": 42,
                    "integrator": {"dt": 0.001, "t_final": 0.3, "record_stride": 30}}
        cfg = write_config(tmp_path / "c.json", ensemble=ensemble)
        monkeypatch.setenv("ENTROFLUX_WORKERS", "many")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "ENTROFLUX_WORKERS must be an integer, got 'many'" in capsys.readouterr().err

    def test_workers_option_leaves_env_var_unread(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.json")
        monkeypatch.setenv("ENTROFLUX_WORKERS", "many")
        assert main(["simulate", "--config", cfg, "--workers", "1",
                     "--out", str(tmp_path / "o")]) == 0

    def test_config_worker_count_leaves_env_var_unread(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.json")  # "worker_count": 1
        monkeypatch.setenv("ENTROFLUX_WORKERS", "many")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "ensemble.csv").exists()


def _with_integrator(path, emit=("ensemble",), **integrator):
    write_config(path, emit=list(emit))
    raw = json.loads(path.read_text())
    raw["ensemble"]["integrator"].update(integrator)
    path.write_text(json.dumps(raw))
    return str(path)


class TestNonFiniteNumbers:
    # json.load reads NaN and Infinity; every such number is a config error
    @pytest.mark.parametrize("where, key, value", [
        ("integrator", "repair_tolerance", float("nan")),
        ("integrator", "dt", float("nan")),
        ("integrator", "t_final", float("inf")),
        ("integrator", "record_stride", float("nan")),
        ("ensemble", "n_trajectories", float("inf")),
        ("control", "value", float("nan")),
    ])
    def test_exits_two(self, tmp_path, capsys, where, key, value):
        path = tmp_path / "c.json"
        write_config(path, scenario={"kind": "qubit", "kappa": 1.0, "alpha": 6.0,
                                     "control": {"kind": "constant", "value": 1.0}})
        raw = json.loads(path.read_text())
        node = {"integrator": raw["ensemble"]["integrator"], "ensemble": raw["ensemble"],
                "control": raw["scenario"]["control"]}[where]
        node[key] = value
        path.write_text(json.dumps(raw))
        assert main(["verify-bound", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "must be a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kwargs, match", [
        ({"dt": float("nan")}, "dt must be positive"),
        ({"t_final": float("nan")}, "t_final"),
        ({"t_final": float("inf")}, "t_final"),
        ({"floor": float("nan")}, "floor must be positive"),
        ({"repair_tolerance": float("nan")}, "repair_tolerance must be positive"),
        ({"record_stride": float("nan")}, "record_stride"),
    ])
    def test_integrator_config_rejects_nan(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            IntegratorConfig(**kwargs)

    def test_ensemble_config_rejects_nan(self):
        with pytest.raises(ValidationError, match="n_trajectories"):
            EnsembleConfig(n_trajectories=float("nan"))
        with pytest.raises(ValidationError, match="worker_count"):
            EnsembleConfig(n_trajectories=1, worker_count=float("nan"))


def _explicit_scenario(**changes):
    scenario = {"kind": "explicit", "dim": 2,
                "hamiltonian": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
                "probe": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                "decoherence": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]}
    return {**scenario, **changes}


def _config_with(path, leaf, value):
    """A valid config file, except that the value at ``leaf`` is ``value``."""
    write_config(path, sweep={"alphas": [6.0]})
    raw = json.loads(path.read_text())
    if leaf.startswith("scenario.hamiltonian"):
        raw["scenario"] = _explicit_scenario()
    *keys, last = {
        "scenario.hamiltonian[0][0]": ["scenario", "hamiltonian", 0, 0, 1],  # the im part
        "initial_state.bloch[0]": ["initial_state", "bloch", 0],
        "sweep.alphas[0]": ["sweep", "alphas", 0],
    }.get(leaf, leaf.split("."))
    node = raw
    for key in keys:
        node = node[key]
    node[last] = value
    path.write_text(json.dumps(raw))
    return str(path)


class TestNumberRule:
    # one rule for every numeric leaf: an int or float, not a bool, and finite
    @pytest.mark.parametrize("value", [True, "1", float("nan"), float("inf")],
                             ids=["bool", "string", "nan", "infinity"])
    @pytest.mark.parametrize("leaf", [
        "ensemble.integrator.dt", "scenario.kappa", "initial_state.bloch[0]",
        "scenario.hamiltonian[0][0]", "sweep.alphas[0]",
    ])
    def test_exits_two_naming_the_leaf(self, tmp_path, capsys, leaf, value):
        path = _config_with(tmp_path / "c.json", leaf, value)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and leaf in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_an_int_beyond_float_range_is_not_finite(self, tmp_path):
        path = _config_with(tmp_path / "c.json", "scenario.kappa", 10 ** 400)
        with pytest.raises(ConfigError, match="scenario.kappa must be a finite number"):
            load_config(path)


class TestOneErrorType:
    @pytest.mark.parametrize("leaf, value", [
        ("scenario.kappa", -1),
        ("scenario.alpha", -1),
        ("ensemble.integrator.dt", 0),
        ("scenario.hamiltonian", [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]),
        ("ensemble.master_seed", -1),
    ])
    def test_load_config_raises_exactly_config_error(self, tmp_path, leaf, value):
        # a dataclass range check raises ValidationError; load_config reports it
        with pytest.raises(ConfigError) as err:
            load_config(_config_with(tmp_path / "c.json", leaf, value))
        assert type(err.value) is ConfigError

    def test_a_file_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"output_path": "\xff"}')
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {path} is not valid JSON: ")

    @pytest.mark.parametrize("overrides", [
        {"initial_state": {"matrix": [[[1 / 3, 0]] * 3] * 3}},
        {"scenario": _explicit_scenario(dim=4, **dict.fromkeys(
            ("hamiltonian", "probe", "decoherence"), [[[0, 0]] * 4] * 4)),
         "initial_state": {"bloch": [0, 0, 1]}},
    ], ids=["matrix-on-a-qubit", "bloch-at-d4"])
    def test_initial_state_of_another_dimension(self, tmp_path, overrides):
        path = write_config(tmp_path / "c.json", **overrides)
        with pytest.raises(ConfigError, match="initial_state has dimension"):
            load_config(path)


class TestRulesCheckedBeforeTheRun:
    @pytest.fixture
    def no_run(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_ensemble was called")
        monkeypatch.setattr(cli, "run_ensemble", fail)

    @pytest.mark.parametrize("command, emit", [("verify-bound", ["ensemble"]),
                                               ("simulate", ["ensemble", "bound_report"])])
    def test_two_checkpoints_exit_two(self, tmp_path, capsys, no_run, command, emit):
        path = _with_integrator(tmp_path / "c.json", emit, t_final=0.019, record_stride=10)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: need at least 3 checkpoints, got 2\n"
        assert not (tmp_path / "o").exists()

    def test_simulate_without_a_bound_report_takes_two_checkpoints(self, tmp_path):
        path = _with_integrator(tmp_path / "c.json", t_final=0.019, record_stride=10)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert len((tmp_path / "o" / "ensemble.csv").read_text().splitlines()) == 1 + 2

    def test_bound_report_rejects_non_hermitian_probe_before_the_run(self, tmp_path, capsys,
                                                                     no_run):
        scenario = {"kind": "explicit", "dim": 2,
                    "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                    "probe": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
                    "decoherence": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}
        cfg = write_config(tmp_path / "c.json", scenario=scenario, emit=["bound_report"])
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: the rate bound requires a Hermitian probe (max asymmetry "
            "1.000e+00): it is only valid for self-adjoint measured couplings\n")

    def test_workers_below_one_exit_two(self, tmp_path, capsys, no_run):
        cfg = write_config(tmp_path / "c.json")
        assert main(["simulate", "--config", cfg, "--workers", "0",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: worker_count must be >= 1\n"

    def test_negative_seed_in_the_config_exits_two(self, tmp_path, capsys, no_run):
        path = tmp_path / "c.json"
        write_config(path)
        raw = json.loads(path.read_text())
        raw["ensemble"]["master_seed"] = -3
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="master_seed must be >= 0"):
            load_config(str(path))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: master_seed must be >= 0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify-bound"])
    def test_negative_seed_option_exits_two(self, tmp_path, capsys, no_run, command):
        cfg = write_config(tmp_path / "c.json")
        assert main([command, "--config", cfg, "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: master_seed must be >= 0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify-bound"])
    @pytest.mark.parametrize("where", ["onto", "under"])
    def test_unusable_output_path_exits_two(self, tmp_path, capsys, no_run, command, where):
        cfg = write_config(tmp_path / "c.json")
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker if where == "onto" else blocker / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
        assert "Traceback" not in err
        assert blocker.read_text() == ""

@pytest.mark.parametrize("command, emit, name", [
    ("simulate", ["ensemble"], "ensemble.csv"),
    ("simulate", ["trajectories"], "trajectory_00000.csv"),
    ("verify-bound", ["ensemble"], "bound_report.csv"),
    ("sweep-alpha", ["ensemble"], "sweep.csv"),
], ids=["simulate-ensemble", "simulate-trajectories", "verify-bound", "sweep-alpha"])
def test_unwritable_output_file_exits_two(tmp_path, capsys, command, emit, name):
    cfg = write_config(tmp_path / "c.json", emit=emit, sweep={"alphas": [6.0]})
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)  # a directory where the CSV file should go
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / name}: ")
    assert "Traceback" not in err


def _readme_config() -> str:
    """The JSON block of the README's "Config file" section, verbatim."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("### Config file", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


class TestReadmeConfig:
    OPTIONAL = ("floor", "repair_tolerance", "record_stride")

    def test_readme_block_loads(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(_readme_config())
        raw = json.loads(_readme_config())
        cfg = load_config(str(path))
        integ = cfg.ensemble.integrator
        for key, value in raw["ensemble"]["integrator"].items():
            assert getattr(integ, key) == value, key
        assert cfg.ensemble.n_trajectories == raw["ensemble"]["n_trajectories"]
        assert cfg.alphas == tuple(raw["sweep"]["alphas"])

    @pytest.mark.parametrize("omitted", [(key,) for key in OPTIONAL] + [OPTIONAL])
    def test_omitted_integrator_keys_take_the_dataclass_defaults(self, tmp_path, omitted):
        raw = json.loads(_readme_config())
        for key in omitted:
            del raw["ensemble"]["integrator"][key]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        integ = load_config(str(path)).ensemble.integrator
        defaults = IntegratorConfig()
        for key in omitted:
            assert getattr(integ, key) == getattr(defaults, key), key

    def test_omitted_master_seed_takes_the_dataclass_default(self, tmp_path):
        raw = json.loads(_readme_config())
        del raw["ensemble"]["master_seed"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert load_config(str(path)).ensemble.master_seed == EnsembleConfig(1).master_seed
