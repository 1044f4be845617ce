"""The call boundaries that ``bench/tracer.py`` wraps must stay in place,
and the outputs that ``bench/reference.json`` pins must keep their bytes.

A traced benchmark run reports a per-layer metric as null when its
boundary is missing, and loses every metric when a wrapped call no
longer unpacks as the tracer expects.  These tests run the tracer on the
package itself, so such a break fails here first.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

from entroflux import cli, ensemble, integrate

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")
MODULES = {"cli": cli, "ensemble": ensemble, "integrate": integrate}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module_name: str, attr: str):
    owner = MODULES[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_every_boundary_resolves(tracer):
    missing = []
    for module_name, attr, _ in tracer.BOUNDARIES:
        owner, leaf = _owner(module_name, attr)
        if not callable(getattr(owner, leaf, None)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_traced_simulate_reports_every_layer_metric(tracer, tmp_path, monkeypatch):
    for module_name, attr, _ in tracer.BOUNDARIES:
        owner, leaf = _owner(module_name, attr)
        monkeypatch.setattr(owner, leaf, getattr(owner, leaf))  # restored after the test
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "scenario": {"kind": "qubit", "kappa": 1.0, "alpha": 6.0,
                     "control": {"kind": "zero"}},
        "initial_state": {"bloch": [1.0, 0.0, 0.0]},
        "ensemble": {"n_trajectories": 3, "master_seed": 1, "worker_count": 1,
                     "integrator": {"dt": 0.001, "t_final": 0.05, "record_stride": 10}},
        "emit": ["ensemble", "trajectories"],
    }))
    t = tracer.Tracer()
    root = t.open(tracer.ROOT_SPAN)
    t.install(MODULES)
    try:
        code = cli.main(["simulate", "--config", str(config), "--workers", "1",
                         "--out", str(tmp_path / "out")])
    finally:
        t.close(root)
    spans = tmp_path / "spans.json"
    t.dump(str(spans), exit_code=code)
    doc = json.loads(spans.read_text())
    assert code == 0
    assert doc["absent"] == []
    values = tracer.layer_metrics(doc, untraced_wall_s=1.0, traced_wall_s=1.5,
                                  pool_walls=None, workers=1)
    assert [name for name, value in values.items() if value is None] == []
    assert values["ensemble.chunks"] == 1
    assert values["cli.trajectory_resim_calls"] == 0
    assert values["integrate.kernel_builds"] == 1
    # every step goes through the wrapped ``step`` and ``_project_batch``:
    # 50 steps of one 3-row batch, each row repaired once per step
    assert values["integrate.step_calls"] == 50
    assert values["integrate.repair_rows"] == values["integrate.traj_steps"] == 150


def _blas() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without build information as dicts
        return None
    return f"{blas.get('name')} {blas.get('version')}"


# The numpy and BLAS build bench/reference.json was recorded on; another
# build may round the same operations differently.
PINNED_BUILD = ("2.4.6", "scipy-openblas 0.3.31.188.0")


@pytest.mark.skipif((np.__version__, _blas()) != PINNED_BUILD,
                    reason="bench/reference.json pins the bytes of numpy 2.4.6 on "
                           "scipy-openblas 0.3.31.188.0")
@pytest.mark.parametrize("name", ["qubit_trajectory_csv", "qubit_long_horizon", "explicit_d4"])
def test_outputs_match_the_pinned_reference(bench, name, tmp_path):
    # the qubit workloads take the closed-form 2x2 repair, in 32-row and
    # 256-row batches, the d=4 one the general eigenvalue repair
    with open(os.path.join(os.path.dirname(TRACER), "reference.json"), encoding="utf-8") as fh:
        want = json.load(fh)[name]["0"]
    w = bench.workloads.WORKLOADS[name]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(w.config(0)))
    out = tmp_path / "out"
    assert cli.main(w.cli_args(str(config), 0, str(out), workers=1)) == 0
    assert bench.outputs.digest_outputs(str(out)) == want
