"""The call boundaries that ``bench/tracer.py`` wraps must stay in place.

A traced benchmark run reports a per-layer metric as null when its
boundary is missing, and loses every metric when a wrapped call no
longer unpacks as the tracer expects.  These tests run the tracer on the
package itself, so such a break fails here first.
"""

import importlib.util
import json
import os

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
