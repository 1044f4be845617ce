"""Strict JSON run configuration.

The config is a nested key-value document; unknown keys are rejected at
every level so physics misconfiguration fails loudly before any
computation starts.  Complex matrix entries are given as [re, im] pairs
in row-major order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleConfig
from .integrate import IntegratorConfig
from .linalg import ValidationError, validate_density
from .model import CONTROL_KINDS, ControlLaw, ModelSpec
from .qubit import QubitScenario, bloch_to_density, qubit_model

EMIT_KINDS = ("trajectories", "ensemble", "bound_report")


class ConfigError(ValueError):
    """The run configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    initial_state: np.ndarray
    ensemble: EnsembleConfig
    output_path: str
    emit: tuple[str, ...]
    scenario: QubitScenario | None
    alphas: tuple[float, ...] | None


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: set[str], where: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _number(node: dict, key: str, where: str, default=None):
    """``node[key]``, which must be a finite number; JSON's NaN and Infinity are not."""
    if key not in node:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in {where}")
        return default
    val = node[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {val!r}")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{where}.{key} must be a finite number, got {val!r}")
    return val


def _integer(node: dict, key: str, where: str, default=None) -> int:
    val = _number(node, key, where, default)
    if int(val) != val:
        raise ConfigError(f"{where}.{key} must be an integer, got {val!r}")
    return int(val)


def parse_complex_matrix(node, dim: int, where: str) -> np.ndarray:
    """Decode a dim x dim matrix of row-major [re, im] pairs."""
    if not isinstance(node, list) or len(node) != dim:
        raise ConfigError(f"{where} must be a list of {dim} rows")
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != dim:
            raise ConfigError(f"{where} row {i} must have {dim} entries")
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in pair)
            ):
                raise ConfigError(
                    f"{where}[{i}][{j}] must be a [re, im] pair of numbers, got {pair!r}"
                )
            out[i, j] = complex(pair[0], pair[1])
    return out


def _parse_control(node, where: str) -> ControlLaw:
    if node is None:
        return ControlLaw()
    node = _require_mapping(node, where)
    kind = node.get("kind")
    if kind not in CONTROL_KINDS:
        raise ConfigError(f"{where}.kind must be one of {CONTROL_KINDS}, got {kind!r}")
    if kind == "constant":
        _check_keys(node, {"kind", "value"}, where)
        return ControlLaw(kind="constant", value=float(_number(node, "value", where)))
    if kind == "bloch_x_proportional":
        _check_keys(node, {"kind", "gain"}, where)
        return ControlLaw(kind="bloch_x_proportional", gain=float(_number(node, "gain", where)))
    _check_keys(node, {"kind"}, where)
    return ControlLaw()


def _parse_scenario(node) -> tuple[ModelSpec, QubitScenario | None]:
    node = _require_mapping(node, "scenario")
    kind = node.get("kind")
    if kind == "qubit":
        _check_keys(node, {"kind", "kappa", "alpha", "control"}, "scenario")
        scenario = QubitScenario(
            kappa=float(_number(node, "kappa", "scenario")),
            alpha=float(_number(node, "alpha", "scenario")),
            control=_parse_control(node.get("control"), "scenario.control"),
        )
        return qubit_model(scenario), scenario
    if kind == "explicit":
        _check_keys(
            node, {"kind", "dim", "hamiltonian", "probe", "decoherence", "control"}, "scenario"
        )
        dim = _integer(node, "dim", "scenario")
        if dim < 2:
            raise ConfigError("scenario.dim must be >= 2")
        for key in ("hamiltonian", "probe", "decoherence"):
            if key not in node:
                raise ConfigError(f"missing required key {key!r} in scenario")
        try:
            spec = ModelSpec(
                dim=dim,
                hamiltonian=parse_complex_matrix(node["hamiltonian"], dim, "scenario.hamiltonian"),
                probe=parse_complex_matrix(node["probe"], dim, "scenario.probe"),
                decoherence=parse_complex_matrix(node["decoherence"], dim, "scenario.decoherence"),
                control=_parse_control(node.get("control"), "scenario.control"),
            )
        except ValidationError as err:
            raise ConfigError(str(err)) from None
        return spec, None
    raise ConfigError(f"scenario.kind must be 'qubit' or 'explicit', got {kind!r}")


def _parse_initial_state(node, dim: int) -> np.ndarray:
    node = _require_mapping(node, "initial_state")
    _check_keys(node, {"bloch", "matrix"}, "initial_state")
    if ("bloch" in node) == ("matrix" in node):
        raise ConfigError("initial_state needs exactly one of 'bloch' or 'matrix'")
    try:
        if "bloch" in node:
            vec = node["bloch"]
            if dim != 2:
                raise ConfigError("initial_state.bloch requires a two-level model")
            if not isinstance(vec, list) or len(vec) != 3:
                raise ConfigError("initial_state.bloch must be [x, y, z]")
            return bloch_to_density(vec)
        return validate_density(parse_complex_matrix(node["matrix"], dim, "initial_state.matrix"))
    except ValidationError as err:
        raise ConfigError(str(err)) from None


def _parse_integrator(node) -> IntegratorConfig:
    """``dt`` and ``t_final`` are required; an omitted key takes IntegratorConfig's default."""
    where = "ensemble.integrator"
    node = _require_mapping(node, where)
    _check_keys(node, {"dt", "t_final", "floor", "repair_tolerance", "record_stride"}, where)
    kwargs = {key: float(_number(node, key, where)) for key in ("dt", "t_final")}
    for key in ("floor", "repair_tolerance"):
        if key in node:
            kwargs[key] = float(_number(node, key, where))
    if "record_stride" in node:
        kwargs["record_stride"] = _integer(node, "record_stride", where)
    try:
        return IntegratorConfig(**kwargs)
    except ValidationError as err:
        raise ConfigError(str(err)) from None


def _parse_ensemble(node, default_workers: int) -> EnsembleConfig:
    node = _require_mapping(node, "ensemble")
    _check_keys(
        node, {"n_trajectories", "master_seed", "worker_count", "integrator"}, "ensemble"
    )
    if "integrator" not in node:
        raise ConfigError("missing required key 'integrator' in ensemble")
    kwargs = {"n_trajectories": _integer(node, "n_trajectories", "ensemble")}
    if "master_seed" in node:
        kwargs["master_seed"] = _integer(node, "master_seed", "ensemble")
    try:
        return EnsembleConfig(
            worker_count=_integer(node, "worker_count", "ensemble", default=default_workers),
            integrator=_parse_integrator(node["integrator"]),
            **kwargs,
        )
    except ValidationError as err:
        raise ConfigError(str(err)) from None


def load_config(path: str, default_workers: int = 1) -> RunConfig:
    """Parse and validate a run configuration file.

    ``default_workers`` seeds ensemble.worker_count when the config omits
    it (the CLI wires the ENTROFLUX_WORKERS environment default here).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from None

    raw = _require_mapping(raw, "config")
    _check_keys(
        raw,
        {"scenario", "initial_state", "ensemble", "output_path", "emit", "sweep"},
        "config",
    )
    for key in ("scenario", "initial_state", "ensemble"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r} in config")

    spec, scenario = _parse_scenario(raw["scenario"])
    state = _parse_initial_state(raw["initial_state"], spec.dim)
    ensemble = _parse_ensemble(raw["ensemble"], default_workers)

    output_path = raw.get("output_path", "out")
    if not isinstance(output_path, str):
        raise ConfigError("output_path must be a string")

    emit_node = raw.get("emit", ["ensemble"])
    if not isinstance(emit_node, list) or not emit_node:
        raise ConfigError("emit must be a non-empty list")
    for kind in emit_node:
        if kind not in EMIT_KINDS:
            raise ConfigError(f"emit entries must be among {EMIT_KINDS}, got {kind!r}")

    alphas = None
    if "sweep" in raw:
        sweep = _require_mapping(raw["sweep"], "sweep")
        _check_keys(sweep, {"alphas"}, "sweep")
        vals = sweep.get("alphas")
        if not isinstance(vals, list) or not vals:
            raise ConfigError("sweep.alphas must be a non-empty list of numbers")
        for a in vals:
            if isinstance(a, bool) or not isinstance(a, (int, float)) or not 0 <= a < math.inf:
                raise ConfigError(f"sweep.alphas entries must be nonnegative numbers, got {a!r}")
        alphas = tuple(float(a) for a in vals)

    return RunConfig(
        model=spec,
        initial_state=state,
        ensemble=ensemble,
        output_path=output_path,
        emit=tuple(emit_node),
        scenario=scenario,
        alphas=alphas,
    )
