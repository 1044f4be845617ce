"""Strict JSON run configuration.

The config is a nested key-value document; unknown keys are rejected at
every level so physics misconfiguration fails loudly before any
computation starts.  Complex matrix entries are given as [re, im] pairs
in row-major order.  Each section is read by ``_fields`` and every
number by ``_number``.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleConfig
from .integrate import IntegratorConfig
from .linalg import ValidationError, validate_density
from .model import ControlLaw, ModelSpec
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


def _mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _fields(node, where: str, readers: dict, required=()) -> dict:
    """Section ``node``'s keys, each read as ``readers[key](value, path)`` in table order.

    A key with no reader is unknown; each key in ``required`` must be present.
    """
    unknown = set(_mapping(node, where)) - set(readers)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    for key in required:
        if key not in node:
            raise ConfigError(f"missing required key {key!r} in {where}")
    prefix = "" if where == "config" else f"{where}."  # top-level keys go by their bare names
    return {key: read(node[key], prefix + key) for key, read in readers.items() if key in node}


def _kinded(node, where: str, tables: dict) -> dict:
    """``_fields`` of a section whose ``kind`` picks its (readers, required) from ``tables``."""
    kind = _mapping(node, where).get("kind")
    if kind not in tables:
        raise ConfigError(f"{where}.kind must be one of {tuple(tables)}, got {kind!r}")
    readers, required = tables[kind]
    return _fields(node, where, {"kind": _string, **readers}, required)


def _number(value, where: str):
    """``value``, an int or float but not a bool, and finite (within float range)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return value


def _real(value, where: str) -> float:
    return float(_number(value, where))


def _integer(value, where: str) -> int:
    value = _number(value, where)
    if int(value) != value:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _list(value, where: str, read, length=None) -> list:
    """A non-empty list (of ``length`` entries, if given), entry i read at ``where[i]``."""
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        raise ConfigError(f"{where} must be a list of {length} entries" if length
                          else f"{where} must be a non-empty list")
    return [read(entry, f"{where}[{i}]") for i, entry in enumerate(value)]


def parse_complex_matrix(node, where: str) -> np.ndarray:
    """Decode a square matrix of row-major [re, im] pairs."""
    def pair(value, at: str) -> complex:
        return complex(*_list(value, at, _real, 2))

    rows = _list(node, where, lambda row, at: _list(row, at, pair, len(node)))
    return np.array(rows, dtype=np.complex128)


def _dim(value, where: str) -> int:
    dim = _integer(value, where)
    if dim < 2:
        raise ConfigError(f"{where} must be >= 2")
    return dim


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    return value


def _emit_kind(value, where: str) -> str:
    if value not in EMIT_KINDS:
        raise ConfigError(f"emit entries must be among {EMIT_KINDS}, got {value!r}")
    return value


def _alpha(value, where: str) -> float:
    alpha = _real(value, where)
    if alpha < 0:
        raise ConfigError(f"{where} must be nonnegative, got {value!r}")
    return alpha


_CONTROLS = {
    "zero": ({}, ()),
    "constant": ({"value": _real}, ("value",)),
    "bloch_x_proportional": ({"gain": _real}, ("gain",)),
}


def _control(node, where: str) -> ControlLaw:
    return ControlLaw(**_kinded(node, where, _CONTROLS))


_SCENARIOS = {
    "qubit": ({"kappa": _real, "alpha": _real, "control": _control}, ("kappa", "alpha")),
    "explicit": (
        {"dim": _dim, "hamiltonian": parse_complex_matrix, "probe": parse_complex_matrix,
         "decoherence": parse_complex_matrix, "control": _control},
        ("dim", "hamiltonian", "probe", "decoherence"),
    ),
}


def _scenario(node, where: str) -> tuple[ModelSpec, QubitScenario | None]:
    fields = _kinded(node, where, _SCENARIOS)
    if fields.pop("kind") == "explicit":
        return ModelSpec(**fields), None
    scenario = QubitScenario(**fields)
    return qubit_model(scenario), scenario


def _sweep(node, where: str) -> tuple[float, ...]:
    alphas = {"alphas": lambda value, at: tuple(_list(value, at, _alpha))}
    return _fields(node, where, alphas, ("alphas",))["alphas"]


def _initial_state(node, where: str) -> np.ndarray:
    states = _fields(node, where, {
        "bloch": lambda value, at: bloch_to_density(_list(value, at, _real, 3)),
        "matrix": lambda value, at: validate_density(parse_complex_matrix(value, at)),
    })
    if len(states) != 1:
        raise ConfigError("initial_state needs exactly one of 'bloch' or 'matrix'")
    return next(iter(states.values()))


def _integrator(node, where: str) -> IntegratorConfig:
    """``dt`` and ``t_final`` are required; an omitted key takes IntegratorConfig's default."""
    return IntegratorConfig(**_fields(node, where, {
        "dt": _real, "t_final": _real, "floor": _real, "repair_tolerance": _real,
        "record_stride": _integer,
    }, ("dt", "t_final")))


def load_config(path: str, default_workers: int | Callable[[], int] = 1) -> RunConfig:
    """Parse and validate a run configuration file.

    ``default_workers`` seeds ensemble.worker_count when the config omits
    it; a callable is called only then (the CLI wires the
    ENTROFLUX_WORKERS environment default here).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except ValueError as err:  # bad JSON, bad UTF-8 or an int past str-conversion limits
        raise ConfigError(f"config {path} is not valid JSON: {err}") from None

    def ensemble(node, where: str) -> EnsembleConfig:
        fields = _fields(node, where, {
            "n_trajectories": _integer, "master_seed": _integer, "worker_count": _integer,
            "integrator": _integrator,
        }, ("n_trajectories", "integrator"))
        if "worker_count" not in fields:
            default = default_workers() if callable(default_workers) else default_workers
            fields["worker_count"] = default
        return EnsembleConfig(**fields)

    try:
        cfg = _fields(raw, "config", {
            "scenario": _scenario,
            "initial_state": _initial_state,
            "ensemble": ensemble,
            "output_path": _string,
            "emit": lambda value, at: tuple(_list(value, at, _emit_kind)),
            "sweep": _sweep,
        }, ("scenario", "initial_state", "ensemble"))
    except ValidationError as err:
        raise ConfigError(str(err)) from None
    (spec, scenario), state = cfg["scenario"], cfg["initial_state"]
    if len(state) != spec.dim:
        raise ConfigError(f"initial_state has dimension {len(state)}; the model has {spec.dim}")
    return RunConfig(model=spec, initial_state=state, ensemble=cfg["ensemble"],
                     output_path=cfg.get("output_path", "out"),
                     emit=cfg.get("emit", ("ensemble",)), scenario=scenario,
                     alphas=cfg.get("sweep"))
