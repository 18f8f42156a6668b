"""Run configuration: a documented JSON schema mapped onto law objects.

A run config has four sections::

    {
      "seed": 12345,
      "model": {
        "environment": {"builder": "binomial_split",
                        "z": {"kind": "finite", "values": [2], "probs": [1.0]},
                        "p_values": [[0.5, 1.0]]},
        "immigration": {"mode": "standard",
                        "y0": {"kind": "finite", "values": [0, 1], "probs": [0.5, 0.5]},
                        "y1": {"kind": "finite", "values": [0], "probs": [1.0]}},
        "k0": 0
      },
      "experiment": {"kind": "lineage", ...},
      "output": {"dir": "out"}
    }

Environment builders: ``binomial_split`` and ``cluster_split`` take a count
law ``z`` and ``p_values`` (either a list of [p, weight] pairs or
``{"uniform_grid": n}``); ``explicit_bivariate`` takes ``components``, each
``{"support": [[j, k, prob], ...], "weight": w}``.  Count laws are either
``{"kind": "finite", "values": [...], "probs": [...]}`` or
``{"kind": "heavy_tail"}``.  Immigration modes: ``standard`` (admissibility
enforced), ``zero`` (no contamination), ``state_independent`` (y0 reused for
every state, admissibility not enforced).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ._sampling import BATCH_STATE_CAP
from .laws import (
    BivariateOffspringLaw,
    EnvironmentLaw,
    FiniteLaw,
    HeavyTailLaw,
    ImmigrationPair,
    build_binomial_split,
    build_cluster_split,
    uniform_grid_p,
)


class ConfigError(ValueError):
    """The run configuration does not match the documented schema."""


@dataclass(frozen=True)
class RunConfig:
    seed: int
    env: EnvironmentLaw
    imm: ImmigrationPair
    k0: int
    experiment: dict[str, Any]
    output_dir: str
    raw: dict[str, Any]


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in _object(mapping, where):
        raise ConfigError(f"missing '{key}' in {where}")
    return mapping[key]


def _integer(value: Any, what: str) -> int:
    """``value`` as an int; anything but an integral JSON number is a ``ConfigError``."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _real(value: Any, what: str) -> float:
    """``value`` as a float; anything but a JSON number (a bool is not one) is a ``ConfigError``."""
    if type(value) not in (int, float):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _entry(value: Any, size: int, what: str, shape: str) -> list:
    """``value`` if it is a JSON list of ``size`` items; anything else is a ``ConfigError``."""
    if type(value) is not list or len(value) != size:
        raise ConfigError(f"{what} must be a {shape} list, got {value!r}")
    return value


def parse_count_law(payload: dict[str, Any], where: str):
    kind = _require(payload, "kind", where)
    if kind == "finite":
        values = _require(payload, "values", where)
        probs = _require(payload, "probs", where)
        atoms = tuple(_integer(v, f"{where}.values") for v in values)
        weights = tuple(_real(p, f"{where}.probs") for p in probs)
        try:
            return FiniteLaw(atoms, weights)
        except ValueError as exc:
            raise ConfigError(f"bad finite law in {where}: {exc}") from exc
    if kind == "heavy_tail":
        return HeavyTailLaw()
    raise ConfigError(f"unknown law kind {kind!r} in {where} (finite | heavy_tail)")


def _parse_p_values(payload: Any, where: str) -> list[tuple[float, float]]:
    if isinstance(payload, dict) and "uniform_grid" in payload:
        return uniform_grid_p(_integer(payload["uniform_grid"], f"{where}.p_values.uniform_grid"))
    if isinstance(payload, list):
        return [tuple(_real(x, f"{where}.p_values")
                      for x in _entry(entry, 2, f"{where}.p_values[{i}]", "[p, weight]"))
                for i, entry in enumerate(payload)]
    raise ConfigError(f"p_values in {where} must be a list or {{'uniform_grid': n}}")


def parse_environment(payload: dict[str, Any]) -> EnvironmentLaw:
    where = "model.environment"
    builder = _require(payload, "builder", where)
    try:
        if builder in ("binomial_split", "cluster_split"):
            z = parse_count_law(_require(payload, "z", where), f"{where}.z")
            if isinstance(z, HeavyTailLaw):
                raise ConfigError("reproduction law must be finite")
            p_values = _parse_p_values(_require(payload, "p_values", where), where)
            build = build_binomial_split if builder == "binomial_split" else build_cluster_split
            return build(z, p_values)
        if builder == "explicit_bivariate":
            comps = []
            for i, comp in enumerate(_require(payload, "components", where)):
                at = f"{where}.components[{i}]"
                triples = [_entry(t, 3, f"{at}.support[{n}]", "[j, k, prob]")
                           for n, t in enumerate(_require(comp, "support", at))]
                support = tuple(((_integer(j, f"{at}.support"), _integer(k, f"{at}.support")),
                                 _real(p, f"{at}.support")) for j, k, p in triples)
                weight = _real(comp.get("weight", 1.0), f"{at}.weight")
                comps.append((BivariateOffspringLaw(support), weight))
            return EnvironmentLaw(tuple(comps))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad environment: {exc}") from exc
    raise ConfigError(
        f"unknown builder {builder!r} (binomial_split | cluster_split | explicit_bivariate)"
    )


def parse_immigration(payload: dict[str, Any]) -> ImmigrationPair:
    where = "model.immigration"
    mode = _object(payload, where).get("mode", "standard")
    try:
        if mode == "zero":
            return ImmigrationPair.zero()
        if mode == "state_independent":
            return ImmigrationPair.state_independent(
                parse_count_law(_require(payload, "y0", where), f"{where}.y0")
            )
        if mode == "standard":
            return ImmigrationPair(
                parse_count_law(_require(payload, "y0", where), f"{where}.y0"),
                parse_count_law(_require(payload, "y1", where), f"{where}.y1"),
            )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        # includes inadmissible contamination pairs
        raise ConfigError(f"bad immigration: {exc}") from exc
    raise ConfigError(f"unknown immigration mode {mode!r} (standard | zero | state_independent)")


def load_config(source: str | Path | dict[str, Any]) -> RunConfig:
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        raw = source
    model = _require(raw, "model", "config")
    env = parse_environment(_require(model, "environment", "model"))
    imm = parse_immigration(_require(model, "immigration", "model"))
    k0 = _integer(model.get("k0", 0), "model.k0")
    if not 0 <= k0 <= BATCH_STATE_CAP:
        raise ConfigError(f"k0 must be nonnegative and at most {BATCH_STATE_CAP}, got {k0}")
    seed = _integer(raw.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    experiment = _object(raw.get("experiment", {}), "experiment")
    output = _object(raw.get("output", {}), "output")
    return RunConfig(
        seed=seed,
        env=env,
        imm=imm,
        k0=k0,
        experiment=dict(experiment),
        output_dir=str(output.get("dir", ".")),
        raw=raw,
    )
