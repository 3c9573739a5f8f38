"""Run configuration: one JSON document wiring paths, universe rules,
window lengths, estimation settings, and the model spec list.

SECTIONS, with the SPEC and BETA objects it holds, states every accepted
key once, with its type and the RunConfig attribute it fills. load_config walks it to check a document strictly (an
object holds only its own keys, a value has its key's type, an input path
exists, and null means unset), and resolved_dict walks it to write the fully
defaulted configuration into run manifests. The defaults and range checks
live on the classes the sections fill.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .condbeta import BetaSpec
from .errors import InvalidConfig
from .factors import FactorOptions
from .ingest import UniverseConfig, parse_iso_date
from .panel import CharacteristicWindows, PanelOptions
from .pipeline import ModelSpec, PipelineOptions
from .synth import SynthRun


@dataclass(frozen=True)
class DataPaths:
    market_dir: str
    epu_file: str
    riskfree_file: str


@dataclass(frozen=True)
class RunConfig:
    data: DataPaths | None
    panel_file: str | None
    universe: UniverseConfig
    panel: PanelOptions
    pipeline: PipelineOptions
    specs: tuple[ModelSpec, ...]
    synth: SynthRun | None
    seed: int | None
    output_dir: str | None

    def __post_init__(self):
        if self.seed is not None and self.seed < 0:
            raise InvalidConfig(f"seed {self.seed} must be non-negative")
        labels = [s.label for s in self.specs]
        if len(set(labels)) != len(labels):
            raise InvalidConfig(f"duplicate spec labels: {labels}")


# Value kinds beyond the JSON scalars str, int, float (an int is accepted),
# bool and a YYYY-MM-DD date string. An object is (class, {key: kind});
# [kind] is a list of objects, held as a tuple.
FILE = "file"  # a string naming a file that exists
DIRECTORY = "directory"  # a string naming a directory that exists
STRINGS = "strings"  # a list of strings, held as a tuple
PAIR = "pair"  # a list of two numbers, held as a tuple of floats

BETA = (BetaSpec, {"mode": str, "characteristics": STRINGS, "lagged_return": str})
SPEC = (
    ModelSpec,
    {"label": str, "factors": str, "beta": BETA, "anomalies": STRINGS,
     "riskfree_mode": str},
)

# Top-level key -> (RunConfig attribute it fills, dotted when nested; kind).
# Sections naming one attribute fill one object together. The order is the
# manifest's and also the build order: a nested object comes before its
# holder, and the panel before the factor options that inherit its btc_id.
SECTIONS = {
    "data": ("data", (DataPaths, {
        "market_dir": DIRECTORY, "epu_file": FILE, "riskfree_file": FILE})),
    "panel_file": ("panel_file", FILE),
    "universe": ("universe", (UniverseConfig, {
        "top_n": int, "min_history_days": int, "rank_date": dt.date})),
    "windows": ("panel.windows", (CharacteristicWindows, {
        "momentum_days": int, "liquidity_days": int, "value_near_days": int,
        "value_far_days": int, "min_valid_share": float})),
    "panel": ("panel", (PanelOptions, {
        "riskfree_mode": str, "btc_id": str, "ffill_limit_days": int,
        "winsor": PAIR})),
    "factors": ("pipeline.factor_options", (FactorOptions, {
        "min_sort_coins": int, "exclude_btc_from_market": bool, "btc_id": str})),
    "econometrics": ("pipeline", (PipelineOptions, {
        "nw_lags": int, "significance_z": float, "rank_tolerance": float})),
    "pipeline": ("pipeline", (PipelineOptions, {
        "min_obs_margin": int, "floor_base": int})),
    "specs": ("specs", [SPEC]),
    "synth": ("synth", (SynthRun, {
        "scenario": str, "n_coins": int, "n_days": int, "emit_raw": bool})),
    "seed": ("seed", int),
    "output_dir": ("output_dir", str),
}


def _required(cls) -> list[str]:
    none = dataclasses.MISSING
    return [f.name for f in dataclasses.fields(cls)
            if f.default is none and f.default_factory is none]


def _exists(path: str) -> bool:
    try:
        return Path(path).exists()
    except (OSError, ValueError):  # a name too long, an embedded NUL
        return False


def _number(value, where: str) -> float:
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise InvalidConfig(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _known(value: dict, keys: dict, where: str) -> None:
    for key in value:
        if key not in keys:
            raise InvalidConfig(
                f"unknown key {key!r} in {where}, allowed: {sorted(keys)}"
            )


def _fields(value, keys: dict, where: str) -> dict:
    """The keyword arguments a JSON object gives; nulls are left out."""
    if not isinstance(value, dict):
        raise InvalidConfig(f"{where}: expected an object, got {type(value).__name__}")
    _known(value, keys, where)
    args = {key: _value(v, keys[key], f"{where}.{key}") for key, v in value.items()}
    return {key: v for key, v in args.items() if v is not None}


def _build(cls, args: dict, where: str):
    """An instance of cls, a required key missing or the class's own
    check failing an InvalidConfig that names where."""
    missing = [name for name in _required(cls) if name not in args]
    if missing:
        raise InvalidConfig(f"{where}: {', '.join(missing)} required")
    try:
        return cls(**args)
    except InvalidConfig as exc:
        raise InvalidConfig(f"{where}: {exc}") from None


def _object(value, kind: tuple, where: str):
    cls, keys = kind
    return _build(cls, _fields(value, keys, where), where)


def _value(value, kind, where: str):
    """One JSON value checked against its kind; null stays None, except
    that a list of objects is then empty."""
    if isinstance(kind, list):
        if value is None:
            return ()
        if not isinstance(value, list):
            raise InvalidConfig(f"{where}: expected a list")
        return tuple(_object(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value))
    if value is None:
        return None
    if isinstance(kind, tuple):
        return _object(value, kind, where)
    if kind is float:
        return _number(value, where)
    if kind is PAIR:
        if not isinstance(value, list) or len(value) != 2:
            raise InvalidConfig(f"{where}: expected a list of two numbers")
        return tuple(_number(v, where) for v in value)
    if kind is STRINGS:
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise InvalidConfig(f"{where}: expected a string list")
        return tuple(value)
    if kind is dt.date:
        try:
            return parse_iso_date(value)
        except (TypeError, ValueError):
            raise InvalidConfig(f"{where}: bad date {value!r}") from None
    is_path = kind in (FILE, DIRECTORY)
    expected = str if is_path else kind
    if type(value) is not expected:
        raise InvalidConfig(
            f"{where}: expected {expected.__name__}, got {type(value).__name__}"
        )
    if is_path and not _exists(value):
        raise InvalidConfig(f"{where}: path {value!r} does not exist")
    if is_path and not (Path(value).is_file() if kind is FILE else Path(value).is_dir()):
        raise InvalidConfig(f"{where}: path {value!r} is not a {kind}")
    return value


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file into a fully defaulted RunConfig."""
    path = Path(path)
    if not path.exists():
        raise InvalidConfig(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise InvalidConfig(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{path}: top level must be an object")
    _known(raw, SECTIONS, "config")

    values = {}  # RunConfig attribute -> its value
    pending = {}  # attribute, dotted when nested -> (class, arguments, where)
    for key, (attr, kind) in SECTIONS.items():
        value = raw.get(key)
        if not isinstance(kind, tuple):
            values[attr] = _value(value, kind, key)
        elif value is None and _required(kind[0]):
            values[attr] = None  # an absent section with required keys
        else:
            cls, args, where = pending.get(attr, (kind[0], {}, []))
            args.update(_fields({} if value is None else value, kind[1], key))
            pending[attr] = (cls, args, where + [key])
    for attr, (cls, args, where) in pending.items():
        if attr == "pipeline.factor_options":
            # the factor builder's Bitcoin id follows the panel's unless set
            args.setdefault("btc_id", values["panel"].btc_id)
        obj = _build(cls, args, "/".join(where))
        holder, _, name = attr.rpartition(".")
        if holder:
            pending[holder][1][name] = obj
        else:
            values[attr] = obj
    return RunConfig(**values)


def _dump(value, kind):
    if value is None:
        return None
    if isinstance(kind, list):
        return [_dump(v, kind[0]) for v in value]
    if isinstance(kind, tuple):
        return {key: _dump(getattr(value, key), sub) for key, sub in kind[1].items()}
    if kind is dt.date:
        return value.isoformat()
    if kind in (STRINGS, PAIR):
        return list(value)
    return value


def resolved_dict(cfg: RunConfig) -> dict:
    """Every setting, defaults included, as a JSON-shaped document."""
    return {
        key: _dump(attrgetter(attr)(cfg), kind)
        for key, (attr, kind) in SECTIONS.items()
    }
