"""Run configuration: the JSON schema, its parsing and overrides, and sweep points.

A RunConfig puts together the sections the other modules declare:
FederationConfig (objectives), HyperConfig (core) and AlgoConfig (here).
Each section checks its own fields; RunConfig checks what spans sections.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, is_dataclass, replace
from pathlib import Path
from typing import get_args

from .core import ALGORITHMS, CLUSTERFEDVARP, MIFA, ConfigError, HyperConfig, check_fields, config_value, field_table
from .objectives import FederationConfig

MIFA_MODES = ("cold_start", "full_first_round")
# Sweep axis -> the config section it edits and the field it sets.
# sigma_g_scale sets no field: it scales both spreads by a float.
SWEEP_AXES = {
    "sigma_g_scale": ("federation", None),
    "M": ("hyper", "M"),
    "eta_c": ("hyper", "eta_c"),
    "eta_s": ("hyper", "eta_s"),
    "tau": ("hyper", "tau"),
    "K": ("algo", "K"),
    "algo": ("algo", "name"),
}


@dataclass(frozen=True)
class AlgoConfig:
    """Aggregator choice plus its parameters; the name is matched case-insensitively.

    mifa runs default to mifa_mode cold_start.
    """

    name: str
    K: int | None = None
    mifa_mode: str | None = None

    def __post_init__(self):
        check_fields(self, "algo")
        object.__setattr__(self, "name", self.name.lower())
        if self.name not in ALGORITHMS:
            raise ConfigError(f"algo.name must be one of {ALGORITHMS}, got {self.name!r}")
        if self.name == MIFA and self.mifa_mode is None:
            object.__setattr__(self, "mifa_mode", "cold_start")
        if self.mifa_mode is not None and self.mifa_mode not in MIFA_MODES:
            raise ConfigError(f"algo.mifa_mode must be one of {MIFA_MODES}, got {self.mifa_mode!r}")


@dataclass(frozen=True)
class RunConfig:
    """A whole run configuration: the JSON schema, one field per key.

    Checks that span sections are made here, so a config edited with
    dataclasses.replace is checked again.
    """

    federation: FederationConfig
    hyper: HyperConfig
    algo: AlgoConfig
    log_every: int
    output_dir: str
    seed: int

    def __post_init__(self):
        check_fields(self)
        N, M, K = self.federation.N, self.hyper.M, self.algo.K
        if M > N:
            raise ConfigError(f"M must satisfy 1 <= M <= N, got M={M} N={N}")
        if self.algo.name == CLUSTERFEDVARP and (K is None or not 1 <= K <= N):
            raise ConfigError(f"clusterfedvarp needs 1 <= K <= N, got K={K}")
        if self.log_every < 1:
            raise ConfigError(f"log_every must be >= 1, got {self.log_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.output_dir:  # Path("") is the working directory
            raise ConfigError("output_dir must be non-empty")

    def round_size(self, t: int) -> int:
        """How many clients round t samples: N in round 0 of mifa's full_first_round, else M."""
        # Any algo may carry a mifa_mode, so the name is checked as well.
        if t == 0 and self.algo.name == MIFA and self.algo.mifa_mode == "full_first_round":
            return self.federation.N
        return self.hyper.M


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config dict: each RunConfig field is a key, required unless it has a default."""
    return _parse_section(raw, RunConfig, None)


def _parse_section(raw, cls, section: str | None):
    """raw as a cls whose fields are its keys; a dataclass field is a nested section, a defaulted one optional."""
    if not isinstance(raw, dict):
        where = "config root" if section is None else f"config section {section!r}"
        raise ConfigError(f"{where} must be a JSON object")
    keys = "config keys" if section is None else f"keys in {section!r}"
    table = field_table(cls)
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"unknown {keys}: {sorted(unknown)}")
    missing = {key for key, (_, required) in table.items() if required} - set(raw)
    if missing:
        raise ConfigError(f"missing {keys}: {sorted(missing)}")
    values = dict(raw)
    for key, value in raw.items():
        if is_dataclass(table[key][0]):
            values[key] = _parse_section(value, table[key][0], key)
    return cls(**values)


def load_config(path: str | Path, overrides: tuple[str, ...] | list[str] = ()) -> RunConfig:
    """Read a JSON config file, apply dotted-path overrides, and validate."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(apply_overrides(raw, overrides))


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply dotted-path key=value overrides onto a raw config dict; a path names RunConfig fields, set or not."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        dotted, text = item.split("=", 1)
        *path, leaf = dotted.split(".")
        cls, node = RunConfig, raw
        for k in path:
            cls = field_table(cls).get(k, (None,))[0] if is_dataclass(cls) else None
        if not is_dataclass(cls) or leaf not in field_table(cls):
            raise ConfigError(f"override references unknown key {dotted!r}")
        for k in path:
            node = node.get(k) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError(f"override {dotted!r} runs through a config part that is missing or not a JSON object")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text  # bare strings (algo names, paths) come through unquoted
        node[leaf] = value
    return raw


# ---------------------------------------------------------------------------
# Sweep points


def derive_sweep_seed(base_seed: int, axis: str, value) -> int:
    """Stable child seed for one sweep point, reproducible in isolation."""
    digest = hashlib.sha256(f"{base_seed}|{axis}|{value!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def sweep_axis_type(axis: str) -> type:
    """The type of an axis value: that of the field the axis sets, float for sigma_g_scale."""
    section, field = SWEEP_AXES[axis]
    if field is None:
        return float
    typ = field_table(field_table(RunConfig)[section][0])[field][0]
    return (get_args(typ) or (typ,))[0]  # K: int | None takes ints


def sweep_point(base: RunConfig, axis: str, value, index: int) -> tuple[RunConfig, object]:
    """The config of one sweep point, axis applied, with child seed and own subdir, and its value as held.

    The edited section checks the value as it checks any field (ints
    for counts, finite floats for rates); the held value is the one the
    point's config holds (an int rate widened to a float, a name
    lower-cased by AlgoConfig). The child seed is derived from the held
    value, so 1, 1.0 and np.float64(1.0) give one seed, and so do
    "FedAvg" and "fedavg". A sigma_g_scale value sets no field: it is
    checked as a finite float, and the point's seed comes from that.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    section, field = SWEEP_AXES[axis]
    part = getattr(base, section)
    if field is None:
        held = config_value(f"sweep {axis} value", value, float)
        spreads = ("cluster_center_spread", "within_cluster_spread")
        point = replace(part, **{key: getattr(part, key) * held for key in spreads})
    else:
        point = replace(part, **{field: value})
        held = getattr(point, field)
    cfg = replace(
        base,
        **{section: point},
        seed=derive_sweep_seed(base.seed, axis, held),
        output_dir=str(Path(base.output_dir) / f"point{index:02d}_{axis}"),
    )
    return cfg, held
