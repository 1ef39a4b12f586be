"""Flat key=value run configuration with strict keys and a stable hash.

Precedence when resolving: built-in defaults, then the config file, then
command-line flag overrides. Unknown keys anywhere are an error; value
types are coerced to the type of each key's default."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import ConfigError
from .textdata import read_lines

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_config_file(path) -> dict[str, str]:
    """Read `key = value` lines; blank lines and `#`-prefixed lines are
    skipped. Values stay strings until resolve_config types them."""
    out: dict[str, str] = {}
    for ln, raw in read_lines(path, ConfigError):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', "
                              f"got {raw.rstrip()!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{ln}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        out[key] = val.strip()
    return out


def _coerce(key: str, value, default):
    try:
        if isinstance(default, float):
            # a float key takes only finite values: NaN passes every range
            # check, and inf no step can use
            number = float(str(value))
            if not math.isfinite(number):
                raise ValueError(f"not a finite number: {value!r}")
            return number
        if isinstance(value, type(default)) and not isinstance(value, str):
            return value
        text = str(value)
        if isinstance(default, bool):
            low = text.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if isinstance(default, int):
            return int(text)
        return text
    except ValueError as err:
        raise ConfigError(f"config key {key!r}: {err}") from err


def resolve_config(defaults: dict, file_values: dict | None = None,
                   flag_values: dict | None = None, path=None) -> dict:
    """Merge defaults < config file < flags; reject unknown keys (a None
    value means unset); coerce every value to the type of its default.
    An error in a file value names `path`, the file, when it is given."""
    resolved = dict(defaults)
    in_file = f"{path}: " if path else ""
    for source, values, where in (("config file", file_values, in_file),
                                  ("flag", flag_values, "")):
        if not values:
            continue
        for key, value in values.items():
            if value is None:
                continue
            if key not in defaults:
                raise ConfigError(f"{where}unknown {source} key {key!r}")
            try:
                resolved[key] = _coerce(key, value, defaults[key])
            except ConfigError as err:
                raise ConfigError(f"{where}{err}") from err
    return resolved


def config_hash(resolved: dict) -> str:
    """Stable short digest of a resolved config, embedded in artifacts."""
    payload = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def derive_init_seeds(master_seed: int, n: int) -> list[int]:
    """n independent seeds derived from one master seed."""
    return [int(ss.generate_state(1)[0])
            for ss in np.random.SeedSequence(master_seed).spawn(n)]
