"""Config file parsing, layered resolution, and the stable run digest."""

import pytest

from nutsearch.config import (config_hash, parse_config_file, resolve_config)
from nutsearch.errors import ConfigError

DEFAULTS = dict(epochs=10, lr=0.5, name="base", verbose=False)


# ---------------------------------------------------------------------------
# parse_config_file


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_parse_basic_file(tmp_path):
    path = _write(tmp_path, "epochs = 3\nlr=0.25\nname =  deep  \n")
    assert parse_config_file(path) == {"epochs": "3", "lr": "0.25",
                                       "name": "deep"}


def test_parse_skips_blank_and_comment_lines(tmp_path):
    path = _write(tmp_path, "\n# a comment\n  \nepochs = 3\n#lr = 9\n")
    assert parse_config_file(path) == {"epochs": "3"}


def test_parse_value_may_contain_equals(tmp_path):
    path = _write(tmp_path, "name = a=b\n")
    assert parse_config_file(path) == {"name": "a=b"}


def test_parse_bad_line_reports_line_number(tmp_path):
    path = _write(tmp_path, "epochs = 3\njust some words\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: expected"):
        parse_config_file(path)


def test_parse_empty_key_rejected(tmp_path):
    path = _write(tmp_path, " = 5\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_file(path)


def test_parse_duplicate_key_rejected(tmp_path):
    path = _write(tmp_path, "lr = 1\nlr = 2\n")
    with pytest.raises(ConfigError, match=r":2: duplicate key 'lr'"):
        parse_config_file(path)


# ---------------------------------------------------------------------------
# resolve_config precedence, tested one layer pair at a time


def test_defaults_pass_through_untouched():
    assert resolve_config(DEFAULTS) == DEFAULTS


def test_file_overrides_defaults():
    out = resolve_config(DEFAULTS, file_values={"epochs": "7"})
    assert out["epochs"] == 7
    assert out["lr"] == DEFAULTS["lr"]


def test_flags_override_defaults():
    out = resolve_config(DEFAULTS, flag_values={"lr": 0.125})
    assert out["lr"] == 0.125
    assert out["epochs"] == DEFAULTS["epochs"]


def test_flags_override_file():
    out = resolve_config(DEFAULTS, file_values={"epochs": "7"},
                         flag_values={"epochs": 9})
    assert out["epochs"] == 9


def test_file_value_survives_when_flag_unset():
    out = resolve_config(DEFAULTS, file_values={"epochs": "7"},
                         flag_values={"epochs": None, "lr": None})
    assert out["epochs"] == 7


def test_unknown_file_key_rejected():
    with pytest.raises(ConfigError, match="unknown config file key 'typo'"):
        resolve_config(DEFAULTS, file_values={"typo": "1"})


def test_unknown_flag_key_rejected():
    with pytest.raises(ConfigError, match="unknown flag key 'typo'"):
        resolve_config(DEFAULTS, flag_values={"typo": 1})


def test_inputs_not_mutated():
    file_values = {"epochs": "7"}
    resolve_config(DEFAULTS, file_values=file_values)
    assert DEFAULTS["epochs"] == 10
    assert file_values == {"epochs": "7"}


# ---------------------------------------------------------------------------
# type coercion


@pytest.mark.parametrize("text,expected", [
    ("true", True), ("True", True), ("1", True), ("yes", True), ("on", True),
    ("false", False), ("0", False), ("no", False), ("off", False),
])
def test_bool_coercion_forms(text, expected):
    out = resolve_config(DEFAULTS, file_values={"verbose": text})
    assert out["verbose"] is expected


def test_bool_gibberish_rejected():
    with pytest.raises(ConfigError, match="'verbose'"):
        resolve_config(DEFAULTS, file_values={"verbose": "maybe"})


def test_int_coercion_and_rejection():
    assert resolve_config(DEFAULTS, file_values={"epochs": "42"})[
        "epochs"] == 42
    with pytest.raises(ConfigError, match="'epochs'"):
        resolve_config(DEFAULTS, file_values={"epochs": "4.5"})


def test_float_coercion():
    out = resolve_config(DEFAULTS, file_values={"lr": "2.5"})
    assert out["lr"] == 2.5
    out = resolve_config(DEFAULTS, file_values={"lr": "3"})
    assert out["lr"] == 3.0 and isinstance(out["lr"], float)


def test_float_gibberish_rejected():
    with pytest.raises(ConfigError, match="'lr'"):
        resolve_config(DEFAULTS, file_values={"lr": "fast"})


@pytest.mark.parametrize("source", ["file_values", "flag_values"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", float("nan"),
                                   float("inf")])
def test_non_finite_float_rejected(source, value):
    with pytest.raises(ConfigError, match="'lr': not a finite number"):
        resolve_config(DEFAULTS, **{source: {"lr": value}})


def test_string_values_stay_strings():
    out = resolve_config(DEFAULTS, file_values={"name": "123"})
    assert out["name"] == "123"


# ---------------------------------------------------------------------------
# config_hash


def test_hash_is_stable_and_short():
    a = config_hash({"x": 1, "y": 2.0})
    b = config_hash({"y": 2.0, "x": 1})
    assert a == b
    assert len(a) == 16
    assert all(c in "0123456789abcdef" for c in a)


def test_hash_changes_with_any_value():
    base = config_hash({"x": 1, "y": 2.0})
    assert config_hash({"x": 2, "y": 2.0}) != base
    assert config_hash({"x": 1, "y": 2.5}) != base
