"""Line-oriented `key = value` configuration files with one section per
module, chosen for diff-friendly experiment tracking.

Example:

    [geometry]
    ranks = 1
    rows_per_bank = 64

    [run]
    strategy = imdb
    seed = 7

A key is a field of `SimConfig`, `Geometry` or `EnergyParams` in core.py,
whose annotation picks the value parser: `[geometry]` and `[energy]` take
every field of their dataclass, `_SECTIONS` groups the other fields into
sections, and a `[siwc]` key drops the `siwc_` prefix.

Unknown sections or keys are rejected, and so is a repeated section or a
repeated key, or a byte that is not UTF-8 outside a comment; each error
names its line. Overrides of the form `section.key=value` apply after the
file is parsed, the last one winning. A value that the dataclasses refuse
is named by its line or override too, when it alone, against the
defaults, is refused with the same message; a refusal that only a
combination of values earns names no position.
"""

from __future__ import annotations

import re
from dataclasses import fields
from fractions import Fraction

from .core import EnergyParams, Geometry, SimConfig


class ConfigError(ValueError):
    pass


def _int(s): return int(s, 0)


def _prob(s) -> Fraction:
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(s)


def _bool(s):
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# field annotation (a string: core.py postpones annotations) -> value parser
_PARSERS = {"int": _int, "int | None": _int, "Fraction": _prob, "bool": _bool,
            "str": str, "float": float}

_NESTED = {"geometry": Geometry, "energy": EnergyParams}

# section -> the SimConfig fields it sets
_SECTIONS = {
    "timing": ("read_ns", "set_ns", "reset_ns", "controller_clock_hz"),
    "media": ("disturb_limit", "initial_fill"),
    "imdb": ("threshold", "insert_prob", "n_mt", "n_b", "n_groups",
             "prior_knowledge", "mt_policy", "hit_cycles"),
    "siwc": ("siwc_entries", "siwc_q_insert", "siwc_q_evict"),
    "run": ("strategy", "seed", "queue_depth", "drain_low_watermark"),
}


def _schema() -> dict[str, dict[str, tuple]]:
    """section -> key -> (field name, parser), built once at import."""
    types = {f.name: f.type
             for cls in (SimConfig, *_NESTED.values()) for f in fields(cls)}
    sections = {sec: [f.name for f in fields(cls)]
                for sec, cls in _NESTED.items()} | _SECTIONS
    return {sec: {name.removeprefix("siwc_"): (name, _PARSERS[types[name]])
                  for name in names}
            for sec, names in sections.items()}


_SCHEMA = _schema()

# `load_config` decodes with `surrogateescape`: a byte that is not UTF-8
# arrives as a lone surrogate, U+DC80-U+DCFF
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def parse_config_text(text: str, overrides: list[str] | None = None) -> SimConfig:
    values: dict[str, dict[str, object]] = {}
    where: dict[tuple[str, str], str] = {}  # (section, field) -> position
    section = None
    seen: dict[str | tuple, int] = {}  # section or (section, key) -> line
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if bad := _NOT_UTF8.search(line):
            raise ConfigError(f"line {line_no}, column {bad.start() + 1}: "
                              f"byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8")
        line = line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            if (first := seen.setdefault(section, line_no)) != line_no:
                raise ConfigError(f"line {line_no}: section [{section}] "
                                  f"repeats line {first}")
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected `key = value`")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if (first := seen.setdefault((section, key), line_no)) != line_no:
            raise ConfigError(f"line {line_no}: key {key!r} in [{section}] "
                              f"repeats line {first}")
        _store(values, where, section, key, value, f"line {line_no}")
    for ov in overrides or []:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r}: expected section.key=value")
        path, value = ov.split("=", 1)
        if "." not in path:
            raise ConfigError(f"override {ov!r}: expected section.key=value")
        sec, key = path.strip().split(".", 1)
        if sec not in _SCHEMA:
            raise ConfigError(f"override {ov!r}: unknown section {sec!r}")
        _store(values, where, sec, key.strip(), value.strip(),
               f"override {ov!r}")
    return _build(values, where)


def _store(values, where, section, key, value, position):
    keys = _SCHEMA[section]
    if key not in keys:
        raise ConfigError(
            f"{position}: unknown key {key!r} in section [{section}]")
    name, parse = keys[key]
    try:
        values.setdefault(section, {})[name] = parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(
            f"{position}: bad value for {section}.{key}: {exc}") from exc
    where.pop((section, name), None)  # an override stores after the file
    where[section, name] = position


def _build(values: dict[str, dict[str, object]],
           where: dict[tuple[str, str], str]) -> SimConfig:
    try:
        return _config(values)
    except ValueError as exc:
        # The first stored value, in file order, that is refused on its
        # own against the defaults, and with this message, is the fault.
        for (section, name), position in where.items():
            try:
                _config({section: {name: values[section][name]}})
            except ValueError as alone:
                if str(alone) == str(exc):
                    raise ConfigError(f"{position}: {exc}") from exc
        raise ConfigError(str(exc)) from exc


def _config(values: dict[str, dict[str, object]]) -> SimConfig:
    kwargs = {}
    for section, section_values in values.items():
        if section in _NESTED:
            kwargs[section] = _NESTED[section](**section_values)
        else:
            kwargs.update(section_values)
    return SimConfig(**kwargs)


def load_config(path: str, overrides: list[str] | None = None) -> SimConfig:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return parse_config_text(fh.read(), overrides)
