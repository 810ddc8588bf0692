"""Flat key-value experiment configs with typed sections.

The on-disk format is INI: a [run] section fixes the experiment kind, seed
and output, and one section per kind carries its parameters.  Everything a
run needs flows from the file (plus CLI overrides); schema errors name the
offending field path.  A numeric value must be ASCII text with no '_' that
Python reads as the getter's type (``numbers.number``): ``ell = ٢`` and
``ell = 1_0`` are refused like ``ell = x``.

A config is read in one of two ways, with the same result.  A file whose
every line is blank, a whole-line ``#`` or ``;`` comment, a ``[name]``
header or a one-line ``key = value`` (or ``key: value``) pair, none of
them indented, is read by ``_simple_sections``, and configparser is never
loaded.  Any other file (continuation lines, indented comments, a
DEFAULT section, a repeated section or key, a key before any header)
goes to configparser, whose errors are the ``(file)`` config errors.
Either way a ``Config`` holds plain dicts: its sections in file order,
each mapping its keys, in file order, to their values.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from .numbers import exact_fraction, number

if TYPE_CHECKING:
    from fractions import Fraction


class ConfigError(ValueError):
    """Invalid configuration; ``field`` is the '[section] key' path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class Config:
    """One parsed config file: its sections in file order, each a dict of
    its keys in file order.  Every ``(section, key)`` that a getter or
    ``has`` consults is recorded, so a run can name the keys it never read;
    ``flat`` (the report's echo of the file) records nothing."""

    def __init__(self, sections: Dict[str, Dict[str, str]],
                 read: Optional[Set[Tuple[str, str]]] = None):
        self._sections = sections
        self._read: Set[Tuple[str, str]] = set() if read is None else read

    @classmethod
    def from_text(cls, text: str) -> "Config":
        sections = _simple_sections(text)
        return cls(_parsed_sections(text) if sections is None else sections)

    @classmethod
    def from_path(cls, path: str) -> "Config":
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError("(file)", f"not UTF-8 text: {exc}") from exc
        return cls.from_text(text)

    def flat(self) -> Dict[str, str]:
        return {f"{section}.{key}": value
                for section, keys in self._sections.items()
                for key, value in keys.items()}

    def scan_point(self, section: str, key: str, value: str) -> "Config":
        """One ``cfl scan`` grid point: a copy of this config with
        ``[section] key`` set to ``value`` and the ``[scan]`` section dropped.
        Keys the point reads count as read in this config too."""
        if section == "scan":
            raise ConfigError("[scan] param", "cannot sweep a [scan] key")
        if (section, key) == ("run", "kind"):
            raise ConfigError("[scan] param", "cannot sweep run.kind: a scan "
                              "runs one kind")
        if section not in self._sections:
            raise ConfigError(f"[{section}]", "swept section missing")
        sections = {sec: dict(keys) for sec, keys in self._sections.items()
                    if sec != "scan"}
        sections[section][key] = value
        return Config(sections, self._read)

    def unread_keys(self) -> List[Tuple[str, str]]:
        """``(section, key)`` pairs of the file that nothing has consulted,
        in file order.  A scan point shares its scan's record."""
        return [(section, key) for section, keys in self._sections.items()
                for key in keys if (section, key) not in self._read]

    def has(self, section: str, key: str) -> bool:
        self._read.add((section, key))
        return key in self._sections.get(section, ())

    def _raw(self, section: str, key: str) -> str:
        self._read.add((section, key))
        keys = self._sections.get(section)
        if keys is None:
            raise ConfigError(f"[{section}]", "missing section")
        if key not in keys:
            raise ConfigError(f"[{section}] {key}", "missing key")
        return keys[key]

    def get_str(self, section: str, key: str,
                default: Optional[str] = None) -> str:
        if default is not None and not self.has(section, key):
            return default
        return self._raw(section, key)

    def get_int(self, section: str, key: str, default: Optional[int] = None,
                low: Optional[int] = None) -> int:
        if default is not None and not self.has(section, key):
            return default
        return read_int(f"[{section}] {key}", self._raw(section, key), low)

    def get_float(self, section: str, key: str) -> float:
        raw = self._raw(section, key)
        value = _read(f"[{section}] {key}", raw, float, "number")
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key}",
                              f"expected a finite number, got {raw!r}")
        return value

    def get_fraction(self, section: str, key: str,
                     default: Optional[Fraction] = None) -> Fraction:
        if default is not None and not self.has(section, key):
            return default
        return _read(f"[{section}] {key}", self._raw(section, key),
                     exact_fraction, "rational ('2/7' or '0.3')")

    def get_bool(self, section: str, key: str, default: bool = False) -> bool:
        if not self.has(section, key):
            return default
        raw = self._raw(section, key).strip().lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}", f"expected boolean, got {raw!r}")

    def get_int_list(self, section: str, key: str) -> List[int]:
        return _read(f"[{section}] {key}", self._raw(section, key),
                     lambda raw: [number(p) for p in raw.replace(",", " ").split()],
                     "integer list")


def _simple_sections(text: str) -> Optional[Dict[str, Dict[str, str]]]:
    """The sections of ``text`` if each of its lines is blank, a ``#`` or
    ``;`` comment, a ``[name]`` header or a one-line ``key = value`` (or
    ``key: value``) pair, none of them indented; else None.  A header
    names a new section other than DEFAULT (everything between its first
    and last character, brackets too, as configparser reads it); a pair
    comes after a header, splits at its first ``=`` or ``:``, and names a
    key its section does not have yet.  On these lines configparser
    gives the same sections, keys, order and values."""
    sections: Dict[str, Dict[str, str]] = {}
    keys = None
    for line in text.split("\n"):     # as configparser's StringIO splits
        stripped = line.strip()
        if not stripped or line[0] in "#;":
            continue
        if line[0].isspace():           # a continuation or indented line
            return None
        if line[0] == "[":
            name = stripped[1:-1]
            if (stripped[-1] != "]" or not name or name == "DEFAULT"
                    or name in sections):
                return None
            keys = sections[name] = {}
            continue
        key, eq, value = stripped.partition("=")
        if ":" in key or not eq:
            key, colon, value = stripped.partition(":")
            if not colon:
                return None
        key = key.rstrip()
        if keys is None or not key or key in keys:
            return None
        keys[key] = value.strip()
    return sections


def _parsed_sections(text: str) -> Dict[str, Dict[str, str]]:
    """``text`` read by configparser, which takes the rest of INI
    (continuation lines, DEFAULT) and names what it refuses."""
    import configparser
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("(file)", f"not parseable as INI: {exc}") from exc
    # options(), not items(): a section's own keys first, as configparser
    # lists them, then those it takes from DEFAULT
    return {section: {key: parser.get(section, key)
                      for key in parser.options(section)}
            for section in parser.sections()}


def _read(field: str, raw: str, kind, expected: str):
    """``numbers.number(raw, kind)``, or a ConfigError naming ``field``."""
    try:
        return number(raw, kind)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(field, f"expected {expected}, got {raw!r}")


def read_int(field: str, raw: str, low: Optional[int] = None) -> int:
    """``raw`` as an integer that is at least ``low`` (if given)."""
    value = _read(field, raw, int, "integer")
    if low is not None and value < low:
        raise ConfigError(field, f"expected an integer >= {low}, got {value}")
    return value


def parse_vertex_list(raw: str, field: str) -> List[int]:
    """Parse '0-4,7,9-11' style vertex lists."""
    out: List[int] = []
    for chunk in raw.replace(" ", "").split(","):
        if not chunk:
            continue
        lo, dash, hi = chunk.partition("-")
        try:
            a, b = number(lo), number(hi if dash else lo)
        except ValueError:
            raise ConfigError(field, f"bad {'range' if dash else 'vertex id'} "
                                     f"{chunk!r}")
        if b < a:
            raise ConfigError(field, f"descending range {chunk!r}")
        out.extend(range(a, b + 1))
    return out
