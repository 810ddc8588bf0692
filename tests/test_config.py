"""Config reading: the plain-INI reader against configparser.

``config._simple_sections`` reads a plain INI file and refuses every other
file with a ``(file)`` config error that names a line.  Whatever it reads,
configparser must read to the same sections, keys, order and values, and a
``Config`` must echo and warn as configparser lists the file."""

import configparser
import os
import random
import re

import pytest

from cfl import config
from cfl.config import Config, ConfigError

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# characters that str.strip, configparser's indent test and str.split("\n")
# may treat differently: whitespace that is not ' ', and line separators
# that splitlines() would split on
_ODD = ["\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028",
        "\u3000", "\t", " ", "\ufeff"]
_KEYS = ["k", "K", "a b", "x", "kind"]
_SECTIONS = ["run", "alpha", "s", "DEFAULT"]


def _plain_line(rng):
    """A line the plain reader takes, unless it repeats a section or key."""
    ch, key = rng.choice(_ODD), f"k{rng.randrange(12)}"
    sec = rng.choice(_SECTIONS[:3])
    return rng.choice([
        f"[{sec}]", f"[{sec}]{ch}", f"[{sec}{ch}]", f"[ {sec} ]",
        f"{key} = v", f"{key}: v", f"{key}=v", f"{key} = v = w",
        f"{key}: v = w", f"{key} = v: w", f"{key} =", f"{key} = a{ch}b",
        f"{key} = v{ch}", f"{key}{ch} = v", f"{key} ={ch}v", f"a{ch}b = v",
        f"{key} = %(x)s", f"{key} = #not a comment", "# comment", "; comment",
        "#", "", "\r",
    ])


def _odd_line(rng):
    """A line configparser reads otherwise than a plain one, or refuses."""
    ch, key, sec = rng.choice(_ODD), rng.choice(_KEYS), rng.choice(_SECTIONS)
    return rng.choice([
        f"[{sec}] = b", "[]", "[a]b]", "[a[b]", f"[{sec}", f"{ch}[{sec}]",
        "= v", ": v", key, f"{ch}{key} = v", f"{ch}# comment", "  ; indented",
        f"{ch}continued", "  continued", "\tcontinued", ch,
        f"{key} = v", f"[{sec}]",
    ])


def _texts(seed, count):
    """Half of the texts are mostly plain lines, half mostly odd ones."""
    rng = random.Random(seed)
    for _ in range(count):
        odd = rng.choice([0.05, 0.5])
        lines = [_odd_line(rng) if rng.random() < odd else _plain_line(rng)
                 for _ in range(rng.randrange(1, 10))]
        if rng.random() < 0.8:          # most texts start with a header
            lines.insert(0, f"[{rng.choice(_SECTIONS[:3])}]")
        text = "\n".join(lines)
        yield text + rng.choice(["", "\n", "\n\n", "\r\n"])


def _configparser(text):
    """``text`` read by a configparser set up as ``Config`` sets one up:
    None if it refuses the text, else the parser."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error:
        return None
    return parser


def _ordered(sections):
    return [(name, list(keys.items())) for name, keys in sections.items()]


def test_the_plain_reader_reads_what_configparser_reads():
    """On seeded texts with odd whitespace, a BOM, continuation lines,
    indented comments, DEFAULT, repeated sections and keys, ':' pairs,
    '[a] = b', keys before any header and '= v': the plain reader reads
    configparser's sections, keys, order and values, and
    ``Config.from_text`` echoes and warns as configparser lists the file
    (``flat`` is ``items`` per section, ``unread_keys`` is ``options`` per
    section), or it raises a ``(file)`` config error that names a line."""
    read = refused = 0
    for text in _texts(3402, 4000):
        parser = _configparser(text)
        try:
            fast = config._simple_sections(text)
        except ConfigError as exc:
            refused += 1
            assert exc.field == "(file)", repr(text)
            assert re.search(r"not parseable as INI: line \d+: ", str(exc))
            with pytest.raises(ConfigError, match=re.escape(str(exc))):
                Config.from_text(text)
            continue
        read += 1
        assert parser is not None, repr(text)
        assert _ordered(fast) == [(s, parser.items(s))
                                  for s in parser.sections()], repr(text)
        cfg = Config.from_text(text)
        assert cfg.flat() == {f"{s}.{k}": v for s in parser.sections()
                              for k, v in parser.items(s)}
        assert cfg.unread_keys() == [(s, k) for s in parser.sections()
                                     for k in parser.options(s)]
    assert read > 1000 and refused > 1000


@pytest.mark.parametrize("name", sorted(
    name for name in os.listdir(GOLDEN) if name.endswith(".ini")))
def test_every_golden_config_is_plain_and_reads_as_before(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8-sig") as fh:
        text = fh.read()
    sections = config._simple_sections(text)
    assert sections is not None
    parser = _configparser(text)
    assert _ordered(sections) == [(s, parser.items(s)) for s in parser.sections()]
    cfg = Config.from_text(text)
    assert cfg.flat() == {f"{s}.{k}": v for s in parser.sections()
                          for k, v in parser.items(s)}
    assert cfg.unread_keys() == [(s, k) for s in parser.sections()
                                 for k in parser.options(s)]


def test_a_default_section_is_refused_at_its_line():
    """A DEFAULT section, which configparser would merge into every other
    section, is refused at its header."""
    text = "[DEFAULT]\nshared = 1\n[run]\nkind = alpha\nown = 2\n"
    with pytest.raises(ConfigError) as exc:
        Config.from_text(text)
    assert exc.value.field == "(file)"
    assert str(exc.value) == ("(file): not parseable as INI: line 1: no "
                              "section may be named [DEFAULT]")


@pytest.mark.parametrize("text, sections", [
    ("[run]\x1c\nkind = alpha\x0c\r\n", {"run": {"kind": "alpha"}}),
    ("[a]b]\nk\x0b: v\xa0\n\x85\n", {"a]b": {"k": "v"}}),
    ("[ s ]\r\n; c\r\n# c\r\nk = v = w\r\n", {" s ": {"k": "v = w"}}),
])
def test_the_plain_reader_strips_what_configparser_strips(text, sections):
    """Whitespace that ``str.strip`` removes at a line's end, a blank line
    of it, and brackets inside a header leave a file plain."""
    assert config._simple_sections(text) == sections
    parser = _configparser(text)
    assert {s: dict(parser.items(s)) for s in parser.sections()} == sections


def test_a_vertex_range_past_n_is_refused_before_it_is_built():
    """A range that reaches ``n`` is refused by its text: ``0-10**12`` once
    asked for a list of 10**12 ids before any was checked."""
    with pytest.raises(ConfigError, match=r"\[drc\] target: vertex ids out "
                       r"of range for n=5: '0-1000000000000'"):
        config.parse_vertex_list("1,0-1000000000000", "[drc] target", 5)
    with pytest.raises(ConfigError, match="for n=5: '5'"):
        config.parse_vertex_list("0-4,5", "[drc] target", 5)
    assert config.parse_vertex_list("4, 0-2,3", "[drc] target", 5) == [4, 0, 1, 2, 3]
