"""The JSON line-file format: configurations to and from JSON objects, and
the checked reader that line and curve files share.

A file is ``{"dim": d, "lines": [{"base": [...], "dir": [...]}, ...]}``
with every rational a string such as ``"3"`` or ``"-7/2"``.  Only a run that
reads or writes a file loads this module: ``geometry.load_configuration``
and ``geometry.save_configuration`` import it when called.
"""

from __future__ import annotations

from .errors import FileFormatError
from .exact import format_rational, parse_rational
from .geometry import Configuration, Line


def line_to_dict(line: Line) -> dict:
    return {
        "base": [format_rational(c) for c in line.base],
        "dir": [format_rational(c) for c in line.direction],
    }


def configuration_to_dict(config: Configuration) -> dict:
    return {
        "dim": config.dim,
        "lines": [line_to_dict(line) for line in config.sorted_lines()],
    }


def parse_coords(values, where: str, dim: int | None = None) -> tuple:
    """Rationals from a JSON list of strings like "3" or "-7/2", as ints and
    Fractions; ``dim``, when given, is the required length.  Errors name the
    offending entry."""
    if not isinstance(values, list) or dim is not None and len(values) != dim:
        count = "" if dim is None else f"{dim} "
        raise FileFormatError(f"{where}: expected a list of {count}rationals")
    out = []
    for k, item in enumerate(values):
        if not isinstance(item, str):
            raise FileFormatError(f"{where}[{k}]: rationals must be strings")
        try:
            out.append(parse_rational(item))
        except ValueError as exc:
            raise FileFormatError(f"{where}[{k}]: {exc}") from exc
    return tuple(out)


def read_items(obj, key: str, build) -> tuple[int, list]:
    """The dimension and the items of a configuration file's object
    ``{"dim": d, key: [item, ...]}``, for lines and curves alike.

    ``build(raw, dim, where)`` makes one item from its JSON value, with
    ``where`` naming it as ``key[i]``.  A FileFormatError it raises names
    its own field; any other ValueError is reported against the item."""
    if not isinstance(obj, dict):
        raise FileFormatError("top level: expected an object")
    dim = obj.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise FileFormatError("dim: expected an integer >= 2")
    raw_items = obj.get(key)
    if not isinstance(raw_items, list):
        raise FileFormatError(f"{key}: expected a list")
    items = []
    for i, raw in enumerate(raw_items):
        where = f"{key}[{i}]"
        try:
            items.append(build(raw, dim, where))
        except FileFormatError:
            raise
        except ValueError as exc:
            raise FileFormatError(f"{where}: {exc}") from exc
    return dim, items


def _line_from_dict(raw, dim: int, where: str) -> Line:
    if not isinstance(raw, dict):
        raise ValueError("expected an object")
    base = parse_coords(raw.get("base"), f"{where}.base", dim)
    return Line(base, parse_coords(raw.get("dir"), f"{where}.dir", dim))


def configuration_from_dict(obj) -> Configuration:
    dim, lines = read_items(obj, "lines", _line_from_dict)
    config = Configuration(dim, lines)
    if config.n < len(lines):
        import logging  # only this warning logs; most runs never load it

        logging.getLogger(__name__).warning(
            "deduplicated %d duplicate line(s)", len(lines) - config.n
        )
    return config


def write_json(path, obj) -> None:
    """Write obj as JSON indented by two spaces, ending in a newline."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_json(path):
    """Parse a JSON file; malformed JSON, or bytes that are not UTF-8, raise
    FileFormatError naming the path."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
