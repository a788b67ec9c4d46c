"""Reading input documents: the one file loader and the value readers.

:func:`load` is the only code that opens, decodes and parses an input file.
Each format's parse function lives beside the type it builds and reads every
value through the readers here, so a malformed document of any format ends
in one :class:`SpecFormatError` whose message starts with the file's path and
names the entry and the key.
"""

from __future__ import annotations

import json
import math
import reprlib
from typing import Any, Callable


class SpecFormatError(ValueError):
    """An input document is malformed."""


# Error messages quote values through short_repr: a repr cut to a few dozen
# characters per item, a few items per level and two levels, so that a
# document-sized value still makes one short line.
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 2
short_repr = _SHORT.repr


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SpecFormatError(f"repeated key {short_repr(key)}")
        obj[key] = value
    return obj


def _int_literal(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # beyond the interpreter's limit on integer digits
        raise SpecFormatError(f"integer literal of {len(text)} digits is too long") from None


def load(path: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` applied to the JSON document in the file at ``path``.

    The file must be UTF-8 and name no key twice in one object.  An
    unreadable file, invalid UTF-8, malformed JSON, a repeated key, nesting
    too deep to decode, an integer literal too long to convert and every
    ValueError ``parse`` raises (SpecFormatError among them) end in one
    SpecFormatError prefixed with ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh, object_pairs_hook=_unique_keys, parse_int=_int_literal))
    except (OSError, ValueError, RecursionError) as exc:
        raise SpecFormatError(f"{path}: {exc}") from None


_REQUIRED = object()


def spec_field(entry: Any, where: str, key: str, convert: Callable[[Any], Any],
               default: Any = _REQUIRED) -> Any:
    """``convert(entry[key])``; a non-object entry, a missing key without a
    default, or a value ``convert`` rejects raises SpecFormatError naming
    ``where`` and ``key``."""
    if type(entry) is not dict:  # inline: this runs for every field of every entry
        spec_object(entry, where)
    if key not in entry:
        if default is _REQUIRED:
            raise SpecFormatError(f"{where} is missing {short_repr(key)}")
        return default
    try:
        return convert(entry[key])
    except (TypeError, ValueError, ArithmeticError):
        raise SpecFormatError(
            f"{where}: bad {short_repr(key)} value {short_repr(entry[key])}") from None


def spec_object(value: Any, where: str = "value") -> dict:
    """``value`` if it is a JSON object."""
    if not isinstance(value, dict):
        raise SpecFormatError(f"{where} must be an object, got {type(value).__name__}")
    return value


def list_of(convert: Callable[[Any], Any] = lambda item: item) -> Callable[[Any], list]:
    """Reader of a JSON array whose items are read by ``convert``."""
    def read(value: Any) -> list:
        if not isinstance(value, list):
            raise SpecFormatError(f"expected a list, got {type(value).__name__}")
        return [convert(item) for item in value]

    return read


def spec_int(value: Any) -> int:
    """An integer spec value: an int, an integral float or a decimal string.
    Booleans and non-integral numbers such as 1.5 are refused, not
    truncated."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise SpecFormatError(f"{short_repr(value)} is not an integer")
    return int(value)


def spec_number(value: Any) -> float:
    """A finite JSON number as a float.  Booleans, numeric strings and
    numbers beyond the float range are refused."""
    number = math.nan
    if type(value) is float or type(value) is int:  # not bool, a subclass of int
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
    if not math.isfinite(number):
        raise SpecFormatError(f"expected a finite number, got {short_repr(value)}")
    return number


def spec_str(value: Any) -> str:
    """A JSON string; no other value is converted to one."""
    if type(value) is not str:
        raise SpecFormatError(f"expected a string, got {short_repr(value)}")
    return value
