"""Exception hierarchy shared by all featmim modules, and the field type
check every config record read from a file goes through.

Three classes can be caught, each mapped by the CLI onto an exit code:
ConfigError -> 2, DataError -> 3, NumericError -> 4. FeatmimError is only
their common base. Anything else is a bug and propagates as a traceback.
"""

import sys
from typing import get_args


class FeatmimError(Exception):
    """Base class for all errors raised by featmim."""


class ConfigError(FeatmimError):
    """Invalid configuration or a violated precondition (a shape, a degenerate mask)."""


class DataError(FeatmimError):
    """Malformed or missing input files (images, feature dumps, checkpoints)."""


class NumericError(FeatmimError):
    """Numerically undefined request: non-finite inputs, zero-norm tokens."""


def finite_number(value):
    """An int or float (not a bool) that is finite as a float."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


_FIELD_RULES = {
    bool: ("true or false", lambda v: type(v) is bool),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", finite_number),
    str: ("a string", lambda v: type(v) is str),
    type(None): ("null", lambda v: v is None),
}


def check_field_types(obj, where):
    """Raise ConfigError naming where.field when a field of the record obj
    does not hold its annotated type. An int field takes an int but not a
    bool, a float field an int or a finite float, an Optional field also
    None; other annotations (`object`) are left to the validate methods."""
    for name, kind in type(obj).__annotations__.items():
        kinds = [k for k in get_args(kind) or (kind,) if k in _FIELD_RULES]
        value = getattr(obj, name)
        if kinds and not any(_FIELD_RULES[k][1](value) for k in kinds):
            wanted = " or ".join(_FIELD_RULES[k][0] for k in kinds)
            raise ConfigError(f"{where}.{name} must be {wanted}, got {value!r}")
