"""Coefficient fields by name: `QQ`, `GF(p, s)` and the JSON field
descriptor.

Q and the prime fields are `gridlab.primefields`', the extension fields
F_{p^s}, s >= 2, `gridlab.extfields`'.  `GF` reaches the extension module
only for s >= 2, so a process over Q or F_p compiles no extension-field
code.
"""

from __future__ import annotations

from functools import lru_cache

from . import extfields
from .errors import UnsupportedParameters, json_field, json_value
from .primefields import Field, PrimeField, Rationals


QQ = Rationals()


@lru_cache(maxsize=None)
def GF(p: int, s: int = 1, modulus: tuple | None = None) -> Field:
    """Finite field with p^s elements (prime field when s == 1)."""
    if s == 1:
        return PrimeField(p)
    return extfields.ExtensionField(p, s, modulus)


def field_from_descriptor(d: dict) -> Field:
    kind = json_field(d, "kind", str, "field")
    if kind == "rationals":
        return QQ
    if kind == "prime":
        return GF(json_field(d, "p", int, "field"))
    if kind == "extension":
        modulus = None
        if "modulus" in d:
            modulus = tuple(
                json_value(c, int, "field.modulus entry")
                for c in json_field(d, "modulus", list, "field")
            )
        p, s = (json_field(d, key, int, "field") for key in ("p", "s"))
        return GF(p, s, modulus)
    raise UnsupportedParameters(f"unknown field kind {kind!r}")
