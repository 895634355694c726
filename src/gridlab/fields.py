"""Coefficient fields by name: `QQ`, `GF(p, s)` and the JSON field
descriptor.

The prime fields are `gridlab.primefields`', Q is `gridlab.rationals`' and
the extension fields F_{p^s}, s >= 2, are `gridlab.extfields`'.  Both
modules are bound here as modules and read on first use: `GF` reaches
`extfields` only for s >= 2, and the descriptor of Q, or `fields.QQ`,
reaches `rationals`.  So a process over F_p compiles no extension-field
code and imports no `fractions`.
"""

from __future__ import annotations

from functools import lru_cache

from . import extfields, rationals
from .errors import UnsupportedParameters, json_field, json_value
from .primefields import Field, PrimeField


def __getattr__(name):
    # `fields.QQ` stays the public name of Q without running `rationals`
    # when `fields` runs
    if name == "QQ":
        return rationals.QQ
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@lru_cache(maxsize=None)
def GF(p: int, s: int = 1, modulus: tuple | None = None) -> Field:
    """Finite field with p^s elements (prime field when s == 1)."""
    if s == 1:
        return PrimeField(p)
    return extfields.ExtensionField(p, s, modulus)


def field_from_descriptor(d: dict) -> Field:
    kind = json_field(d, "kind", str, "field")
    if kind == "rationals":
        return rationals.QQ
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
