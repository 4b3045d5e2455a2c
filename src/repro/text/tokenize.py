"""Tokenisation of attribute names and cell values.

Schema-based matchers compare attribute *names*, which in practice come in
mixed conventions: ``camelCase``, ``snake_case``, abbreviations, table-name
prefixes.  This module normalises and tokenises such identifiers, and also
provides word tokens and character n-grams (COMA's trigram name matchers and
the pretrained embeddings use them).
"""

from __future__ import annotations

import re

__all__ = [
    "normalize_identifier",
    "split_identifier",
    "tokenize_identifier",
    "character_ngrams",
    "word_tokens",
    "expand_abbreviation",
    "ABBREVIATIONS",
]

_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_NON_ALNUM_RE = re.compile(r"[^0-9a-zA-Z]+")
_WORD_RE = re.compile(r"[A-Za-z0-9]+")

#: Abbreviation dictionary used to expand common database-style shorthand;
#: the inverse direction (vowel dropping, truncation) is handled by fuzzy
#: string similarity rather than table lookups.
ABBREVIATIONS: dict[str, str] = {
    "addr": "address",
    "amt": "amount",
    "avg": "average",
    "cat": "category",
    "cd": "code",
    "cnt": "count",
    "cntr": "country",
    "cntry": "country",
    "cty": "city",
    "ctry": "country",
    "cust": "customer",
    "dept": "department",
    "desc": "description",
    "dob": "birthdate",
    "emp": "employee",
    "fname": "firstname",
    "id": "identifier",
    "lname": "lastname",
    "loc": "location",
    "mgr": "manager",
    "msr": "measure",
    "nbr": "number",
    "nm": "name",
    "no": "number",
    "num": "number",
    "org": "organization",
    "ph": "phone",
    "pcode": "postalcode",
    "pcd": "postalcode",
    "po": "postalcode",
    "prod": "product",
    "qty": "quantity",
    "ref": "reference",
    "sal": "salary",
    "st": "street",
    "tel": "telephone",
    "val": "value",
    "yr": "year",
}


def normalize_identifier(name: str) -> str:
    """Lowercase *name* and strip non-alphanumeric separators."""
    return _NON_ALNUM_RE.sub(" ", str(name)).strip().lower()


def split_identifier(name: str) -> list[str]:
    """Split an identifier on case boundaries, digits/letters and separators.

    ``"customerAddressLine1"`` becomes ``["customer", "address", "line1"]``
    and ``"CUST_ADDR"`` becomes ``["cust", "addr"]``.
    """
    if not name:
        return []
    pieces = _NON_ALNUM_RE.split(str(name))
    tokens: list[str] = []
    for piece in pieces:
        if not piece:
            continue
        for sub in _CAMEL_RE.split(piece):
            if sub:
                tokens.append(sub.lower())
    return tokens


def expand_abbreviation(token: str) -> str:
    """Expand *token* using the abbreviation dictionary (identity if unknown)."""
    return ABBREVIATIONS.get(token.lower(), token.lower())


def tokenize_identifier(name: str, expand: bool = True) -> list[str]:
    """Tokenise an attribute/table identifier into normalised word tokens.

    Parameters
    ----------
    name:
        The raw identifier.
    expand:
        When True, abbreviations are expanded via :data:`ABBREVIATIONS`.
    """
    tokens = split_identifier(name)
    if expand:
        tokens = [expand_abbreviation(token) for token in tokens]
    return tokens


def word_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric word tokens of arbitrary text."""
    return [match.group(0).lower() for match in _WORD_RE.finditer(str(text))]


def character_ngrams(text: str, n: int = 3, pad: bool = True) -> list[str]:
    """Character n-grams of *text*; optionally padded with ``#`` boundaries."""
    if n <= 0:
        raise ValueError("n-gram size must be positive")
    text = str(text).lower()
    if pad:
        text = "#" * (n - 1) + text + "#" * (n - 1)
    if len(text) < n:
        return [text] if text else []
    return [text[i : i + n] for i in range(len(text) - n + 1)]
