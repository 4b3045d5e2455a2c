"""Noise injection for fabricated dataset pairs (Section IV of the paper).

Two families of perturbations are implemented, following the eTuner-style
strategy the paper adopts:

* **Instance noise** — for string columns, random typos based on keyboard
  proximity; for numeric columns, random perturbations drawn according to the
  column's own value distribution.
* **Schema noise** — a combination of three transformation rules on column
  names: prefixing with the table name, abbreviation, and vowel dropping.

All functions take an explicit ``random.Random`` instance so fabrication is
deterministic given a seed.
"""

from __future__ import annotations

import random

from repro.data.table import Column, Table
from repro.data.types import DataType, is_missing

__all__ = [
    "KEYBOARD_NEIGHBOURS",
    "typo",
    "perturb_string_column",
    "perturb_numeric_column",
    "add_instance_noise",
    "prefix_column_name",
    "abbreviate_column_name",
    "drop_vowels",
    "add_schema_noise",
]

#: QWERTY keyboard adjacency used to generate plausible typos.
KEYBOARD_NEIGHBOURS: dict[str, str] = {
    "q": "wa", "w": "qes", "e": "wrd", "r": "etf", "t": "ryg", "y": "tuh",
    "u": "yij", "i": "uok", "o": "ipl", "p": "ol",
    "a": "qsz", "s": "awdx", "d": "sefc", "f": "drgv", "g": "fthb",
    "h": "gyjn", "j": "hukm", "k": "jil", "l": "kop",
    "z": "asx", "x": "zsdc", "c": "xdfv", "v": "cfgb", "b": "vghn",
    "n": "bhjm", "m": "njk",
    "0": "19", "1": "02", "2": "13", "3": "24", "4": "35", "5": "46",
    "6": "57", "7": "68", "8": "79", "9": "80",
}


def typo(value: str, rng: random.Random, operations: int = 1) -> str:
    """Introduce *operations* keyboard-proximity typos into *value*.

    Each operation either substitutes a character with a keyboard neighbour,
    swaps two adjacent characters, or drops a character.  Very short values
    (length < 3) are returned unchanged so that identifiers stay recognisable.
    """
    text = list(str(value))
    if len(text) < 3:
        return str(value)
    for _ in range(operations):
        kind = rng.choice(("substitute", "swap", "drop"))
        index = rng.randrange(len(text))
        char = text[index].lower()
        if kind == "substitute" and char in KEYBOARD_NEIGHBOURS:
            replacement = rng.choice(KEYBOARD_NEIGHBOURS[char])
            text[index] = replacement.upper() if text[index].isupper() else replacement
        elif kind == "swap" and index < len(text) - 1:
            text[index], text[index + 1] = text[index + 1], text[index]
        elif kind == "drop" and len(text) > 3:
            del text[index]
    return "".join(text)


def perturb_string_column(column: Column, rng: random.Random, noise_rate: float = 0.5) -> Column:
    """Apply keyboard-proximity typos to a fraction of a string column's cells."""
    new_values = []
    for value in column.values:
        if is_missing(value) or rng.random() > noise_rate:
            new_values.append(value)
        else:
            new_values.append(typo(str(value), rng))
    return Column(column.name, new_values, column.data_type, column.table_name)


def perturb_numeric_column(column: Column, rng: random.Random, noise_rate: float = 0.5) -> Column:
    """Perturb a fraction of numeric cells according to the column distribution.

    Each perturbed value receives additive noise drawn from a normal
    distribution whose standard deviation is the column's own standard
    deviation (integers stay integers).
    """
    numbers = column.numeric_values()
    if not numbers:
        return column
    mean = sum(numbers) / len(numbers)
    variance = sum((x - mean) ** 2 for x in numbers) / len(numbers)
    std = variance ** 0.5 or max(abs(mean) * 0.1, 1.0)

    new_values = []
    for value in column.values:
        if is_missing(value) or rng.random() > noise_rate:
            new_values.append(value)
            continue
        try:
            number = float(str(value))
        except (TypeError, ValueError):
            new_values.append(value)
            continue
        noisy = number + rng.gauss(0.0, std)
        if column.data_type is DataType.INTEGER:
            new_values.append(int(round(noisy)))
        else:
            new_values.append(round(noisy, 4))
    return Column(column.name, new_values, column.data_type, column.table_name)


def add_instance_noise(table: Table, rng: random.Random, noise_rate: float = 0.5) -> Table:
    """Return a copy of *table* with instance noise in every column."""
    noisy_columns = []
    for column in table.columns:
        if column.data_type.is_numeric:
            noisy_columns.append(perturb_numeric_column(column, rng, noise_rate))
        elif column.data_type.is_textual or column.data_type is DataType.DATE:
            noisy_columns.append(perturb_string_column(column, rng, noise_rate))
        else:
            noisy_columns.append(column)
    return Table(table.name, noisy_columns)


# --------------------------------------------------------------------------- #
# schema noise
# --------------------------------------------------------------------------- #
_VOWELS = set("aeiouAEIOU")


def prefix_column_name(name: str, table_name: str) -> str:
    """Prefix a column name with its table name (common DB design practice)."""
    clean_table = table_name.replace(" ", "_")
    return f"{clean_table}_{name}"


def abbreviate_column_name(name: str, max_length: int = 4) -> str:
    """Abbreviate a column name by truncating each word token."""
    pieces = [piece for piece in name.replace("-", "_").split("_") if piece]
    if not pieces:
        return name
    return "_".join(piece[:max_length] for piece in pieces)


def drop_vowels(name: str) -> str:
    """Remove non-leading vowels from a column name."""
    if not name:
        return name
    kept = [name[0]]
    kept.extend(char for char in name[1:] if char not in _VOWELS)
    result = "".join(kept)
    return result if result else name


def add_schema_noise(table: Table, rng: random.Random) -> tuple[Table, dict[str, str]]:
    """Apply a random combination of the three renaming rules to every column.

    Returns the renamed table and the mapping ``{original name: noisy name}``.
    Renaming is collision-safe: when two noisy names collide, a numeric suffix
    keeps them distinct.
    """
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for column in table.columns:
        new_name = column.name
        rules = rng.sample(("prefix", "abbreviate", "vowels"), k=rng.randint(1, 2))
        for rule in rules:
            if rule == "prefix":
                new_name = prefix_column_name(new_name, table.name)
            elif rule == "abbreviate":
                new_name = abbreviate_column_name(new_name)
            else:
                new_name = drop_vowels(new_name)
        if new_name == column.name:
            new_name = drop_vowels(abbreviate_column_name(column.name))
        base = new_name
        suffix = 1
        while new_name in used:
            suffix += 1
            new_name = f"{base}{suffix}"
        used.add(new_name)
        mapping[column.name] = new_name
    return table.rename_columns(mapping), mapping
