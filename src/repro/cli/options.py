"""What every command group shares: the repeated options, declared once each."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from repro.matchers.registry import matcher_class


def fail(message: object) -> int:
    """Report an operational error: one line on stderr, exit status 1."""
    print(message, file=sys.stderr)
    return 1


def matcher_name(value: str) -> str:
    """``type=`` callable: reject unregistered matcher names at parse time."""
    try:
        matcher_class(value)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return value


def positive_int(value: str) -> int:
    """``type=`` callable: a whole number of at least 1."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not a positive integer")
    return number


def non_negative_int(value: str) -> int:
    """``type=`` callable: a whole number of at least 0."""
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"{value!r} is not a non-negative integer")
    return number


def port_number(value: str) -> int:
    """``type=`` callable: a TCP port, 0 (ephemeral) to 65535."""
    number = int(value)
    if not 0 <= number <= 65535:
        raise argparse.ArgumentTypeError(f"{value!r} is not a port number (0-65535)")
    return number


def positive_float(value: str) -> float:
    """``type=`` callable: a finite number above 0."""
    number = float(value)
    if not 0.0 < number < math.inf:
        raise argparse.ArgumentTypeError(f"{value!r} is not a positive number")
    return number


def add_method_option(
    parser: argparse.ArgumentParser, name: str = "--method", **kwargs: object
) -> None:
    """A validated matcher name; plain ``--method`` defaults to ComaSchema."""
    if name == "--method":
        kwargs.setdefault("default", "ComaSchema")
    kwargs.setdefault("help", "registered matcher name")
    parser.add_argument(name, type=matcher_name, **kwargs)


def add_store_option(parser: argparse.ArgumentParser) -> None:
    """``--store``: the sketch store, which alone names a lake (its prepared
    store is ``<store>.prepared``)."""
    parser.add_argument("--store", type=Path, default=Path("lake.sketches"), help="store path")


def add_workers_option(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--workers", type=positive_int, default=None, help=help)
