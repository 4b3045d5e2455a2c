"""The front door to a lake on disk: which stores open, where, and how they fail.

A lake is named by its sketch store alone: its prepared-candidate store
always lives right next to it, at ``<store>.prepared``.  Every ``lake``
subcommand and the ``lake serve`` daemon open that pair through
:func:`open_lake`, so the decisions they share live exactly once:

* the prepared store's location, ``<store>.prepared``
  (:func:`resolve_prepared_path`, the one place the suffix is written);
* whether a missing sketch store is an error (``create=False``) or gets
  created (``create=True``);
* whether the prepared store is left alone, opened only when its file is
  already there, or created;
* one error type, :class:`LakeOpenError`, for a store that is missing,
  somebody else's SQLite file, or built with another schema or sketch config
  (a schema refusal names the file to delete and the command that
  recreates it: both stores are derived data);
* both handles closed on the way out, whatever the body did.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from repro.discovery.prepared import PreparedStore
from repro.lake.profiles import SketchConfig
from repro.lake.store import SketchStore, StoreGeneration, store_generation

__all__ = ["LakeOpenError", "lake_generation", "open_lake", "resolve_prepared_path"]

PathLike = Union[str, Path]


class LakeOpenError(ValueError):
    """A store the caller needs is missing, foreign or otherwise unusable."""


def resolve_prepared_path(store_path: PathLike) -> Path:
    """``<store>.prepared``: where the prepared store of a sketch store lives."""
    store_path = Path(store_path)
    return store_path.with_name(store_path.name + ".prepared")


def lake_generation(
    store_path: PathLike,
) -> tuple[Optional[StoreGeneration], Optional[StoreGeneration]]:
    """The on-disk generation of (sketch store, prepared store)."""
    return store_generation(store_path), store_generation(resolve_prepared_path(store_path))


@contextmanager
def open_lake(
    store_path: PathLike,
    *,
    create: bool = False,
    read_only: bool = False,
    prepared: Optional[str] = None,
    config: Optional[SketchConfig] = None,
    warn: Optional[Callable[[ValueError], None]] = None,
) -> Iterator[tuple[SketchStore, Optional[PreparedStore]]]:
    """Open a lake's stores; yields ``(sketch_store, prepared_store_or_None)``.

    Parameters
    ----------
    store_path:
        The sketch store; the prepared store is ``<store>.prepared``.
    create:
        Create the sketch store when it is missing.  Off, a missing store
        raises :class:`LakeOpenError` telling the user to build one.
    read_only:
        Open the sketch store — and a prepared store that is not being
        created — with SQLite ``mode=ro``.
    prepared:
        ``None`` leaves the prepared store closed; ``"if_present"`` opens it
        only when its file exists; ``"create"`` opens it writable, creating
        it when missing.
    config:
        Sketch parameters for a sketch store created here; an existing store
        built with different ones refuses.
    warn:
        Makes an unusable prepared store survivable: *warn* is called with
        the error and ``None`` is yielded in the store's place, so the
        caller runs cold.  Without it the error is a :class:`LakeOpenError`.
    """
    if prepared not in (None, "if_present", "create"):
        raise ValueError(f"prepared must be None, 'if_present' or 'create', not {prepared!r}")
    store_path = Path(store_path)
    if not create and not store_path.exists():
        raise LakeOpenError(f"no sketch store at {store_path}; run `lake build` first")
    prepared_file = resolve_prepared_path(store_path)
    with ExitStack() as stack:
        try:
            store = stack.enter_context(
                SketchStore(store_path, config=config, read_only=read_only)
            )
        except ValueError as exc:
            raise LakeOpenError(str(exc)) from exc
        prepared_store = None
        if prepared == "create" or (prepared == "if_present" and prepared_file.exists()):
            try:
                prepared_store = stack.enter_context(
                    PreparedStore(prepared_file, read_only=read_only and prepared != "create")
                )
            except ValueError as exc:
                if warn is None:
                    raise LakeOpenError(str(exc)) from exc
                warn(exc)
        yield store, prepared_store
