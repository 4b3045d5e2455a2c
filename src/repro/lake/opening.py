"""The front door to a lake on disk: which stores open, where, and how they fail.

A lake is a sketch store plus, conventionally right next to it, a
prepared-candidate store.  Every ``lake`` subcommand and the ``lake serve``
daemon open that pair through :func:`open_lake`, so the decisions they share
live exactly once:

* the prepared store's default location, ``<store>.prepared``
  (:func:`resolve_prepared_path`);
* whether a missing sketch store is an error (``create=False``) or gets
  created (``create=True``);
* whether the prepared store is left alone, opened only when its file is
  already there, or created;
* one error type, :class:`LakeOpenError`, for a store that is missing,
  somebody else's SQLite file, or built with another schema or sketch config;
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


def resolve_prepared_path(store_path: PathLike, prepared_path: Optional[PathLike] = None) -> Path:
    """*prepared_path* when named, else ``<store>.prepared`` next to the sketch store."""
    if prepared_path is not None:
        return Path(prepared_path)
    store_path = Path(store_path)
    return store_path.with_name(store_path.name + ".prepared")


def lake_generation(
    store_path: PathLike, prepared_path: Optional[PathLike] = None
) -> tuple[Optional[StoreGeneration], Optional[StoreGeneration]]:
    """The on-disk generation of (sketch store, prepared store)."""
    return (
        store_generation(store_path),
        store_generation(resolve_prepared_path(store_path, prepared_path)),
    )


@contextmanager
def open_lake(
    store_path: PathLike,
    prepared_path: Optional[PathLike] = None,
    *,
    create: bool = False,
    read_only: bool = False,
    prepared: Optional[str] = None,
    config: Optional[SketchConfig] = None,
    max_bytes: Optional[int] = None,
    warn: Optional[Callable[[ValueError], None]] = None,
) -> Iterator[tuple[SketchStore, Optional[PreparedStore]]]:
    """Open a lake's stores; yields ``(sketch_store, prepared_store_or_None)``.

    Parameters
    ----------
    store_path / prepared_path:
        The sketch store, and the prepared store when it does not live at
        the default ``<store>.prepared``.
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
    max_bytes:
        Byte budget handed to the prepared store.
    warn:
        Makes an unusable prepared store at the *default* path survivable:
        *warn* is called with the error and ``None`` is yielded in the
        store's place, so the caller runs cold.  A prepared store the user
        named explicitly always fails loudly.
    """
    if prepared not in (None, "if_present", "create"):
        raise ValueError(f"prepared must be None, 'if_present' or 'create', not {prepared!r}")
    store_path = Path(store_path)
    if not create and not store_path.exists():
        raise LakeOpenError(f"no sketch store at {store_path}; run `lake build` first")
    resolved_prepared = resolve_prepared_path(store_path, prepared_path)
    with ExitStack() as stack:
        try:
            store = stack.enter_context(
                SketchStore(store_path, config=config, read_only=read_only)
            )
        except ValueError as exc:
            raise LakeOpenError(str(exc)) from exc
        prepared_store = None
        if prepared == "create" or (prepared == "if_present" and resolved_prepared.exists()):
            try:
                prepared_store = stack.enter_context(
                    PreparedStore(
                        resolved_prepared,
                        max_bytes=max_bytes,
                        read_only=read_only and prepared != "create",
                    )
                )
            except ValueError as exc:
                if warn is None or prepared_path is not None:
                    raise LakeOpenError(str(exc)) from exc
                warn(exc)
        yield store, prepared_store
