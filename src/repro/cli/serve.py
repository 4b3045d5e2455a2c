"""The daemon command: ``lake serve``."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.options import (
    add_method_option,
    add_store_option,
    fail,
    port_number,
    positive_float,
    positive_int,
)


def register(lake_commands: argparse._SubParsersAction) -> None:
    serve = lake_commands.add_parser(
        "serve", help="run the discovery daemon (/query /stats /healthz over HTTP)"
    )
    add_store_option(serve)
    add_method_option(serve)
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    serve.add_argument(
        "--port", type=port_number, default=8642, help="TCP port (0 for an ephemeral one)"
    )
    serve.add_argument(
        "--unix-socket", type=Path, default=None, metavar="PATH",
        help="serve on this unix-domain socket instead of TCP",
    )
    serve.add_argument(
        "--queue-limit", type=positive_int, default=32,
        help="bounded admission queue size; requests beyond it get 429",
    )
    serve.add_argument(
        "--timeout-s", type=positive_float, default=30.0, metavar="SECONDS",
        help="default per-request deadline (clients can override per query; "
        "expired requests get 504)",
    )
    # Accepted and ignored: a query is priced exactly when a bound could
    # skip.  lakebench's served workload still passes the flag.
    serve.add_argument("--cascade", action="store_true", help=argparse.SUPPRESS)
    serve.add_argument(
        "--reopen-poll-s", type=positive_float, default=1.0, metavar="SECONDS",
        help="how often to poll the stores for a writer cycle (generation "
        "change triggers a graceful engine reopen)",
    )
    serve.set_defaults(func=_command_lake_serve)


def _command_lake_serve(args: argparse.Namespace) -> int:
    from repro.serve import DiscoveryServer, ServeConfig

    config = ServeConfig(
        store_path=args.store,
        method=args.method,
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        queue_limit=args.queue_limit,
        default_timeout_s=args.timeout_s,
        reopen_poll_s=args.reopen_poll_s,
    )
    if args.unix_socket is not None:
        where = f"unix:{args.unix_socket}"
    else:
        where = f"http://{args.host}:{args.port}"
    try:
        server = DiscoveryServer(config).start()
    except ValueError as exc:
        # An unusable store (LakeOpenError, raised on the dispatcher thread).
        return fail(exc)
    except OSError as exc:
        # The bind failed (port busy, socket directory missing); start()
        # has already stopped the dispatcher it brought up.
        return fail(f"cannot listen on {where}: {exc}")
    if args.unix_socket is None:
        where = "http://{}:{}".format(*server.address)
    print(
        f"serving {args.store} with {args.method} on {where} "
        f"(queue limit {args.queue_limit}; Ctrl-C to stop)"
    )
    server.run_forever()
    return 0
