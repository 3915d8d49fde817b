"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``datasets``  — list the synthetic datasets and their CDF hardness.
* ``smooth``    — run Algorithm 1 on a dataset (or a saved ``.npz``).
* ``build``     — build an index and print its structure.
* ``csv``       — run one CSV experiment (build → optimise → measure).
* ``levels``    — per-level query costs (the Fig. 1 view).
* ``serve``     — build (or reopen ``--data-dir``) a sharded index and
  expose it over the HTTP front door (batch JSON endpoints, admission
  control, ``GET /v1/health``, ``GET /metrics``, optional ``--store``
  SQLite-WAL op log) until SIGINT/SIGTERM drains it.

All output goes through the ``repro`` structured logger: the default
``--log-format plain`` is byte-compatible with the old ``print``-based
reporting, ``--log-format json`` emits one JSON object per line.

Examples::

    python -m repro datasets --n 20000
    python -m repro smooth --dataset genome --n 5000 --alpha 0.2
    python -m repro build --index lipp --dataset osm --n 10000
    python -m repro csv --index alex --dataset facebook --alpha 0.1
    python -m repro serve --index lipp --shards 8 --dataset osm --port 8000
    python -m repro serve --data-dir ./data --store ./data/runtime.db
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core.exceptions import ReproError
from .core.smoothing import smooth_keys
from .datasets import DATASETS, load, summarize
from .evaluation import ascii_table, run_csv_experiment, run_level_query_times
from .indexes import CSV_FAMILIES, INDEX_FAMILIES
from .obs.log import LOG_FORMATS, configure_logging, get_logger

__all__ = ["main", "build_parser"]

_log = get_logger("cli")


def _say(msg: str = "") -> None:
    """Emit one line of command output through the structured logger."""
    _log.info(msg)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are one line, like
    :func:`main`'s ``repro: error:`` for a value the library rejects."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_in(low: int, high: int | None = None):
    """An argparse ``type=`` accepting integers in ``[low, high]``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"{value} is not {bound}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for every subcommand."""
    parser = _Parser(
        prog="repro",
        description="Learned indexes with distribution smoothing via virtual points",
    )
    parser.add_argument(
        "--log-format", choices=LOG_FORMATS, default="plain",
        help="output format: 'plain' (default, print-compatible) or 'json'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_datasets = sub.add_parser("datasets", help="list datasets and hardness")
    p_datasets.add_argument("--n", type=int, default=10_000)

    p_smooth = sub.add_parser("smooth", help="run Algorithm 1 on a dataset")
    p_smooth.add_argument("--dataset", choices=sorted(DATASETS), default="genome")
    p_smooth.add_argument("--n", type=int, default=5_000)
    p_smooth.add_argument("--alpha", type=float, default=0.1)
    p_smooth.add_argument("--keys-file", help=".npz with a 'keys' array (overrides --dataset)")
    p_smooth.add_argument("--save", help="write the smoothing result to this .npz")

    p_build = sub.add_parser("build", help="build an index, print structure")
    p_build.add_argument("--index", choices=sorted(INDEX_FAMILIES), default="lipp")
    p_build.add_argument("--dataset", choices=sorted(DATASETS), default="facebook")
    p_build.add_argument("--n", type=int, default=10_000)

    p_csv = sub.add_parser("csv", help="run one CSV experiment")
    p_csv.add_argument("--index", choices=CSV_FAMILIES, default="lipp")
    p_csv.add_argument("--dataset", choices=sorted(DATASETS), default="facebook")
    p_csv.add_argument("--n", type=int, default=10_000)
    p_csv.add_argument("--alpha", type=float, default=0.1)
    p_csv.add_argument("--export", help="append the result row to this CSV file")

    p_levels = sub.add_parser("levels", help="per-level query cost (Fig. 1 view)")
    p_levels.add_argument("--index", choices=CSV_FAMILIES, default="lipp")
    p_levels.add_argument("--dataset", choices=sorted(DATASETS), default="genome")
    p_levels.add_argument("--n", type=int, default=10_000)

    p_serve = sub.add_parser(
        "serve", help="serve a sharded index over HTTP until SIGINT/SIGTERM",
        allow_abbrev=False,  # a deleted flag is an error, not a prefix of a live one
    )
    p_serve.add_argument("--index", choices=CSV_FAMILIES, default="lipp")
    p_serve.add_argument("--dataset", choices=sorted(DATASETS), default="facebook")
    p_serve.add_argument("--n", type=int, default=20_000)
    p_serve.add_argument("--shards", type=int, default=8)
    p_serve.add_argument(
        "--alpha", type=float, default=None,
        help="smoothing α applied to every shard (default: no smoothing)",
    )
    p_serve.add_argument("--staleness", type=float, default=0.1,
                         help="write-buffer merge threshold (buffered/stored)")
    p_serve.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="durable store directory (runs + manifest); opened if it "
             "already holds a snapshot (whose manifest then overrides "
             "--index/--dataset/--n/--shards/--alpha), initialised from "
             "the dataset otherwise — see docs/PERSISTENCE.md for the layout",
    )
    p_serve.add_argument(
        "--flush-threshold", type=int, default=4096, metavar="N",
        help="with --data-dir: freeze a shard's unflushed writes into "
             "a durable run once N accumulate (0 = only flush on "
             "merge/close); default 4096",
    )
    p_serve.add_argument(
        "--http", action="store_true",
        help="accepted and ignored: serve is always the HTTP front door",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    p_serve.add_argument(
        "--port", type=_int_in(0, 65535), default=8000,
        help="HTTP port (0 lets the OS pick; the bound port is logged)",
    )
    p_serve.add_argument(
        "--max-pending", type=_int_in(0), default=64,
        help="admission: batches queued beyond the in-flight ones "
             "before requests are rejected with 429",
    )
    p_serve.add_argument(
        "--max-inflight", type=_int_in(1), default=2,
        help="admission: batches executing concurrently",
    )
    p_serve.add_argument(
        "--store", default=None, metavar="PATH",
        help="SQLite-WAL op log of accepted writes, replayed "
             "on restart (counters are per process); with --data-dir, "
             "pruned whenever an insert commits a generation",
    )

    return parser


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(DATASETS):
        keys = load(name, args.n)
        s = summarize(name, keys)
        rows.append(
            [name, s.n, f"{s.global_r2:.4f}", f"{s.local_r2_mean:.4f}", s.pla_segments]
        )
    _say(
        ascii_table(
            ["dataset", "keys", "global R2", "local R2", "PLA segments"], rows
        )
    )
    return 0


def _cmd_smooth(args: argparse.Namespace) -> int:
    if args.keys_file:
        from .io import load_keys

        keys, __ = load_keys(args.keys_file)
        source = args.keys_file
    else:
        keys = load(args.dataset, args.n)
        source = f"{args.dataset} analogue"
    result = smooth_keys(keys, alpha=args.alpha)
    _say(f"source: {source} ({keys.size} keys), alpha={args.alpha}")
    _say(f"virtual points inserted: {result.n_virtual} / budget {result.budget}")
    _say(f"loss: {result.original_loss:,.1f} -> {result.final_loss:,.1f} "
          f"({result.loss_improvement_pct:.1f}% better)")
    _say(f"elapsed: {result.elapsed_seconds:.2f}s"
          + ("  (stopped early: no further gain)" if result.stopped_early else ""))
    if args.save:
        from .io import save_smoothing_result

        path = save_smoothing_result(args.save, result)
        _say(f"saved to {path}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    keys = load(args.dataset, args.n)
    index = INDEX_FAMILIES[args.index].build(keys)
    _say(f"{args.index} over {keys.size} {args.dataset} keys:")
    _say(f"  height:     {index.height()}")
    _say(f"  nodes:      {index.node_count()}")
    _say(f"  size:       {index.size_bytes() / 1024:.1f} KiB")
    levels, counts = np.unique(index.key_levels(keys), return_counts=True)
    _say(f"  keys/level: {dict(zip(levels.tolist(), counts.tolist()))}")
    return 0


def _cmd_csv(args: argparse.Namespace) -> int:
    row = run_csv_experiment(args.index, args.dataset, n=args.n, alpha=args.alpha)
    _say(
        ascii_table(
            ["metric", "value"],
            [
                ["index / dataset", f"{row.index_family} / {row.dataset}"],
                ["keys", row.n],
                ["alpha", row.alpha],
                ["height", f"{row.height_before} -> {row.height_after}"],
                ["promoted keys", f"{row.promoted_keys} ({row.promoted_pct:.1f}% of promotable)"],
                ["demoted keys", row.demoted_keys],
                ["summed key levels", f"{row.levels_sum_before} -> {row.levels_sum_after}"],
                ["query improvement", f"{row.query_improvement_pct:.1f}%"],
                ["total time saved", f"{row.total_time_saved_ns:,.0f} sim-ns"],
                ["storage change", f"{row.storage_increase_pct:+.1f}%"],
                ["node reduction", f"{row.node_reduction_pct:.1f}%"],
                ["CSV preprocessing", f"{row.preprocessing_seconds:.2f}s"],
            ],
        )
    )
    if args.export:
        from .io import export_rows_csv

        export_rows_csv(args.export, [row])
        _say(f"row exported to {args.export}")
    return 0


def _cmd_levels(args: argparse.Namespace) -> int:
    rows = run_level_query_times(args.index, args.dataset, n=args.n)
    _say(
        ascii_table(
            ["level", "keys", "avg query (sim ns)"],
            [[r.level, r.n_keys_at_level, r.avg_simulated_ns] for r in rows],
        )
    )
    return 0


def _make_service(args: argparse.Namespace):
    """Open-or-build the :class:`IndexService` ``serve`` exposes.

    With ``--data-dir`` pointing at an initialised store the service
    recovers from the snapshot and no dataset is generated (the
    dataset, family, shard count and α come from the manifest; those
    flags only describe the fallback build); otherwise it
    builds from the dataset and — when a data dir was given —
    immediately snapshots into it.
    """
    from .serving import IndexService
    from .store import DurableStore

    store = DurableStore(args.data_dir) if args.data_dir else None
    if store is not None and store.is_initialized():
        service = IndexService.open_snapshot(
            store,
            staleness_threshold=args.staleness,
            flush_threshold=args.flush_threshold,
        )
        _say(
            f"data dir: opened generation {service.durable_generation()} from "
            f"{store.data_dir} ({service.n_keys} keys, "
            f"{store.runs_outstanding()} outstanding run(s)); "
            f"--dataset/--n/--index/--shards/--alpha ignored"
        )
        return service
    service = IndexService.build(
        load(args.dataset, args.n),
        family=args.index,
        n_shards=args.shards,
        alpha=args.alpha,
        staleness_threshold=args.staleness,
        store=store,
        flush_threshold=args.flush_threshold,
    )
    if store is not None:
        _say(
            f"data dir: initialised {store.data_dir} at generation "
            f"{service.durable_generation()} (flush threshold {args.flush_threshold})"
        )
    return service


def _cmd_serve(args: argparse.Namespace) -> int:
    """The network front door over the service, until SIGINT/SIGTERM
    drains it; ``GET /v1/health`` is its health report."""
    from .obs.metrics import MetricsRegistry, scoped_registry
    from .server import RuntimeStore, run_http_server

    # The HTTP server is long-lived: instrumentation is always on so
    # GET /metrics has something to export.
    registry = MetricsRegistry(enabled=True)
    store = RuntimeStore(args.store) if args.store else None
    with scoped_registry(registry), _make_service(args) as service:
        _say(
            f"http front door: {service.family} x {service.n_shards} shards over "
            f"{service.n_keys} keys; admission "
            f"{args.max_pending} pending / {args.max_inflight} in flight"
        )
        if store is not None:
            _say(f"runtime store: {store.path} (journal mode {store.journal_mode()})")
        code = run_http_server(
            service,
            args.host,
            args.port,
            registry=registry,
            store=store,
            max_pending=args.max_pending,
            max_inflight=args.max_inflight,
            on_listening=lambda h, p: _say(f"http: listening on http://{h}:{p}"),
        )
        _say("http: drained and stopped")
        return code


_COMMANDS = {
    "datasets": _cmd_datasets,
    "smooth": _cmd_smooth,
    "build": _cmd_build,
    "csv": _cmd_csv,
    "levels": _cmd_levels,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.log_format)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        # A value the library rejects (--alpha 2) is the user's to fix:
        # one line and argparse's exit status, not a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
