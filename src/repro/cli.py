"""Command-line interface.

Run queries over the synthetic stand-ins (or a real edge-list file) from the
shell::

    python -m repro run --dataset wiki-Vote --query 5-cycle --algorithm clftj
    python -m repro run --dataset wiki-Vote --query 5-cycle --algorithm auto
    python -m repro compare --dataset ego-Facebook --query 4-path
    python -m repro plan --dataset wiki-Vote --query "E(x,y), E(y,z), E(z,x)"
    python -m repro explain --dataset wiki-Vote --query 3-cycle
    python -m repro datasets
    python -m repro serve --dataset wiki-Vote --port 8707 --max-concurrency 4

The CLI is a thin wrapper around :class:`repro.engine.QueryEngine`; it exists
so that the reproduction can be exercised without writing Python.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import List, Optional, Sequence

from repro.bench.reporting import format_records, format_results
from repro.bench.workloads import imdb_database
from repro.datasets.snap import SNAP_DATASETS, dataset_specs, load_snap_standin
from repro.engine.engine import AUTO_ALGORITHM, QueryEngine
from repro.engine.executors import registered_algorithms
from repro.engine.faults import QueryTimeoutError
from repro.engine.parallel import Schedule
from repro.query.atoms import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.query.patterns import (
    bipartite_cycle_query,
    clique_query,
    cycle_query,
    lollipop_query,
    path_query,
    random_pattern_query,
    star_query,
)
from repro.storage.database import Database
from repro.storage.loaders import load_edge_list

_PATTERN_RE = re.compile(r"^(\d+)-(path|cycle|clique|star|rand)(?:\(([\d.]+)\))?$")


def cli_algorithms() -> tuple:
    """Algorithm names the CLI accepts: every registered one plus "auto".

    Computed per parser build so algorithms registered after import (via
    :func:`repro.engine.executors.register_algorithm`) are selectable too.
    """
    return registered_algorithms() + (AUTO_ALGORITHM,)


def resolve_query(spec: str) -> ConjunctiveQuery:
    """Turn a query specification into a conjunctive query.

    Accepted forms: ``5-path``, ``4-cycle``, ``4-clique``, ``3-star``,
    ``5-rand(0.4)``, ``lollipop``, ``imdb-4-cycle``, ``imdb-6-cycle`` or a
    datalog-style body such as ``E(x,y), E(y,z), E(z,x)``.
    """
    spec = spec.strip()
    if spec == "lollipop":
        return lollipop_query(3, 2)
    if spec in ("imdb-4-cycle", "imdb-6-cycle"):
        return bipartite_cycle_query(int(spec.split("-")[1]))
    match = _PATTERN_RE.match(spec)
    if match:
        size = int(match.group(1))
        kind = match.group(2)
        if kind == "path":
            return path_query(size)
        if kind == "cycle":
            return cycle_query(size)
        if kind == "clique":
            return clique_query(size)
        if kind == "star":
            return star_query(size)
        probability = float(match.group(3) or 0.4)
        return random_pattern_query(size, probability, seed=7)
    return parse_query(spec)


def resolve_dataset(name: str, scale: float) -> Database:
    """Resolve a dataset name: a SNAP stand-in, ``imdb`` or an edge-list path."""
    if name in SNAP_DATASETS:
        return load_snap_standin(name, scale=scale)
    if name == "imdb":
        return imdb_database(scale=scale)
    return Database([load_edge_list(name)], name=name)


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True,
                        help="SNAP stand-in name, 'imdb', or a path to an edge-list file")
    parser.add_argument("--query", required=True,
                        help="query spec, e.g. '5-cycle', 'lollipop' or a datalog body")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (default 1.0)")
    parser.add_argument("--cache-capacity", type=int, default=None,
                        help="bound the adhesion cache (default: unbounded)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flexible Caching in Trie Joins (EDBT 2017) — reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run one query with one algorithm")
    _add_common_arguments(run)
    run.add_argument("--algorithm", choices=cli_algorithms(), default="clftj",
                     help="a registered algorithm, or 'auto' for cost-based selection")
    run.add_argument("--parallel", type=int, default=None, metavar="N",
                     help="run the join morsel-parallel on a persistent pool "
                          "of N workers (lftj/clftj; 0 = "
                          "automatic worker count); a request the pool would "
                          "not repay runs serial, and the 'parallel:' line "
                          "printed after the results says why")
    run.add_argument("--no-compile", action="store_true",
                     help="run the interpreted join loop instead of the "
                          "compiled driver (lftj/clftj; the differential "
                          "oracle path)")
    run.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                     help="cooperative query deadline in seconds; on expiry the "
                          "run aborts with a QueryTimeoutError (exit code 3)")
    run.add_argument("--memory-budget", type=int, default=None, metavar="BYTES",
                     help="memory budget in bytes; over-budget executions "
                          "degrade (disable adhesion caching, evict caches, "
                          "fall back serial) instead of growing further")
    run.add_argument("--mode", choices=("count", "evaluate"), default="count")
    run.add_argument("--show-rows", type=int, default=0,
                     help="print the first N result rows (needs --mode evaluate)")
    run.add_argument("--repeat", type=int, default=1,
                     help="execute the prepared query N times (plan/index caches warm up)")
    run.add_argument("--mutate", type=int, default=0, metavar="N",
                     help="insert N random fresh edges into the queried relation "
                          "between repeats (needs --repeat >= 2; exercises "
                          "delta index maintenance)")

    compare = subparsers.add_parser("compare", help="run one query with several algorithms")
    _add_common_arguments(compare)
    compare.add_argument("--algorithms", nargs="+", choices=cli_algorithms(),
                         default=["lftj", "clftj", "ytd"])

    plan = subparsers.add_parser("plan", help="show the decomposition and order CLFTJ would use")
    _add_common_arguments(plan)

    explain = subparsers.add_parser(
        "explain",
        help="show the plan, the auto selector's reasoning and the cache state",
    )
    _add_common_arguments(explain)
    explain.add_argument("--algorithm", choices=cli_algorithms(), default=AUTO_ALGORITHM,
                         help="algorithm to explain (default: auto, with selector reasoning)")
    explain.add_argument("--parallel", type=int, default=None, metavar="N",
                         help="also show the schedule --parallel N resolves "
                              "to: workers and ranges, or why it "
                              "stays serial (0 = automatic worker count; "
                              "requires a concrete --algorithm: lftj or "
                              "clftj)")
    explain.add_argument("--no-compile", action="store_true",
                         help="explain the interpreted path instead of the "
                              "compiled driver (lftj/clftj)")
    explain.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                         help="include the cooperative deadline in the explanation")
    explain.add_argument("--memory-budget", type=int, default=None, metavar="BYTES",
                         help="include the memory budget and current footprint "
                              "in the explanation")

    subparsers.add_parser("datasets", help="list the built-in dataset stand-ins")

    serve = subparsers.add_parser(
        "serve",
        help="serve the query engine over HTTP (count/evaluate/prepare/"
             "explain + /metrics and /healthz)",
    )
    serve.add_argument("--dataset", required=True,
                       help="SNAP stand-in name, 'imdb', or a path to an edge-list file")
    serve.add_argument("--scale", type=float, default=1.0,
                       help="dataset scale factor (default 1.0)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8707,
                       help="TCP port (default 8707; 0 picks a free port)")
    serve.add_argument("--max-concurrency", type=int, default=4,
                       help="concurrent query executions admitted (default 4)")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="requests allowed to wait for a slot before "
                            "shedding with 429 (default 16)")
    serve.add_argument("--queue-timeout", type=float, default=2.0,
                       help="seconds a request may wait for a slot (default 2.0)")
    serve.add_argument("--session-ttl", type=float, default=300.0,
                       help="idle seconds before a session (and its warm "
                            "caches) is evicted (default 300)")
    serve.add_argument("--default-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="cooperative deadline applied to requests that "
                            "set none (default: none)")
    serve.add_argument("--max-timeout", type=float, default=60.0,
                       metavar="SECONDS",
                       help="hard cap on per-request timeouts (default 60)")
    serve.add_argument("--memory-budget", type=int, default=None, metavar="BYTES",
                       help="memory budget in bytes; while degradation is "
                            "active the server sheds load with 503")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="graceful-shutdown drain window for in-flight "
                            "queries (default 10)")
    return parser


def _mutate_relation(database: Database, relation_name: str, count: int, rng) -> int:
    """Insert ``count`` fresh random rows into ``relation_name``; returns inserted."""
    relation = database.relation(relation_name)
    values = sorted({value for row in relation.tuples for value in row}, key=repr)
    if not values:
        raise ValueError(f"relation {relation_name!r} is empty; nothing to mutate around")
    existing = set(relation.tuples)
    rows = []
    attempts = 0
    while len(rows) < count and attempts < count * 50:
        attempts += 1
        row = tuple(rng.choice(values) for _ in range(relation.arity))
        if row not in existing:
            existing.add(row)
            rows.append(row)
    return database.insert(relation_name, rows)


def _parallel_options(args: argparse.Namespace) -> dict:
    """Engine kwargs for the CLI's --parallel and --no-compile flags.

    ``--parallel 0`` requests an automatic (cost-based) worker count; any
    positive N pins the count; omitting the flag keeps execution serial.
    """
    options: dict = {}
    parallel = getattr(args, "parallel", None)
    if parallel is not None:
        options["parallel"] = True if parallel == 0 else parallel
    # --no-compile is an explicit request, so it is passed through even for
    # algorithms that reject it — the engine's ValueError then exits with 2
    # instead of silently dropping the flag.
    if getattr(args, "no_compile", False):
        options["compile"] = False
    return options


def _apply_memory_budget(database: Database, budget: Optional[int]) -> None:
    """Attach a ``--memory-budget`` to a CLI-constructed database.

    The CLI builds its databases through the dataset resolvers, so the budget
    is applied after construction; validation mirrors the ``Database``
    constructor so bad values exit with code 2 like any other usage error.
    """
    if budget is None:
        return
    if int(budget) <= 0:
        raise ValueError("memory budget must be a positive number of bytes")
    database.memory_budget_bytes = int(budget)


def _command_run(args: argparse.Namespace) -> int:
    import random

    # A flag that cannot take effect is an error, never dropped silently
    # (the engine's own rule, ``AlgorithmSpec.reject_unused``).
    if args.mutate and args.repeat < 2:
        raise ValueError(
            f"--mutate {args.mutate} inserts rows between repeats and needs "
            f"--repeat >= 2 (got --repeat {args.repeat})"
        )
    if args.show_rows and args.mode != "evaluate":
        raise ValueError(
            f"--show-rows {args.show_rows} needs --mode evaluate "
            f"(--mode {args.mode} produces no rows)"
        )
    database = resolve_dataset(args.dataset, args.scale)
    _apply_memory_budget(database, args.memory_budget)
    query = resolve_query(args.query)
    engine = QueryEngine(database)
    parallel_options = _parallel_options(args)
    prepared = engine.prepare(query, algorithm=args.algorithm,
                              cache_capacity=args.cache_capacity,
                              timeout=args.timeout,
                              **parallel_options)
    if args.algorithm != prepared.algorithm:
        print(f"auto selected: {prepared.algorithm}\n")
    rng = random.Random(13)
    mutated_relation = query.atoms[0].relation if args.mutate else None
    results = []
    builds_after_warmup = None
    for repeat in range(max(args.repeat, 1)):
        if args.mutate and repeat > 0:
            if builds_after_warmup is None:
                builds_after_warmup = database.index_builds
            inserted = _mutate_relation(database, mutated_relation, args.mutate, rng)
            print(f"mutated {mutated_relation}: +{inserted} rows "
                  f"(version {database.relation_version(mutated_relation)})")
        results.append(prepared.count() if args.mode == "count" else prepared.evaluate())
    print(format_results(results, dataset=args.dataset))
    if "parallel" in parallel_options:
        # The schedule the last execution ran, worded as `repro explain` does.
        ran = results[-1].metadata
        if ran["parallel"]:
            print(f"\nparallel: workers={ran['workers']}, morsels={ran['morsels']}")
        else:
            print("\n" + Schedule(reason=ran["parallel_reason"]).describe())
    if args.repeat > 1:
        last = results[-1]
        print(
            f"\nrun {len(results)}: plan_cache_hits={last.metadata['plan_cache_hits']} "
            f"index_builds={last.metadata['index_builds']} "
            f"adhesion_cache_hits={last.counter.cache_hits}"
        )
        if args.mutate:
            print(
                f"updates: index_patches={database.index_patches} "
                f"index_compactions={database.index_compactions} "
                f"rebuilds_after_updates={database.index_builds - builds_after_warmup}"
            )
    if args.mode == "evaluate" and args.show_rows:
        result = results[-1]
        header = ", ".join(variable.name for variable in result.variable_order)
        print(f"\nfirst {args.show_rows} rows ({header}):")
        for row in result.head(args.show_rows):
            print("  ", row)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    database = resolve_dataset(args.dataset, args.scale)
    query = resolve_query(args.query)
    engine = QueryEngine(database)
    by_algorithm = engine.compare(query, algorithms=args.algorithms,
                                  cache_capacity=args.cache_capacity)
    results = list(by_algorithm.values())
    counts = {result.count for result in results}
    print(format_results(results, dataset=args.dataset))
    if len(counts) > 1:
        print("ERROR: algorithms disagree on the count!", file=sys.stderr)
        return 1
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    database = resolve_dataset(args.dataset, args.scale)
    query = resolve_query(args.query)
    engine = QueryEngine(database)
    plan = engine.plan(query, cache_capacity=args.cache_capacity)
    print(plan.describe())
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    database = resolve_dataset(args.dataset, args.scale)
    _apply_memory_budget(database, args.memory_budget)
    query = resolve_query(args.query)
    engine = QueryEngine(database)
    # auto + --parallel is rejected by the engine itself (the selector owns
    # auto's planning choices); the ValueError surfaces through main().
    print(engine.explain(query, algorithm=args.algorithm,
                         cache_capacity=args.cache_capacity,
                         timeout=args.timeout,
                         **_parallel_options(args)))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.server.http import create_server
    from repro.server.service import QueryService

    database = resolve_dataset(args.dataset, args.scale)
    _apply_memory_budget(database, args.memory_budget)
    service = QueryService(
        database,
        max_concurrency=args.max_concurrency,
        max_queue=args.queue_depth,
        queue_timeout=args.queue_timeout,
        session_ttl=args.session_ttl,
        default_timeout=args.default_timeout,
        max_timeout=args.max_timeout,
    )
    server = create_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving {args.dataset} on http://{host}:{port} "
          f"(max_concurrency={args.max_concurrency}, "
          f"queue_depth={args.queue_depth}, session_ttl={args.session_ttl:g}s)",
          flush=True)

    # SIGTERM/SIGINT trigger a graceful drain from a helper thread —
    # server.shutdown() must not run on the serve loop thread.
    shutdown_threads = []

    def _graceful(signum, _frame):
        def _stop():
            summary = server.shutdown_gracefully(drain_timeout=args.drain_timeout)
            print(f"shutdown: drained={summary['drained']} "
                  f"pools_closed={summary['pools_closed']}", flush=True)

        thread = threading.Thread(target=_stop, name="repro-shutdown", daemon=True)
        shutdown_threads.append(thread)
        thread.start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    try:
        server.serve_forever()
    finally:
        # serve_forever returns as soon as shutdown() lands; wait for the
        # drain thread so the summary line is printed before we exit.
        for thread in shutdown_threads:
            thread.join(timeout=args.drain_timeout + 10.0)
        server.server_close()
        if not service.draining:
            service.shutdown(drain_timeout=args.drain_timeout)
    return 0


def _command_datasets(_args: argparse.Namespace) -> int:
    records = [
        {
            "name": spec.name,
            "nodes": spec.num_nodes,
            "edges": spec.num_edges,
            "skewed": spec.skewed,
            "description": spec.description,
        }
        for spec in dataset_specs().values()
    ]
    records.append(
        {
            "name": "imdb",
            "nodes": "-",
            "edges": "~1000",
            "skewed": True,
            "description": "cast_info stand-in: male_cast / female_cast with skewed person_id",
        }
    )
    print(format_records(records))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _command_run,
        "compare": _command_compare,
        "plan": _command_plan,
        "explain": _command_explain,
        "datasets": _command_datasets,
        "serve": _command_serve,
    }
    try:
        return handlers[args.command](args)
    except QueryTimeoutError as error:
        print(f"timeout: {error}", file=sys.stderr)
        return 3
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
