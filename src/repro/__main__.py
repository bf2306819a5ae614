"""Command-line reproduction driver: ``python -m repro <artifact>``.

Regenerates the paper's artifacts at a chosen scale, through the lazy
:class:`repro.api.Study` session (shared builds) and the artifact
registry (every figure and table, text or JSON)::

    python -m repro list
    python -m repro table1 --days 60
    python -m repro table2 table3 --sites 4000          # census built once
    python -m repro all --scale bench                   # calibrated preset
    python -m repro fig5 --format json
    python -m repro fig13@days=160 table1 --days 28     # per-artifact scale
    python -m repro whatif --intervention nat64:DE --sweep

With a warehouse attached (``--store DIR`` or ``REPRO_STORE``), builds
persist and later processes warm-start from disk; ``repro store`` and
``repro serve`` manage and publish it::

    python -m repro store warm --store ./warehouse --days 14 --sites 300
    python -m repro store ls --store ./warehouse
    python -m repro serve --store ./warehouse --days 14 --sites 300
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from typing import Callable, ContextManager

from repro.api import Study, StudyConfig, jsonify, registry
from repro.api.session import OVERRIDE_KEYS
from repro.datasets.scenarios import SCALE_PRESETS

#: Keywords accepted alongside registered artifact names.
_META = ("all", "list")


def version_string() -> str:
    """The installed distribution version (``--version``), with the
    in-tree ``repro.__version__`` as the uninstalled fallback."""
    from importlib import metadata

    try:
        return metadata.version("repro-ipv6-adoption")
    except metadata.PackageNotFoundError:
        import repro

        return repro.__version__


def _log(message: str) -> None:
    """Progress and build lines go to stderr, never into the output."""
    print(message, file=sys.stderr, flush=True)


def parse_artifact_spec(value: str) -> tuple[str, dict[str, int]]:
    """Split ``name@key=value,...`` into the name and its config overrides."""
    name, _, override_text = value.partition("@")
    keys = (*OVERRIDE_KEYS, "parallel")
    overrides: dict[str, int] = {}
    if override_text:
        for item in override_text.split(","):
            key, sep, raw = item.partition("=")
            if not sep or key not in keys:
                raise ValueError(
                    f"bad override {item!r}; expected key=value with key in "
                    f"{', '.join(keys)}"
                )
            try:
                overrides[key] = int(raw)
            except ValueError:
                raise ValueError(f"override {key!r} needs an integer, got {raw!r}")
    return name, overrides


def _artifact_argument(value: str) -> str:
    """argparse type hook: reject unknown artifacts at parse time."""
    try:
        name, _ = parse_artifact_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if name not in _META and name not in registry.names():
        close = registry.suggest(name, extra=(*_META, *_SUBCOMMANDS))
        hint = (
            f"did you mean {' or '.join(repr(m) for m in close)}? "
            if close
            else ""
        )
        raise argparse.ArgumentTypeError(
            f"unknown artifact {name!r} ({hint}try: python -m repro list)"
        )
    return value


def _subcommand_argument(known: tuple[str, ...]):
    """A type hook rejecting unknown subcommands with a did-you-mean.

    argparse turns the :class:`~argparse.ArgumentTypeError` into an
    ``error()`` call, so unknown subcommands exit with status 2 -- the
    same contract misspelled artifact names get.
    """

    def check(value: str) -> str:
        if value in known:
            return value
        import difflib

        close = difflib.get_close_matches(value, known, n=3, cutoff=0.4)
        hint = (
            f"did you mean {' or '.join(repr(m) for m in close)}? "
            if close
            else ""
        )
        raise argparse.ArgumentTypeError(
            f"unknown command {value!r} ({hint}known: {', '.join(known)})"
        )

    return check


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared scale/seed knobs (artifact runs, ``store warm``, ``serve``)."""
    parser.add_argument(
        "--scale",
        choices=tuple(SCALE_PRESETS),
        default="cli",
        help="calibrated (days, sites) preset from repro.datasets.scenarios: "
        + "; ".join(
            f"{p.name} = {p.days}d/{p.sites} sites ({p.purpose})"
            for p in SCALE_PRESETS.values()
        )
        + " -- explicit --days/--sites override the preset",
    )
    parser.add_argument("--days", type=int, default=None,
                        help="traffic observation days (paper: 273); "
                        "overrides --scale")
    parser.add_argument("--sites", type=int, default=None,
                        help="census top-list size (paper: 100000); "
                        "overrides --scale")
    parser.add_argument("--seed", type=int, default=42, help="scenario seed")
    parser.add_argument("--link-clicks", type=int, default=5,
                        help="same-site link clicks per crawled site")
    parser.add_argument("--parallel", type=int, default=None,
                        help="worker processes for the traffic and observatory "
                        "fan-outs (default: auto-detect; 0 or 1 forces "
                        "sequential)")
    parser.add_argument("--probe-targets", type=int, default=500,
                        help="top-ranked sites each observatory vantage probes")
    parser.add_argument("--probe-interval-days", type=int, default=14,
                        help="days between observatory probe rounds")
    parser.add_argument("--intervention", action="append", default=None,
                        metavar="SPEC",
                        help="what-if scenario for the whatif artifacts, e.g. "
                        "nat64:DE or dualstack:Amazon+ispv6 (repeatable; "
                        "default: the built-in grid)")
    parser.add_argument("--sweep", action="store_true",
                        help="expand --intervention specs into the "
                        "combination grid (each alone plus every pair)")


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact warehouse directory: layers and rendered artifacts "
        "persist there and later runs warm-start from disk "
        "(default: $REPRO_STORE when set)",
    )


def _add_version_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {version_string()}"
    )


def _config_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> StudyConfig:
    """The effective StudyConfig of parsed scale flags (shared paths)."""
    preset = SCALE_PRESETS[args.scale]
    if args.sweep and not args.intervention:
        parser.error(
            "--sweep expands --intervention specs into a combination grid; "
            "give at least one --intervention (or omit --sweep to run the "
            "built-in default grid)"
        )
    try:
        whatif_scenarios = None
        if args.intervention:
            if args.sweep:
                from repro.whatif.sweep import sweep_grid

                whatif_scenarios = tuple(
                    scenario.spec() for scenario in sweep_grid(args.intervention)
                )
            else:
                whatif_scenarios = tuple(args.intervention)
        return StudyConfig(
            days=args.days if args.days is not None else preset.days,
            sites=args.sites if args.sites is not None else preset.sites,
            seed=args.seed,
            link_clicks=args.link_clicks,
            parallel=args.parallel,
            probe_targets=args.probe_targets,
            probe_interval_days=args.probe_interval_days,
            whatif_scenarios=whatif_scenarios,
        )
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")  # pragma: no cover


def _activate_store(
    args: argparse.Namespace, parser: argparse.ArgumentParser, required: bool = False
):
    """Resolve ``--store`` / ``REPRO_STORE`` into the active store."""
    from repro.store import set_store
    from repro.store.warehouse import active_store

    if args.store:
        return set_store(args.store)
    store = active_store()  # REPRO_STORE, when set
    if store is None and required:
        parser.error(
            "no store directory: pass --store DIR or set REPRO_STORE"
        )
    return store


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of 'Towards a Non-Binary View of "
        "IPv6 Adoption' (IMC 2025) at a chosen scale.",
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        type=_artifact_argument,
        metavar="artifact",
        help="artifact names ('list' to enumerate, 'all' for everything); "
        "append @key=value,... for per-artifact scale overrides",
    )
    _add_scale_arguments(parser)
    _add_store_argument(parser)
    _add_version_argument(parser)
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--telemetry-json", default=None, metavar="PATH",
                        help="after the run, dump the telemetry snapshot "
                        "(metrics + the run's span tree) as JSON to PATH")
    return parser


def _render_list(fmt: str) -> str:
    specs = registry.specs()
    if fmt == "json":
        return json.dumps(
            [
                {
                    "name": spec.name,
                    "needs": sorted(spec.needs),
                    "paper": spec.paper,
                    "description": spec.description,
                }
                for spec in specs
            ],
            indent=2,
        )
    from repro.util.tables import TextTable

    table = TextTable(
        ["artifact", "needs", "paper", "description"],
        title=f"{len(specs)} registered artifacts",
    )
    for spec in specs:
        table.add_row([
            spec.name,
            ",".join(sorted(spec.needs)) or "-",
            spec.paper,
            spec.description,
        ])
    return table.render()


def main(argv: list[str] | None = None) -> int:
    """Run one ``repro`` command.  A reader that closes stdout early
    (``repro list | head -1``) ends it with status 1 and no traceback."""
    try:
        status = _run(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The interpreter flushes stdout again on exit: point it at
        # /dev/null so that flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _run(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    requested = list(dict.fromkeys(args.artifacts))

    if any(parse_artifact_spec(item)[0] == "list" for item in requested):
        if len(requested) > 1:
            parser.error("'list' cannot be combined with artifact names")
        print(_render_list(args.format))
        return 0

    _activate_store(args, parser)
    base = _config_from_args(args, parser)

    # Expand "all" in place, keeping explicit (possibly overridden) entries.
    expanded: list[str] = []
    for item in requested:
        name, overrides = parse_artifact_spec(item)
        if name == "all":
            suffix = item.partition("@")[2]
            expanded.extend(
                f"{artifact_name}@{suffix}" if suffix else artifact_name
                for artifact_name in registry.names()
            )
        else:
            expanded.append(item)
    expanded = list(dict.fromkeys(expanded))

    from repro.telemetry import span

    studies: dict[StudyConfig, Study] = {}
    results: list[tuple[str, StudyConfig, object]] = []
    with span("cli:run", artifacts=len(expanded), scale=args.scale):
        for item in expanded:
            name, overrides = parse_artifact_spec(item)
            try:
                config = base.replace(**overrides) if overrides else base
            except ValueError as exc:
                parser.error(f"{item}: {exc}")
            study = studies.setdefault(config, Study(config, log=_log))
            results.append((item, config, study.artifact(name)))

    if args.format == "json":
        # Keyed by the requested spec (unique after dedup), each entry
        # carrying the config it was actually computed at, so per-artifact
        # overrides stay attributable.
        document = {
            "config": jsonify(dataclasses.asdict(base)),
            "artifacts": {
                item: {
                    "config": jsonify(dataclasses.asdict(config)),
                    **result.to_dict(),
                }
                for item, config, result in results
            },
        }
        print(json.dumps(document, indent=2))
    else:
        for index, (_, _, result) in enumerate(results):
            if index:
                print("\n" + "=" * 72 + "\n")
            print(result.to_text())
    if args.telemetry_json:
        from pathlib import Path

        from repro.telemetry import telemetry_document

        Path(args.telemetry_json).write_text(
            json.dumps(telemetry_document(), indent=2) + "\n"
        )
        _log(f"# telemetry: wrote {args.telemetry_json}")
    return 0


def _entry_age_s(created_at: str) -> float | None:
    """Seconds since a store entry's ``created_at`` stamp (``None`` if odd).

    Operator-facing output only (``store ls``): the age never enters
    artifact bytes, digests, or cache keys.
    """
    from datetime import datetime, timezone

    try:
        created = datetime.fromisoformat(created_at)
    except (TypeError, ValueError):
        return None
    if created.tzinfo is None:
        created = created.replace(tzinfo=timezone.utc)
    # replint: allow[REP001] operator-facing entry age in store ls output only
    return max(0.0, round((datetime.now(timezone.utc) - created).total_seconds(), 1))


def _format_age(age_s: float) -> str:
    """``93784.0`` -> ``"1d2h"``; coarse on purpose (a listing, not a log)."""
    if age_s < 60:
        return f"{int(age_s)}s"
    if age_s < 3600:
        return f"{int(age_s // 60)}m{int(age_s % 60)}s"
    if age_s < 86400:
        return f"{int(age_s // 3600)}h{int(age_s % 3600 // 60)}m"
    return f"{int(age_s // 86400)}d{int(age_s % 86400 // 3600)}h"


def _sentinel_main(argv: list[str]) -> int:
    """``python -m repro sentinel`` -- the significance event feed."""
    from repro.sentinel.config import SEVERITIES, keeps_event

    parser = argparse.ArgumentParser(
        prog="repro sentinel",
        description="Scan the study's adoption time series (availability, "
        "takeoff, readiness, usage, heavy-hitter mix) for significant "
        "deviations against trailing baselines and print the event feed. "
        "An empty feed means nothing deviated: silence is valid data.",
    )
    parser.add_argument("--since", type=int, default=0, metavar="N",
                        help="only events on or after day N (default: 0)")
    parser.add_argument("--country", default=None, metavar="CC",
                        help="filter to one country code ('*' selects the "
                        "fleet-wide signals)")
    parser.add_argument("--min-severity", choices=SEVERITIES,
                        default=SEVERITIES[0],
                        help="drop events below this severity")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output shape (default: text)")
    _add_store_argument(parser)
    _add_version_argument(parser)
    _add_scale_arguments(parser)
    args = parser.parse_args(argv)
    if args.since < 0:
        parser.error("--since must be >= 0")
    country = args.country.strip().upper() if args.country else None
    _activate_store(args, parser)
    config = _config_from_args(args, parser)
    feed = Study(config, log=_log).sentinel
    events = [
        event
        for event in feed.events
        if keeps_event(
            event.day, event.scope, event.severity,
            args.since, country, args.min_severity,
        )
    ]
    if args.format == "json":
        document = {
            "config": jsonify(dataclasses.asdict(config)),
            "since": args.since,
            "country": country,
            "min_severity": args.min_severity,
            "count": len(events),
            "events": [jsonify(dataclasses.asdict(event)) for event in events],
            "signals": list(feed.signals),
            "scopes": list(feed.scopes),
            "points": feed.points,
            "thresholds": jsonify(dataclasses.asdict(feed.config)),
        }
        print(json.dumps(document, indent=2))
        return 0
    from repro.util.tables import TextTable

    table = TextTable(
        ["day", "signal", "scope", "severity", "dir", "value", "baseline", "z"],
        title="Sentinel — significant deviations vs trailing baselines",
    )
    for event in events:
        table.add_row([
            str(event.day), event.signal, event.scope, event.severity,
            event.direction, f"{event.value:.4f}", f"{event.baseline:.4f}",
            f"{event.z:+.2f}",
        ])
    print(table.render())
    print(
        f"{len(events)} event(s) shown of {len(feed.events)} emitted over "
        f"{feed.points} series points; silence is valid data"
    )
    return 0


def _capture_parser(
    command: str, description: str, formats: tuple[str, ...]
) -> argparse.ArgumentParser:
    """The parser ``repro trace`` and ``repro prof`` share."""
    parser = argparse.ArgumentParser(prog=f"repro {command}", description=description)
    parser.add_argument("artifacts", nargs="*", metavar="artifact",
                        help="artifact names to run (default: all)")
    parser.add_argument("--format", choices=formats, default=formats[0],
                        help=f"export shape (default: {formats[0]})")
    parser.add_argument("--output", "-o", default=None, metavar="PATH",
                        help="write the JSON here instead of stdout")
    _add_store_argument(parser)
    _add_version_argument(parser)
    _add_scale_arguments(parser)
    return parser


def _run_captured(
    command: str, args: argparse.Namespace, parser: argparse.ArgumentParser,
    export: Callable[[list], dict], capture: ContextManager = contextlib.nullcontext(),
) -> int:
    """Run the chosen artifacts inside ``capture`` and a ``<command>:run``
    span, then write ``export(roots)`` as JSON to ``--output`` or stdout."""
    names = list(dict.fromkeys(args.artifacts)) or registry.names()
    unknown = [name for name in names if name not in registry.names()]
    if unknown:
        parser.error(f"unknown artifacts: {', '.join(unknown)} (try: python -m repro list)")
    _activate_store(args, parser)
    config = _config_from_args(args, parser)

    from repro.telemetry import recent_spans, reset_trace, span

    reset_trace()  # export exactly this run, not whatever came before
    study = Study(config, log=_log)
    with capture, span(f"{command}:run", artifacts=len(names), scale=args.scale):
        for name in names:
            study.artifact(name)
    text = json.dumps(export(recent_spans()), indent=2)
    if not args.output:
        print(text)
        return 0
    from pathlib import Path

    Path(args.output).write_text(text + "\n")
    _log(f"# {command}: wrote {args.format} JSON to {args.output}")
    return 0


def _trace_main(argv: list[str]) -> int:
    """``python -m repro trace`` -- run artifacts under the span tracer."""
    parser = _capture_parser(
        "trace",
        "Run artifacts and export the build span tree -- compact "
        "JSON (--format tree) or chrome://tracing Trace Event Format "
        "(--format chrome; load the file via the tracing UI or Perfetto).",
        ("tree", "chrome"),
    )
    args = parser.parse_args(argv)

    from repro.telemetry import chrome_trace, span_tree

    def export(roots: list) -> dict:
        if args.format == "chrome":
            return chrome_trace(roots)
        return {"spans": [span_tree(root) for root in roots]}

    return _run_captured("trace", args, parser, export)


def _prof_main(argv: list[str]) -> int:
    """``python -m repro prof`` -- run artifacts under span profiling."""
    parser = _capture_parser(
        "prof",
        "Run artifacts with span-scoped CPU profiling and "
        "export the deterministic call trees -- compact JSON "
        "(--format tree) or speedscope flamegraph format "
        "(--format speedscope; load the file at speedscope.app).",
        ("tree", "speedscope"),
    )
    parser.add_argument("--spans", default="artifact:*", metavar="P1,P2,...",
                        help="span-name patterns to capture (exact names or "
                        "trailing-* prefixes; default: artifact:*)")
    parser.add_argument("--memory", action="store_true",
                        help="also capture tracemalloc peaks on build spans "
                        "(build_peak_bytes{layer} + Span.peak_bytes)")
    args = parser.parse_args(argv)
    patterns = tuple(part for part in args.spans.split(",") if part)
    if not patterns:
        parser.error("--spans needs at least one pattern")

    from repro.prof import profile_entries, profiled_spans, profiling, speedscope_document

    def export(roots: list) -> dict:
        captured = profiled_spans(roots)
        if not captured:
            _log(f"# prof: no spans matched {args.spans!r} -- "
                 "try --spans 'artifact:*' or 'build:*'")
        if args.format == "speedscope":
            return speedscope_document([(node.name, node.profile) for node in captured])
        return {"spans": list(patterns), "count": len(captured),
                "profiles": profile_entries(captured)}

    capture = profiling(spans=patterns, memory=args.memory)
    return _run_captured("prof", args, parser, export, capture)


def _store_main(argv: list[str]) -> int:
    """``python -m repro store {ls,verify,gc,warm}`` -- warehouse ops."""
    from repro.store.warehouse import DEFAULT_SNAPSHOT_LAYERS

    parser = argparse.ArgumentParser(
        prog="repro store",
        description="Inspect and maintain the on-disk artifact warehouse.",
    )
    parser.add_argument(
        "command",
        type=_subcommand_argument(("ls", "verify", "gc", "warm")),
        metavar="command",
        help="ls (list entries) | verify (integrity-check every entry) | "
        "gc (drop broken/stale entries, rebuild the index) | "
        "warm (build a configuration's layers + artifacts into the store)",
    )
    _add_store_argument(parser)
    _add_version_argument(parser)
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="ls output format (default: text)")
    parser.add_argument(
        "--layers",
        default=None,
        metavar="L1,L2,...",
        help="warm: layers to persist (default: "
        f"{','.join(DEFAULT_SNAPSHOT_LAYERS)}; add whatif for the sweep)",
    )
    parser.add_argument(
        "--artifacts",
        default="all",
        metavar="NAME1,NAME2,...|all|none",
        help="warm: rendered artifacts to persist (default: all)",
    )
    _add_scale_arguments(parser)
    args = parser.parse_args(argv)
    store = _activate_store(args, parser, required=True)
    if args.command in ("ls", "verify", "gc") and not store.exists:
        # A read-only command on a mistyped path must not silently
        # "verify" a store that was never written (and must not create
        # one as a side effect).
        parser.error(
            f"no store at {store.root} (build one with 'repro store warm')"
        )

    if args.command == "ls":
        entries = sorted(store.entries(), key=lambda e: (e.kind, e.name, e.digest))
        # The index totals come off the registry gauges the warehouse
        # maintains (refreshed here so a read-only process adopts the
        # on-disk index), not from a second objects/ rescan.
        indexed_entries, indexed_bytes, _ = store.refresh_gauges()
        if args.format == "json":
            print(json.dumps(
                {
                    "root": str(store.root),
                    "indexed_entries": indexed_entries,
                    "indexed_bytes": indexed_bytes,
                    "entries": [
                        {
                            "digest": entry.digest,
                            "kind": entry.kind,
                            "name": entry.name,
                            "key": entry.key,
                            "bytes": entry.total_bytes,
                            "created_at": entry.created_at,
                            "age_s": _entry_age_s(entry.created_at),
                            "repro_version": entry.repro_version,
                        }
                        for entry in entries
                    ],
                },
                indent=2,
            ))
            return 0
        from repro.util.tables import TextTable

        table = TextTable(
            ["kind", "name", "digest", "bytes", "created", "age"],
            title=f"{store.root} -- {indexed_entries} indexed entries, "
            f"{indexed_bytes:,} bytes",
        )
        for entry in entries:
            age = _entry_age_s(entry.created_at)
            table.add_row([
                entry.kind, entry.name, entry.digest[:12],
                f"{entry.total_bytes:,}", entry.created_at,
                "?" if age is None else _format_age(age),
            ])
        print(table.render())
        return 0

    if args.command == "verify":
        problems = store.verify()
        for problem in problems:
            print(f"store verify: {problem}", file=sys.stderr)
        print(
            f"store verify: {len(store.entries())} entries, "
            f"{len(problems)} problem(s)"
        )
        return 1 if problems else 0

    if args.command == "gc":
        removed = store.gc()
        for item in removed:
            print(f"store gc: removed {item}")
        print(f"store gc: {len(removed)} removed, "
              f"{len(store.entries())} entries kept")
        return 0

    # warm: build the configuration into the store, layers then artifacts.
    from repro.serve.service import artifact_document
    from repro.store import artifact_key, snapshot_study

    config = _config_from_args(args, parser)
    layers = (
        tuple(part for part in args.layers.split(",") if part)
        if args.layers is not None
        else DEFAULT_SNAPSHOT_LAYERS
    )
    artifact_names: list[str] = []
    if args.artifacts == "all":
        artifact_names = registry.names()
    elif args.artifacts != "none":
        artifact_names = [part for part in args.artifacts.split(",") if part]
        unknown = [name for name in artifact_names if name not in registry.names()]
        if unknown:
            parser.error(f"unknown artifacts: {', '.join(unknown)}")

    study = Study(config, log=_log)
    try:
        entries = snapshot_study(store, study, layers)
    except ValueError as exc:
        parser.error(str(exc))
    for layer, entry in entries.items():
        _log(f"# stored {layer}: {entry.digest[:12]} ({entry.total_bytes:,} bytes)")
    for name in artifact_names:
        store.save_artifact(name, artifact_key(config, name),
                            artifact_document(study, name))
    _log(
        f"# warm: {len(entries)} layers + {len(artifact_names)} artifacts -> "
        f"{store.root} ({store.total_bytes():,} bytes)"
    )
    return 0


def _resilience_main(argv: list[str]) -> int:
    """``python -m repro resilience drill`` -- the scripted chaos drill."""
    parser = argparse.ArgumentParser(
        prog="repro resilience",
        description="Chaos-drill the stack under a seeded fault plan: "
        "zero 5xx for warehouse-backed artifacts, zero data corruption, "
        "crashed-pool builds bit-identical to fault-free ones.",
    )
    parser.add_argument(
        "command",
        type=_subcommand_argument(("drill",)),
        metavar="command",
        help="drill (run the scripted chaos scenario; exits 1 on any "
        "violated resilience property)",
    )
    parser.add_argument("--seed", type=int, default=7,
                        help="fault-plan seed (same seed = same schedule; "
                        "default: 7)")
    parser.add_argument("--days", type=int, default=4,
                        help="traffic days of the drill scenario (default: 4)")
    parser.add_argument("--sites", type=int, default=110,
                        help="census sites of the drill scenario (default: 110)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="scratch warehouse directory for the drill "
                        "(default: a temp directory, removed afterwards)")
    _add_version_argument(parser)
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    args = parser.parse_args(argv)

    from repro.resilience.drill import run_drill

    report = run_drill(
        seed=args.seed, days=args.days, sites=args.sites, store_root=args.store
    )
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        pool = report["pool_crash"]
        chaos = report["serve_chaos"]
        print(f"resilience drill (seed {report['seed']}):")
        print(
            f"  pool crash: {pool['faults_fired']} worker crash(es), "
            f"{len(pool['resubmitted_shards'])} recovery wave(s), "
            f"bit-identical: {pool['bit_identical']}"
        )
        print(
            f"  serve chaos: {chaos['requests']} requests, "
            f"faults fired: {chaos['faults_fired']}, "
            f"stale served: {chaos['stale_served']}, "
            f"store damage: {chaos['store_verify_problems']}"
        )
        print(f"  ok: {report['ok']}")
    for problem in report["problems"]:
        print(f"resilience drill: {problem}", file=sys.stderr)
    return 0 if report["ok"] else 1


def _serve_main(argv: list[str]) -> int:
    """``python -m repro serve`` -- the asyncio HTTP serving layer."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve the artifact registry over HTTP (read-only JSON "
        "API with ETag revalidation), backed by the warehouse.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080,
                        help="bind port (default: 8080; 0 picks a free port)")
    parser.add_argument("--no-warm", action="store_true",
                        help="skip the background warmer (artifacts render "
                        "on first request instead)")
    parser.add_argument("--profile", nargs="?", const=",".join((
                        "build:*", "sweep:*", "serve:request")),
                        default=None, metavar="P1,P2,...",
                        help="enable span-scoped CPU profiling for these "
                        "span patterns (default when given bare: "
                        "build:*,sweep:*,serve:request) plus tracemalloc "
                        "peaks on build spans; captures serve at "
                        "/v1/profile")
    _add_store_argument(parser)
    _add_version_argument(parser)
    _add_scale_arguments(parser)
    args = parser.parse_args(argv)
    store = _activate_store(args, parser)
    config = _config_from_args(args, parser)

    if args.profile is not None:
        from repro.prof import enable_profiling

        patterns = tuple(part for part in args.profile.split(",") if part)
        if not patterns:
            parser.error("--profile needs at least one span pattern")
        enable_profiling(spans=patterns, memory=True)

    from repro.serve import ArtifactService, run_server

    service = ArtifactService(config, store=store)
    return run_server(
        service, args.host, args.port, warm=not args.no_warm, log=_log
    )


def _lint_main(argv: list[str]) -> int:
    """``python -m repro lint`` -- the replint static analyzer."""
    from repro.devtools.lint.cli import main as lint_main

    return lint_main(argv)


#: Subcommands, dispatched before artifact parsing (and offered by the
#: did-you-mean hint when a first argument matches nothing).
_SUBCOMMANDS = {
    "store": _store_main,
    "serve": _serve_main,
    "lint": _lint_main,
    "resilience": _resilience_main,
    "sentinel": _sentinel_main,
    "trace": _trace_main,
    "prof": _prof_main,
}


if __name__ == "__main__":
    raise SystemExit(main())
