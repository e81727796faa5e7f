"""Command-line interface.

Installed as the ``boolgebra`` console script (also runnable via
``python -m repro.cli``).  The sub-commands are thin layers over the
:class:`repro.engine.Engine` facade and the pass registry, covering the
everyday workflows of the library without writing Python:

``stats``
    Print size / depth / interface statistics of a netlist (or a registered
    benchmark).
``optimize``
    Run an optimization script (``"rw; rs -K 8; b; rw -z"`` — the registered
    passes with ABC-style options) and write the optimized netlist.
``orchestrate``
    Run the paper's Algorithm 1 under a decision vector read from CSV, or
    under a freshly sampled random / priority-guided assignment.
``sample``
    Draw and evaluate a batch of decision vectors (optionally in parallel
    across worker processes) and write their quality-of-results (and
    optionally the vectors themselves) to CSV.
``passes``
    List the registered optimization passes and their script options.
``backends``
    List the registered compute backends, the per-op implementation each
    would use on this install, and which backend is currently selected
    (``--json`` for machine-readable output).
``benchmarks``
    List the registered benchmark designs and their statistics.
``cache``
    Inspect (``info``) or wipe (``clear``) the content-addressed artifact
    store that caches evaluated sample batches, built datasets and trained
    model checkpoints.
``serve``
    Run the batched, cache-coalescing synthesis service: a bounded priority
    queue with request coalescing and backpressure, a crash-isolated worker
    pool and a stdlib JSON HTTP front end (see :mod:`repro.service`).
``submit``
    Submit one job — to a running server (``--url``) or to an ephemeral
    in-process service — and optionally wait for and print its result.
    Failed jobs are reported with their structured diagnostics (worker
    crash exit code, expired timeout), not just an error string.
``route``
    Run the cluster router: shard jobs across N running service instances
    by consistent-hashing their coalescing keys, with health-checked
    membership, failover and fleet-aggregated metrics
    (see :mod:`repro.service.cluster`).
``loadgen``
    Drive a service or router URL with synthetic, Zipf-distributed
    duplicate-heavy load and print the throughput/latency report
    (see :mod:`repro.service.loadgen`).
``trace``
    Run one traced pipeline locally — or submit one traced job to a running
    service/router URL — and print the span tree (or export Chrome-trace
    JSON via ``--out``).  See :mod:`repro.obs` and the README's
    Observability section.

``stats`` and ``benchmarks`` accept ``--json`` for machine-readable output,
so service tooling can consume them without screen-scraping the tables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.circuits.benchmarks import BENCHMARK_SPECS, available_benchmarks, load_benchmark
from repro.engine.engine import Engine, load_design, save_design
from repro.engine.evaluator import get_evaluator
from repro.engine.pipeline import Pipeline
from repro.engine.registry import iter_passes
from repro.flow.reporting import format_table
from repro.orchestration.decision import DecisionVector
from repro.orchestration.sampling import PriorityGuidedSampler, RandomSampler


# --------------------------------------------------------------------------- #
# Sub-commands
# --------------------------------------------------------------------------- #
def _cmd_stats(args: argparse.Namespace) -> int:
    engine = Engine.load(args.design)
    stats = engine.stats()
    if args.json:
        print(json.dumps({"design": engine.name, **stats}, sort_keys=True))
        return 0
    print(
        format_table(
            headers=["design", "PIs", "POs", "ANDs", "depth"],
            rows=[[engine.name, stats["pis"], stats["pos"], stats["ands"], stats["depth"]]],
            title="Design statistics",
        )
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    engine = Engine.load(args.design)
    pipeline = Pipeline.parse(args.script)
    rows = [["original", engine.size, engine.aig.depth(), "-"]]
    report = engine.run(pipeline, verify=args.verify)
    for stats in report.pass_stats:
        rows.append(
            [stats.name, stats.size_after, stats.depth_after, f"{stats.runtime_seconds:.2f}s"]
        )
    if args.verify:
        if not report.equivalent:
            print("error: optimized network is NOT equivalent to the original", file=sys.stderr)
            return 1
        rows.append(["equivalence check", "OK", "", ""])
    print(
        format_table(
            headers=["step", "ANDs", "depth", "runtime"],
            rows=rows,
            title=f"Optimization of {engine.name}",
        )
    )
    if args.output:
        engine.save(args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_orchestrate(args: argparse.Namespace) -> int:
    from repro.aig.equivalence import check_equivalence
    from repro.orchestration.orchestrate import orchestrate

    engine = Engine.load(args.design)
    aig = engine.aig
    if args.decisions:
        decisions = DecisionVector.from_csv(args.decisions)
    elif args.guided:
        decisions = PriorityGuidedSampler(aig, seed=args.seed).base_sample()
    else:
        decisions = RandomSampler(aig, seed=args.seed).sample()
    original = aig.copy() if args.verify else None
    result = orchestrate(aig, decisions)
    print(result)
    if args.verify and not check_equivalence(original, aig):
        print("error: orchestrated network is NOT equivalent to the original", file=sys.stderr)
        return 1
    if args.output:
        engine.save(args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    engine = Engine.load(args.design)
    aig = engine.aig
    if args.guided:
        sampler = PriorityGuidedSampler(aig, seed=args.seed)
    else:
        sampler = RandomSampler(aig, seed=args.seed)
    vectors = sampler.generate(args.num_samples)
    records = get_evaluator(args.jobs).evaluate(aig, vectors)
    rows = []
    for index, record in enumerate(records):
        rows.append([index, record.size_after, record.reduction])
    print(
        format_table(
            headers=["sample", "size after", "reduction"],
            rows=rows,
            title=(
                f"{'Guided' if args.guided else 'Random'} sampling on {aig.name} "
                f"(original size {aig.size})"
            ),
        )
    )
    if args.output:
        with open(args.output, "w", encoding="ascii") as handle:
            handle.write("sample,size_after,reduction\n")
            for index, record in enumerate(records):
                handle.write(f"{index},{record.size_after},{record.reduction}\n")
        print(f"wrote {args.output}")
    if args.save_decisions:
        os.makedirs(args.save_decisions, exist_ok=True)
        for index, vector in enumerate(vectors):
            vector.to_csv(os.path.join(args.save_decisions, f"sample_{index:04d}.csv"))
        print(f"wrote {len(vectors)} decision vectors to {args.save_decisions}")
    return 0


def _cmd_passes(args: argparse.Namespace) -> int:
    rows = []
    for pass_cls in sorted(iter_passes(), key=lambda cls: cls.name):
        options = ", ".join(
            f"{option.flag}" + ("" if option.type is bool else f" <{option.dest}>")
            for option in pass_cls.options
        )
        rows.append(
            [pass_cls.name, ", ".join(pass_cls.aliases) or "-", options or "-", pass_cls.summary]
        )
    print(
        format_table(
            headers=["pass", "aliases", "options", "summary"],
            rows=rows,
            title="Registered optimization passes",
        )
    )
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.backend import (
        ENV_VAR,
        available_backends,
        create_backend,
        get_backend,
    )

    selected = get_backend()
    names = available_backends()
    payload = {
        "selected": selected.name,
        "env_var": ENV_VAR,
        "env_value": os.environ.get(ENV_VAR),
        "backends": {},
    }
    for name in names:
        backend = create_backend(name)
        info = {"ops": backend.op_support()}
        engine_name = getattr(backend, "engine_name", None)
        if engine_name is not None:
            # The native backend also reports its resolved compiled engine
            # ("cc"), or null when it degraded to the reference code.
            info["engine"] = engine_name()
        payload["backends"][name] = info
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = []
    # Union over the backends: capability ops beyond the portable vocabulary
    # (e.g. the native whole-snapshot cuts) still get a table row.
    ops = sorted({op for info in payload["backends"].values() for op in info["ops"]})
    for op in ops:
        rows.append([op] + [payload["backends"][name]["ops"].get(op, "-") for name in names])
    print(
        format_table(
            headers=["op"] + names,
            rows=rows,
            title="Registered compute backends (per-op implementation)",
        )
    )
    marker = f" (${ENV_VAR}={payload['env_value']})" if payload["env_value"] else ""
    print(f"\nselected backend: {selected.name}{marker}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.store.artifacts import KINDS, ArtifactStore

    store = ArtifactStore(args.store)
    if args.action == "info":
        report = store.info()
        rows = [
            [kind, report[kind]["entries"], report[kind]["bytes"]] for kind in KINDS
        ]
        rows.append(
            [
                "total",
                sum(entry["entries"] for entry in report.values()),
                sum(entry["bytes"] for entry in report.values()),
            ]
        )
        print(
            format_table(
                headers=["kind", "entries", "bytes"],
                rows=rows,
                title=f"Artifact store at {store.root}",
            )
        )
    else:  # clear
        removed = store.clear(args.kind)
        scope = args.kind or "all kinds"
        print(f"removed {removed} artifacts ({scope}) from {store.root}")
    return 0


def _cmd_benchmarks(args: argparse.Namespace) -> int:
    entries = []
    for name in available_benchmarks():
        spec = BENCHMARK_SPECS[name]
        entry = {"name": name, "kind": spec.kind, "target_size": spec.target_size}
        if args.generate:
            aig = load_benchmark(name)
            entry["ands"] = aig.size
            entry["depth"] = aig.depth()
        entries.append(entry)
    if args.json:
        print(json.dumps(entries, sort_keys=True))
        return 0
    rows = [
        [
            entry["name"],
            entry["kind"],
            entry["target_size"],
            entry.get("ands", "-"),
            entry.get("depth", "-"),
        ]
        for entry in entries
    ]
    print(
        format_table(
            headers=["name", "kind", "target ANDs", "generated ANDs", "depth"],
            rows=rows,
            title="Registered benchmark designs",
        )
    )
    return 0


# --------------------------------------------------------------------------- #
# Service sub-commands
# --------------------------------------------------------------------------- #
def _serve_until_terminated(server, port_file: Optional[str]) -> None:
    """Run ``server.serve_forever()`` until SIGTERM or Ctrl-C.

    SIGTERM raises :class:`KeyboardInterrupt` like Ctrl-C, so the server
    drains and the caller can report.  ``port_file`` receives the bound port
    as one ``"<port>\\n"`` line, which scripts wait for before connecting.
    """
    import signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    if port_file:
        with open(port_file, "w", encoding="ascii") as handle:
            handle.write(f"{server.port}\n")
    sys.stdout.flush()
    server.serve_forever()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceServer, SynthesisService

    service = SynthesisService(
        num_workers=args.workers,
        max_depth=args.queue_size,
        store=args.store,
        mode=args.mode,
        default_timeout=args.timeout,
    )
    server = ServiceServer(service, host=args.host, port=args.port)
    print(f"serving on {server.url} ({args.workers} workers, queue {args.queue_size})")
    _serve_until_terminated(server, args.port_file)
    if args.report:
        from repro.service.metrics import format_series_report

        snapshot = service.metrics_snapshot()
        gauges = service.scheduler.gauges()
        gauges.update(service.pool.gauges())
        print()
        print(service.metrics.format_report(gauges))
        print()
        print(format_series_report(snapshot.get("series", {})))
    return 0


def _build_job_spec(args: argparse.Namespace) -> dict:
    options = {}
    if args.option:
        for item in args.option:
            if "=" not in item:
                raise ValueError(f"--option expects key=value, got {item!r}")
            key, _, raw = item.partition("=")
            try:
                options[key] = json.loads(raw)
            except json.JSONDecodeError:
                options[key] = raw  # bare strings need no quoting
    if args.script is not None:
        options["script"] = args.script
    spec = {
        "kind": args.kind,
        "design": args.design,
        "options": options,
        "priority": args.priority,
    }
    if args.timeout is not None:
        spec["timeout_seconds"] = args.timeout
    return spec


def _describe_job_failure(error) -> str:
    """One actionable line for a failed job: what died, and how.

    Uses the structured diagnostics on the job snapshot (``failure_kind``,
    ``exit_code``, ``timeout_limit``) so a worker crash or an expired timeout
    is distinguishable from an ordinary execution error.
    """
    snapshot = error.payload if isinstance(error.payload, dict) else {}
    job_id = error.job_id or snapshot.get("job_id") or "<unknown>"
    kind = snapshot.get("failure_kind") or "error"
    detail = snapshot.get("error") or str(error)
    if kind == "crash":
        exit_code = snapshot.get("exit_code")
        suffix = f" (worker exit code {exit_code})" if exit_code is not None else ""
        return f"job {job_id} failed: worker process crashed{suffix} — {detail}"
    if kind == "timeout":
        limit = snapshot.get("timeout_limit")
        suffix = f" after its {limit:.1f}s timeout" if limit is not None else ""
        return f"job {job_id} failed: execution timed out{suffix} — {detail}"
    if snapshot.get("state") == "cancelled":
        return f"job {job_id} was cancelled"
    return f"job {job_id} failed: {detail}"


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import (
        HttpServiceClient,
        InProcessClient,
        JobFailedError,
        JobSpec,
        ServiceError,
        SynthesisService,
    )

    spec = JobSpec.from_dict(_build_job_spec(args))
    try:
        if args.url:
            client = HttpServiceClient(args.url)
            submitted = client.submit(spec)
            if not args.wait:
                print(json.dumps(submitted, sort_keys=True))
                return 0
            payload = client.result(submitted["job_id"], timeout=args.result_timeout)
            print(json.dumps(payload, sort_keys=True))
            return 0
        # No URL: run the job on an ephemeral in-process service.
        with SynthesisService(num_workers=args.workers, store=args.store) as service:
            in_process = InProcessClient(service)
            submitted = in_process.submit(spec)
            payload = in_process.result(submitted["job_id"], timeout=args.result_timeout)
        print(json.dumps(payload, sort_keys=True))
        return 0
    except JobFailedError as error:
        print(f"error: {_describe_job_failure(error)}", file=sys.stderr)
        return 1
    except TimeoutError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ServiceError as error:
        print(f"error: {error} [{error.code}]", file=sys.stderr)
        return 1


def _parse_shards(entries: List[str]) -> dict:
    """``name=url`` or bare URL shard arguments to an ordered mapping."""
    shards = {}
    for index, entry in enumerate(entries):
        if "=" in entry and not entry.split("=", 1)[0].startswith("http"):
            name, _, url = entry.partition("=")
        else:
            name, url = f"shard-{index}", entry
        if name in shards:
            raise ValueError(f"duplicate shard name {name!r}")
        shards[name] = url
    return shards


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.service import Router, RouterServer

    router = Router(
        _parse_shards(args.shard),
        replicas=args.replicas,
        max_retries=args.max_retries,
        fail_threshold=args.fail_threshold,
        health_interval=args.health_interval,
    )
    server = RouterServer(router, host=args.host, port=args.port)
    healthy = router.check_health()
    up = sum(1 for ok in healthy.values() if ok)
    print(
        f"routing on {server.url} across {len(healthy)} shards "
        f"({up} healthy: {', '.join(sorted(name for name, ok in healthy.items() if ok)) or '-'})"
    )
    _serve_until_terminated(server, args.port_file)
    if args.report:
        from repro.service.metrics import format_series_report

        print()
        print(json.dumps(router.router_snapshot(), indent=2, sort_keys=True))
        fleet_series = router.metrics().get("fleet", {}).get("series", {})
        print()
        print(format_series_report(fleet_series, title="Fleet series (all shards)"))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service.loadgen import (
        default_catalog,
        format_report,
        run_load,
        zipf_specs,
    )

    designs = [name.strip() for name in args.designs.split(",") if name.strip()]
    catalog = default_catalog(designs) if designs else default_catalog()
    specs = zipf_specs(args.requests, catalog=catalog, skew=args.skew, seed=args.seed)
    report = run_load(
        args.url,
        specs,
        concurrency=args.concurrency,
        hedge_delay=args.hedge_delay,
        result_timeout=args.result_timeout,
    )
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(format_report(report))
    return 0 if report["failed"] == 0 else 1


def _trace_local(args: argparse.Namespace):
    """Run one traced pipeline in process; return ``(trace_id, spans)``."""
    from repro.obs import TRACER

    engine = Engine.load(args.design)
    pipeline = Pipeline.parse(args.script)
    with TRACER.span("cli.trace", attrs={"design": engine.name, "script": args.script}) as span:
        engine.run(pipeline)
    trace_id = span.trace_id
    return trace_id, TRACER.spans_for(trace_id)


def _trace_remote(args: argparse.Namespace):
    """Submit one traced job to ``--url``; return ``(trace_id, spans)``.

    The client-side ``client.submit`` span stays in the local tracer while
    the server buffers its own spans per trace; both halves are merged here,
    deduplicated by span id, into the one tree the trace id names.
    """
    from repro.obs import TRACER
    from repro.service import HttpServiceClient, JobSpec

    spec = JobSpec.from_dict(_build_job_spec(args))
    with HttpServiceClient(args.url) as client:
        submitted = client.submit(spec)
        job_id = submitted["job_id"]
        client.wait(job_id, timeout=args.result_timeout)
        remote = client.trace(job_id)
    trace_id = remote.get("trace_id")
    spans = list(remote.get("spans") or [])
    if trace_id is not None:
        seen = {span.get("span_id") for span in spans}
        spans.extend(
            span
            for span in TRACER.spans_for(trace_id)
            if span.get("span_id") not in seen
        )
    return trace_id, spans


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import PROFILER, TRACER, chrome_trace, text_tree

    if args.profile:
        PROFILER.enabled = True
    TRACER.enable()
    try:
        if args.url:
            trace_id, spans = _trace_remote(args)
        else:
            trace_id, spans = _trace_local(args)
    finally:
        TRACER.reset()
        if args.profile:
            PROFILER.enabled = False
    if trace_id is None or not spans:
        print("error: no spans were recorded for this job", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            json.dump(chrome_trace(spans, trace_id), handle)
        print(f"wrote {args.out} ({len(spans)} spans, trace {trace_id})")
    if args.json:
        print(json.dumps({"trace_id": trace_id, "spans": spans}, sort_keys=True))
    elif not args.out:
        print(f"trace {trace_id} ({len(spans)} spans)")
        print(text_tree(spans))
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="boolgebra",
        description="BoolGebra reproduction: AIG optimization and orchestration tools.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    stats = subparsers.add_parser("stats", help="print design statistics")
    stats.add_argument(
        "design",
        help="netlist path (.aag/.aig/.bench/.blif, optionally .gz) or benchmark name",
    )
    stats.add_argument(
        "--json", action="store_true", help="print machine-readable JSON instead of a table"
    )
    stats.set_defaults(handler=_cmd_stats)

    optimize = subparsers.add_parser("optimize", help="run an optimization pass script")
    optimize.add_argument("design")
    optimize.add_argument(
        "--script",
        "-s",
        default="rw; rs; rf",
        help="pass script, e.g. 'rw; rs -K 8; b; rw -z' (see the 'passes' sub-command)",
    )
    optimize.add_argument("--output", "-o", help="write the optimized netlist here")
    optimize.add_argument(
        "--verify", action="store_true", help="check functional equivalence afterwards"
    )
    optimize.set_defaults(handler=_cmd_optimize)

    orchestrate_cmd = subparsers.add_parser(
        "orchestrate", help="run Algorithm 1 under a per-node decision vector"
    )
    orchestrate_cmd.add_argument("design")
    orchestrate_cmd.add_argument("--decisions", help="CSV decision vector (node,operation)")
    orchestrate_cmd.add_argument(
        "--guided", action="store_true", help="use the priority-guided base assignment"
    )
    orchestrate_cmd.add_argument("--seed", type=int, default=0)
    orchestrate_cmd.add_argument("--output", "-o")
    orchestrate_cmd.add_argument("--verify", action="store_true")
    orchestrate_cmd.set_defaults(handler=_cmd_orchestrate)

    sample = subparsers.add_parser(
        "sample", help="sample and evaluate a batch of decision vectors"
    )
    sample.add_argument("design")
    sample.add_argument("--num-samples", "-n", type=int, default=10)
    sample.add_argument("--guided", action="store_true")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="evaluate candidates across this many worker processes (default 1: serial)",
    )
    sample.add_argument("--output", "-o", help="write sample qualities to this CSV")
    sample.add_argument(
        "--save-decisions", help="directory to store the sampled decision vectors as CSV"
    )
    sample.set_defaults(handler=_cmd_sample)

    passes = subparsers.add_parser("passes", help="list registered optimization passes")
    passes.set_defaults(handler=_cmd_passes)

    benchmarks = subparsers.add_parser("benchmarks", help="list registered benchmark designs")
    benchmarks.add_argument(
        "--generate", action="store_true", help="generate each design and report exact sizes"
    )
    benchmarks.add_argument(
        "--json", action="store_true", help="print machine-readable JSON instead of a table"
    )
    benchmarks.set_defaults(handler=_cmd_benchmarks)

    backends = subparsers.add_parser(
        "backends", help="list compute backends and their per-op implementations"
    )
    backends.add_argument(
        "--json", action="store_true", help="print machine-readable JSON instead of a table"
    )
    backends.set_defaults(handler=_cmd_backends)

    serve = subparsers.add_parser(
        "serve", help="run the batched, cache-coalescing synthesis service over HTTP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="listening port (0 binds an ephemeral port)"
    )
    serve.add_argument(
        "--port-file", help="write the bound port here (for ephemeral-port callers)"
    )
    serve.add_argument("--workers", "-j", type=int, default=2, help="worker pool width")
    serve.add_argument(
        "--queue-size", type=int, default=256, help="queue bound before 429 backpressure"
    )
    serve.add_argument(
        "--store",
        help="artifact store directory backing the completed-result cache "
        "(omit to disable the warm-store short-circuit)",
    )
    serve.add_argument(
        "--mode",
        choices=["auto", "process", "inline"],
        default="auto",
        help="job execution: crash-isolated worker processes, inline threads, "
        "or processes with inline fallback (default)",
    )
    serve.add_argument(
        "--timeout", type=float, help="default per-job timeout in seconds"
    )
    serve.add_argument(
        "--report", action="store_true", help="print the metrics report on shutdown"
    )
    serve.set_defaults(handler=_cmd_serve)

    submit = subparsers.add_parser(
        "submit", help="submit one job to a running server (--url) or in-process"
    )
    submit.add_argument("design", help="netlist path or benchmark name")
    submit.add_argument(
        "--kind",
        choices=["optimize", "sample", "orchestrate", "flow"],
        default="optimize",
    )
    submit.add_argument(
        "--script", "-s", help="pass script for optimize jobs (e.g. 'rw; rs -K 8; b')"
    )
    submit.add_argument(
        "--option",
        "-O",
        action="append",
        help="kind-specific option as key=value (value parsed as JSON when possible); "
        "repeatable",
    )
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--timeout", type=float, help="per-job timeout in seconds")
    submit.add_argument("--url", help="server base URL; omitted: run in-process")
    submit.add_argument(
        "--wait",
        action="store_true",
        help="with --url, wait for completion and print the result payload "
        "(in-process submissions always wait)",
    )
    submit.add_argument(
        "--result-timeout", type=float, default=600.0, help="seconds to wait for the result"
    )
    submit.add_argument(
        "--workers", "-j", type=int, default=1, help="in-process mode: worker pool width"
    )
    submit.add_argument("--store", help="in-process mode: artifact store directory")
    submit.set_defaults(handler=_cmd_submit)

    route = subparsers.add_parser(
        "route",
        help="run the cluster router: consistent-hash jobs across running service shards",
    )
    route.add_argument(
        "-s",
        "--shard",
        action="append",
        required=True,
        help="backend service URL (bare, or name=url); repeatable, one per shard",
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument(
        "--port", type=int, default=8080, help="listening port (0 binds an ephemeral port)"
    )
    route.add_argument(
        "--port-file", help="write the bound port here (for ephemeral-port callers)"
    )
    route.add_argument(
        "--replicas", type=int, default=128, help="virtual nodes per shard on the hash ring"
    )
    route.add_argument(
        "--max-retries", type=int, default=2, help="failover attempts per client call"
    )
    route.add_argument(
        "--fail-threshold",
        type=int,
        default=2,
        help="consecutive probe failures before a shard leaves the ring",
    )
    route.add_argument(
        "--health-interval", type=float, default=2.0, help="seconds between health probes"
    )
    route.add_argument(
        "--report", action="store_true", help="print the router counters on shutdown"
    )
    route.set_defaults(handler=_cmd_route)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive a service or router with synthetic zipf duplicate-heavy load",
    )
    loadgen.add_argument("url", help="service or router base URL")
    loadgen.add_argument("--requests", "-n", type=int, default=100)
    loadgen.add_argument(
        "--concurrency", "-c", type=int, default=16, help="submissions in flight at once"
    )
    loadgen.add_argument(
        "--skew",
        type=float,
        default=1.1,
        help="Zipf exponent: higher = more duplicate-heavy (0 = uniform)",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--designs",
        default="",
        help="comma-separated benchmark designs for the catalog (default: b08,b09,b10)",
    )
    loadgen.add_argument(
        "--hedge-delay",
        type=float,
        help="duplicate still-unanswered reads after this many seconds",
    )
    loadgen.add_argument(
        "--result-timeout", type=float, default=600.0, help="per-request completion bound"
    )
    loadgen.add_argument(
        "--json", action="store_true", help="print the machine-readable report"
    )
    loadgen.set_defaults(handler=_cmd_loadgen)

    trace = subparsers.add_parser(
        "trace",
        help="run one traced pipeline (or traced remote job) and export its span tree",
    )
    trace.add_argument("design", help="netlist path or benchmark name")
    trace.add_argument(
        "--script",
        "-s",
        default="rw; rs; rf",
        help="pass script to trace (local runs and optimize jobs)",
    )
    trace.add_argument(
        "--kind",
        choices=["optimize", "sample", "orchestrate", "flow"],
        default="optimize",
        help="with --url: job kind to submit",
    )
    trace.add_argument(
        "--option",
        "-O",
        action="append",
        help="kind-specific option as key=value (value parsed as JSON when possible); "
        "repeatable",
    )
    trace.add_argument("--priority", type=int, default=0)
    trace.add_argument("--timeout", type=float, help="per-job timeout in seconds")
    trace.add_argument(
        "--url",
        help="submit the job to this service/router URL and collect the distributed "
        "trace (omitted: run the pipeline in process)",
    )
    trace.add_argument(
        "--result-timeout", type=float, default=600.0, help="seconds to wait for the job"
    )
    trace.add_argument("--out", "-o", help="write Chrome-trace JSON here (chrome://tracing)")
    trace.add_argument(
        "--json", action="store_true", help="print the raw span list as JSON"
    )
    trace.add_argument(
        "--profile",
        action="store_true",
        help="attach per-span cProfile summaries (local runs; see BOOLGEBRA_PROFILE)",
    )
    trace.set_defaults(handler=_cmd_trace)

    cache = subparsers.add_parser(
        "cache", help="inspect or wipe the learning-pipeline artifact store"
    )
    cache.add_argument(
        "action", choices=["info", "clear"], help="report store contents, or delete artifacts"
    )
    cache.add_argument(
        "--store",
        help="store directory (default: $BOOLGEBRA_STORE or ~/.cache/boolgebra)",
    )
    cache.add_argument(
        "--kind",
        choices=["samples", "datasets", "models", "results"],
        help="restrict 'clear' to one artifact kind",
    )
    cache.set_defaults(handler=_cmd_cache)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``boolgebra`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
