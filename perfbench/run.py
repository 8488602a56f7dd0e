#!/usr/bin/env python3
"""The topolayers benchmark.

    python3 perfbench/run.py --workload complete|sparse|audit \
        --seed N --seconds S --trace 0|1

Runs one workload in this process, on one thread, for S seconds of
repeated passes over its inputs, checks every output outside the timed
path, and prints each metric with its unit.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from spans around
calls into each package module, and the spans are written to
perfbench/out/.

Times are in reference seconds (units ref_s; setup_s too).  The speed of
a shared machine drifts, here by a third and more over tens of seconds,
under load the process cannot see.  So each wall time is scaled by how
long a fixed reference loop took before, during and after it, relative to
REF_NOMINAL_S; a change in the program's speed shows in full, a change in
the machine's largely cancels.  Wall-clock figures are printed beside the
result.

Workloads (the reasons are in BENCHMARK.json):
  complete  edge list -> parse_graph -> decompose -> document -> text, for
            K10, K12, K14, K16.
  sparse    the same operation on random regular graphs and Q4, Q5.
  audit     parse_document -> verify_document -> render_svg of every layer,
            for documents produced at set-up.

Exit codes: 0 with a result; 1 when an emitted output fails a check (the
result line then reads "correct": false) or the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
import types
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("complete", "sparse", "audit")
# An input running longer than this counts as failed.  Unpinned K16, the
# slowest input, takes about 5 s; Q6 would run for minutes.
INPUT_LIMIT_S = 20.0
# No input starts once this much time has passed since the process began,
# so a run ends well within three minutes whatever the program does.
RUN_LIMIT_S = 150.0
SETUP_REPEATS = 3
# A tail percentile has at least this many samples beyond it.
TAIL_BEYOND = 10
MB = 1e6
# The reference loop takes about REF_NOMINAL_S on a 2-vCPU Xeon at
# 2.1 GHz, so reference seconds read close to wall seconds there.
REF_ITEMS = 4000
REF_REPEATS = 3
REF_NOMINAL_S = 0.0045
PROBE_INTERVAL_S = 0.2


def reference_loop() -> float:
    """Shortest of REF_REPEATS timings of a fixed piece of pure-Python work
    of the kind the package does: tuples, dictionaries, sets, sorting.

    The collector is off meanwhile, so that the loop times the machine,
    not the size of the heap."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REF_REPEATS):
            t0 = perf_counter()
            seen: Dict[Tuple[int, int], int] = {}
            for i in range(REF_ITEMS):
                key = (i % 97, i % 89)
                seen[key] = seen.get(key, 0) + 1
            {frozenset(k) for k in seen}
            sorted(seen.items())
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if collecting:
            gc.enable()


def speed_scale(samples: List[float]) -> float:
    """Reference seconds per wall second, from reference loop timings."""
    return REF_NOMINAL_S / statistics.fmean(samples)


class SpeedProbe:
    """Times the reference loop every PROBE_INTERVAL_S of CPU time while an
    input runs, from a SIGPROF handler, and keeps the time this took so
    that it can be taken out of the input's time.  Long inputs are thus
    scaled by the speed the machine had while they ran."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.paused = 0.0

    def _on_signal(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(reference_loop())
        self.paused += perf_counter() - t0

    @contextmanager
    def running(self, before: float) -> Iterator[None]:
        self.samples, self.paused = [before], 0.0
        previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


class InputTimeout(BaseException):
    """Raised in the benchmark's own thread when an input overruns its limit.

    A BaseException, so that no handler in the package can swallow it."""


@contextmanager
def time_limit(seconds: float) -> Iterator[None]:
    def on_alarm(signum, frame):
        raise InputTimeout(f"no result within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Case:
    """One benchmark input with what its outputs are checked against."""

    name: str
    text: str  # edge list (complete, sparse) or serialized document (audit)
    edges: List[Tuple[int, int]]  # the graph's edges in id order
    lower_bound: int
    layers: Optional[int] = None  # required layer count, for pinned documents
    doc: Optional[dict] = None  # checked document, once there is one
    outputs: set = field(default_factory=set)  # outputs already checked


@dataclass
class Attempt:
    case: Case
    seconds: float  # wall seconds
    ok: bool
    output_bytes: int
    key: str  # pass number and input name; the tracer's input id
    error: Optional[str] = None
    scale: float = 1.0  # reference seconds per wall second

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def load_api() -> types.SimpleNamespace:
    """Import the package from this checkout's source tree."""
    src = ROOT / "src"
    if not (src / "topolayers" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {src}")
    sys.path.insert(0, str(src))
    import topolayers
    from topolayers.fixtures import load_fixture

    if Path(topolayers.__file__).resolve().parent != (src / "topolayers").resolve():
        raise SystemExit(f"error: imported topolayers from {topolayers.__file__}, not {src}")
    return types.SimpleNamespace(
        parse_graph=topolayers.parse_graph,
        complete_graph=topolayers.complete_graph,
        decompose=topolayers.decompose,
        decomposition_to_document=topolayers.decomposition_to_document,
        serialize_document=topolayers.serialize_document,
        parse_document=topolayers.parse_document,
        verify_document=topolayers.verify_document,
        render_svg=topolayers.render_svg,
        load_fixture=load_fixture,
    )


def decompose_op(api, case: Case) -> str:
    """What `topolayers decompose` does, from edge-list text to document text."""
    g = api.parse_graph(case.text, name=case.name)
    d = api.decompose(g, strategy="thickness")
    return api.serialize_document(api.decomposition_to_document(d))


def audit_op(api, case: Case) -> Tuple[bool, List[str]]:
    """What `topolayers verify` and `topolayers render` do for every layer."""
    doc = api.parse_document(case.text)
    report = api.verify_document(doc)
    return report.ok, [api.render_svg(doc, layer["index"]) for layer in doc["layers"]]


def build_cases(api, corpus, checks, workload: str) -> List[Case]:
    """The workload's inputs; for audit, the documents it reads."""
    if workload == "complete":
        inputs = corpus.complete_inputs()
    elif workload == "sparse":
        inputs = corpus.sparse_inputs()
    else:
        return [audit_case(api, corpus, name, n, fixture) for name, n, fixture in corpus.AUDIT_DOCUMENTS]
    return [Case(i.name, i.text, checks.input_edges(i.text), i.lower_bound) for i in inputs]


def audit_case(api, corpus, name: str, n: int, fixture: Optional[str]) -> Case:
    g = api.complete_graph(n, name=f"K{n}")
    pin = api.load_fixture(fixture) if fixture else None
    text = api.serialize_document(api.decomposition_to_document(api.decompose(g, pin=pin)))
    edges = [uv for _, uv in sorted(g.edges.items())]
    return Case(name, text, edges, corpus.complete_thickness(n), corpus.PINNED_LAYERS.get(name))


def warm_up(api) -> None:
    """One small input through every timed call, so lazy imports are done."""
    g = api.complete_graph(7, name="K7")
    text = api.serialize_document(api.decomposition_to_document(api.decompose(g)))
    doc = api.parse_document(text)
    api.verify_document(doc)
    for layer in doc["layers"]:
        api.render_svg(doc, layer["index"])


def check_output(checks, workload: str, case: Case, output) -> None:
    """Independent checks on an output not seen before; raises CheckFailure."""
    if workload != "audit":
        if output not in case.outputs:
            doc = checks.check_document(case.name, output, case.edges)
            case.doc = case.doc or doc
            case.outputs.add(output)
        return
    ok, svgs = output
    if not ok:
        raise checks.CheckFailure(case.name, "verify", "verify_document reported a failure")
    for layer, svg in zip(case.doc["layers"], svgs):
        if svg in case.outputs:
            continue
        checks.check_svg(case.name, layer, svg)
        case.outputs.add(svg)


def run_pass(api, checks, workload, cases, rng, deadline, pass_no, tracer=None, reference=None):
    """Every case once, in an order drawn from rng.

    With a tracer, calls are recorded and each output must equal the one
    in `reference` (the untraced output); without, outputs are added to
    `reference` when one is given.  Traced runs probe the machine's speed
    only between inputs, since a probe inside an input would land in its
    spans.
    """
    probe = SpeedProbe() if reference is None else None
    op: Callable = audit_op if workload == "audit" else decompose_op
    attempts: List[Attempt] = []
    order = list(cases)
    rng.shuffle(order)
    gc.collect()
    ref = reference_loop()
    for case in order:
        left = deadline - perf_counter()
        key = f"{pass_no}:{case.name}"
        if left <= 0:
            attempts.append(Attempt(case, 0.0, False, 0, key, "InputTimeout: run time limit reached"))
            continue
        scope = tracer.input(key) if tracer else nullcontext()
        probing = probe.running(ref) if probe else nullcontext()
        output, error = None, None
        t0 = perf_counter()
        try:
            with scope, probing, time_limit(min(INPUT_LIMIT_S, left)):
                output = op(api, case)
        except InputTimeout as exc:
            error = f"InputTimeout: {exc}"
        except Exception as exc:  # a refusal or a crash: the attempt failed
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0 - (probe.paused if probe else 0.0)
        samples = (probe.samples if probe else [ref]) + [reference_loop()]
        scale, ref = speed_scale(samples), samples[-1]
        if error is not None:
            attempts.append(Attempt(case, seconds, False, 0, key, error, scale))
            continue
        check_output(checks, workload, case, output)
        if reference is not None:
            if tracer is None:
                reference.setdefault(case.name, output)
            elif reference.get(case.name, output) != output:
                raise checks.CheckFailure(case.name, "trace-identical", "traced output differs from untraced")
        size = len(case.text) if workload == "audit" else len(output)
        attempts.append(Attempt(case, seconds, True, size, key, None, scale))
    return attempts


def low_tail(values: List[float]) -> Tuple[float, int]:
    """The low tail of per-pass rates and how many passes lie below it.

    That is the lowest value with TAIL_BEYOND passes below it; a run of
    fewer than 2 * TAIL_BEYOND + 1 passes cannot show such a tail, and
    gives the value with half of the other passes below it.
    """
    ordered = sorted(values)
    k = min(TAIL_BEYOND, (len(ordered) - 1) // 2)
    return ordered[k], k


def rates(passes: List[List[Attempt]], unit: str, wall: bool = False) -> List[float]:
    """Per pass: edges (or document MB) of checked outputs per reference
    (or wall) second of pass time, the time of failed attempts included."""
    out = []
    for attempts in passes:
        busy = sum(a.seconds if wall else a.ref_seconds for a in attempts)
        if unit == "edges":
            done = sum(len(a.case.edges) for a in attempts if a.ok)
        else:
            done = sum(a.output_bytes for a in attempts if a.ok) / MB
        out.append(done / busy if busy > 0 else 0.0)
    return out


def end_to_end(passes, cases, setup_s: float) -> Tuple[Dict[str, float], List[str]]:
    attempts = [a for p in passes for a in p]
    edges = rates(passes, "edges")
    docs = rates(passes, "mb")
    edges_tail, below = low_tail(edges)
    checked = [c for c in cases if c.doc is not None]
    m = sum(len(c.edges) for c in checked)
    wall = rates(passes, "edges", wall=True)
    scales = [a.scale for a in attempts]
    notes = [
        f"passes: {len(passes)}; the tail has {below} below it",
        "pass rates: " + " ".join(f"{r:.2f}" for r in edges) + " edges/ref_s",
        f"wall clock: edges_per_s {statistics.median(wall):.6g} edges/s, tail {low_tail(wall)[0]:.6g} edges/s",
        f"reference seconds per wall second: {min(scales):.3f} to {max(scales):.3f}, median {statistics.median(scales):.3f}",
    ]
    return {
        "setup_s": setup_s,
        "edges_per_s": statistics.median(edges),
        "edges_per_s_tail": edges_tail,
        "doc_mb_per_s": statistics.median(docs),
        "doc_mb_per_s_tail": low_tail(docs)[0],
        "ok_share": sum(a.ok for a in attempts) / len(attempts),
        "layers_over_bound": (
            statistics.fmean(len(c.doc["layers"]) / c.lower_bound for c in checked) if checked else 0.0
        ),
        "crossings_per_edge": sum(len(c.doc["imaginary"]) for c in checked) / m if m else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, notes


def measure(api, checks, workload, cases, seconds, rng, deadline, trace):
    """Passes over the cases until `seconds` have passed.

    Traced runs alternate untraced and traced passes, so that both
    throughputs are measured under the same conditions.  Returns the
    untraced passes, the traced passes and the tracer.
    """
    tracer = Tracer() if trace else None
    reference: Optional[dict] = {} if trace else None
    plain: List[List[Attempt]] = []
    traced: List[List[Attempt]] = []
    t_end = perf_counter() + seconds
    while True:
        pass_no = len(plain) + len(traced)
        if trace and pass_no % 2:
            with tracer.installed(api):
                traced.append(run_pass(api, checks, workload, cases, rng, deadline, pass_no, tracer, reference))
        else:
            plain.append(run_pass(api, checks, workload, cases, rng, deadline, pass_no, None, reference))
        now = perf_counter()
        if (traced or not trace) and (now >= t_end or now >= deadline):
            return plain, traced, tracer


def trace_metrics(plain, traced, tracer) -> Dict[str, float]:
    """Per-layer figures from the traced passes, plus the traced and
    untraced throughput of the same run."""
    attempts = [a for p in traced for a in p]
    failures = {a.key: a.error for a in attempts if not a.ok}
    metrics = layer_metrics(tracer, len(traced), failures, {a.key: a.scale for a in attempts})
    fast = statistics.median(rates(plain, "edges"))
    slow = statistics.median(rates(traced, "edges"))
    metrics["trace.edges_per_s"] = slow
    metrics["trace.edges_per_s_untraced"] = fast
    metrics["trace.overhead"] = fast / slow if slow else 0.0
    return metrics


def write_trace(path: Path, workload: str, seed: int, tracer, traced) -> List[dict]:
    """Write the spans of a traced run and each failed attempt with the
    layer it failed in, as one JSON file; returns the failures."""
    failures = []
    for attempts in traced:
        for a in attempts:
            if not a.ok:
                layer, error = tracer.failure_layer(a.key) or ("benchmark", a.error)
                failures.append({"input": a.key, "layer": layer, "error": error})
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        json.dump(
            {"workload": workload, "seed": seed, "failures": failures, "spans": [s.as_dict() for s in tracer.spans]},
            fh,
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="The topolayers benchmark.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    reference_loop()  # its first run is slower, with cold code and caches
    ref = reference_loop()
    t0 = perf_counter()
    api = load_api()
    import checks
    import corpus

    import_wall = perf_counter() - t0
    ref_after = reference_loop()
    import_s, ref = import_wall * speed_scale([ref, ref_after]), ref_after
    setups, setup_walls = [], []
    probe = SpeedProbe()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with probe.running(ref):
            cases = build_cases(api, corpus, checks, args.workload)
            warm_up(api)
        wall = perf_counter() - t0 - probe.paused
        samples = probe.samples + [reference_loop()]
        setups.append(wall * speed_scale(samples))
        setup_walls.append(wall)
        ref = samples[-1]
    setup_s = import_s + statistics.median(setups)

    try:
        if args.workload == "audit":
            for case in cases:
                case.doc = checks.check_document(case.name, case.text, case.edges, case.layers)
        # The benchmark's own objects stay out of the collector's way.
        gc.collect()
        gc.freeze()
        plain, traced, tracer = measure(
            api, checks, args.workload, cases, args.seconds, random.Random(args.seed),
            start + RUN_LIMIT_S, args.trace,
        )
    except checks.CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempts = [a for p in plain + traced for a in p]
    if args.trace:
        metrics = trace_metrics(plain, traced, tracer)
        path = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        failed = write_trace(path, args.workload, args.seed, tracer, traced)
        failures = {f["input"].split(":", 1)[1]: f"in {f['layer']}: {f['error']}" for f in failed}
    else:
        metrics, notes = end_to_end(plain, cases, setup_s)
        notes.append(f"wall clock: setup_s {import_wall + statistics.median(setup_walls):.6g} s")
        for line in notes:
            print(line)
        failures = {a.case.name: a.error for a in attempts if not a.ok}
    for name, error in sorted(failures.items()):
        print(f"failed: {name}: {error}", file=sys.stderr)
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        print(f"{m['name']} {value:.6g} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = sum(not a.ok for a in attempts)
    print(json.dumps({"correct": True, "attempted": len(attempts), "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
