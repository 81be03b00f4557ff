"""Benchmark of the equicoh command line.

One closed-loop client in one process sends one query at a time: each query
is an in-process call of ``equicoh.cli.main(argv)`` with stdout and stderr
captured.  The seed fixes the generated documents and the query order.  A
run repeats whole rounds of the workload's queries for about ``--seconds``
and checks every answer against a closed form or against the way its input
was built (see oracle.py and workloads.py).  For the pinned seed it also
compares the sha256 of every query's stdout with bench/pins.json.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs one untraced round and then two traced rounds
(tracer.py) and reports the per-layer metrics.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

Usage, from the repository root:

    python3 bench/run.py --workload graph_basis --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload graph_basis --trace 1
    python3 bench/run.py --compare BASE_RESULTS_DIR NEW_RESULTS_DIR
    python3 bench/run.py --write-pins
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = "bench/_work"
RESULTS_DIR = f"{WORK_DIR}/results"
PINS = ROOT / "bench" / "pins.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
TRACED_PASSES = 2
MIN_ROUNDS = 3
# On a shared 2-vCPU Xeon VM, other tenants slowed the same work by up to
# 1.7x, for seconds to minutes at a time.  Every timing is therefore scaled
# by the speed of a fixed piece of work like the program's own (small
# fractions in dicts keyed by exponent tuples), measured just before and
# just after it: a reported millisecond is a millisecond at the speed where
# that calibration loop takes REFERENCE_CALIBRATION_S.  Under a 1.7x
# slowdown the scaled query times moved by 2-6%.  Unscaled wall times are
# reported beside the scaled ones.
REFERENCE_CALIBRATION_S = 0.0017
MACHINE_FIELDS = ("python", "implementation", "platform", "machine", "nproc")
# Per-layer values that must repeat exactly, besides every ".calls".
EXACT_SIZES = ("linalg.rows", "linalg.cols", "linalg.rank", "linalg.row_yield")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- running queries --------------------------------------------------------------


@dataclass
class Outcome:
    status: int | None
    stdout: str
    stderr: str
    error: str | None
    seconds: float


def calibrate() -> float:
    """Seconds taken by the fixed calibration work."""
    start = time.perf_counter()
    total: dict = {}
    for i in range(30):
        poly = {(a, b, i % 3): Fraction(a - b, 1 + (a * b + i) % 5) for a in range(4) for b in range(3)}
        for (a, b, c), coeff in poly.items():
            key = (b, a + 1, c)
            total[key] = total.get(key, 0) + coeff * Fraction(1, 1 + i % 3)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from wall time to time at the reference speed."""
    return 2 * REFERENCE_CALIBRATION_S / (before + after)


def run_query(cli, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    status = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped exception is a wrong answer, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return Outcome(status, out.getvalue(), err.getvalue(), error, seconds)


class Tally:
    """Latencies of the timed queries and the verdict on every distinct answer."""

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.latencies: dict[str, list[float]] = {}  # scaled seconds, by query
        self.raw: dict[str, list[float]] = {}  # wall seconds, by query
        self.attempted = 0
        self.verdicts: dict[tuple, str | None] = {}
        self.wrong = 0
        self.reasons: dict[str, str] = {}
        self.hashes: dict[str, str] = {}

    def add(self, query: workloads.Query, outcome: Outcome, factor: float) -> None:
        self.latencies.setdefault(query.qid, []).append(outcome.seconds * factor)
        self.raw.setdefault(query.qid, []).append(outcome.seconds)
        self.attempted += 1
        digest = _sha256(outcome.stdout)
        key = (query.qid, outcome.status, digest, outcome.stderr, outcome.error)
        if key not in self.verdicts:
            self.verdicts[key] = verdict(query, outcome, self.pins)
        reason = self.verdicts[key]
        if reason:
            self.wrong += 1
            self.reasons.setdefault(query.qid, reason)
        self.hashes[query.qid] = digest


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verdict(query: workloads.Query, outcome: Outcome, pins: dict | None) -> str | None:
    """Why the answer is wrong, or None."""
    if outcome.error:
        return f"escaped exception {outcome.error}"
    if outcome.stderr:
        return f"unexpected stderr {outcome.stderr.strip()[:100]!r}"
    reason = query.check(outcome.stdout, outcome.status)
    if reason:
        return reason
    if pins is not None and pins.get(query.qid) != _sha256(outcome.stdout):
        return "stdout differs from the pinned bytes"
    return None


def run_round(cli, plan: workloads.Plan, tally: Tally, trace: tracer.Tracer | None = None) -> float:
    """Run every query once; returns the round's scaled query time."""
    total = 0.0
    before = calibrate()
    for index, query in enumerate(plan.queries):
        if trace is not None:
            trace.query = index
        outcome = run_query(cli, query.argv)
        after = calibrate()
        factor = scale(before, after)
        tally.add(query, outcome, factor)
        total += outcome.seconds * factor
        before = after
    return total


# -- set-up -----------------------------------------------------------------------


def import_cli():
    for name in [n for n in sys.modules if n == "equicoh" or n.startswith("equicoh.")]:
        del sys.modules[name]
    cli = importlib.import_module("equicoh.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"equicoh was imported from {cli.__file__}, not from this checkout")
    return cli


class SetUps:
    """Repeated set-ups of one workload.  A set-up imports equicoh afresh,
    generates the documents, writes them (the first time) or checks them
    against the files on disk (every later time), and runs the warm-up query.
    Rewriting thousands of identical files would time the file system, whose
    speed swung by 4x on a shared VM, rather than anything the program does."""

    def __init__(self, workload: str, seed: int, pins: dict | None):
        self.workload, self.seed, self.pins = workload, seed, pins
        self.times: list[float] = []  # scaled seconds
        self.raw: list[float] = []  # wall seconds
        self.problems: set[str] = set()
        self.plan: workloads.Plan | None = None

    def again(self):
        """Set up once more; returns the freshly imported ``equicoh.cli``."""
        before = calibrate()
        start = time.perf_counter()
        cli = import_cli()
        plan = workloads.build(self.workload, self.seed, WORK_DIR)
        same = self.plan is None or (plan.on_disk() and _ids(plan) == _ids(self.plan))
        if self.plan is None:
            plan.write()
        warm = run_query(cli, plan.warmup.argv)
        seconds = time.perf_counter() - start
        self.times.append(seconds * scale(before, calibrate()))
        self.raw.append(seconds)
        if self.plan is None:
            self.plan = plan
        elif not same:
            self.problems.add("the generator is not deterministic for this seed")
        reason = verdict(plan.warmup, warm, self.pins)
        if reason:
            self.problems.add(f"warm-up {plan.warmup.qid}: {reason}")
        return cli


def _ids(plan: workloads.Plan) -> list[str]:
    return [q.qid for q in plan.queries]


def read_pins(seed: int) -> dict:
    """The pin file when it pins this seed, else an empty dict."""
    if not PINS.exists():
        return {}
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    return pins if pins["seed"] == seed else {}


def _python_minor() -> str:
    return ".".join(platform.python_version_tuple()[:2])


# -- metrics ----------------------------------------------------------------------


def tail_percentile(queries: int) -> int:
    """The highest whole percentile with at least ten of the queries beyond it."""
    return math.floor(100 * (1 - 10 / queries))


def measure(setups: SetUps, cli, tally: Tally, seconds: float) -> tuple[float, int]:
    """Whole rounds only, so every query runs equally often; stops at the round
    boundary nearest to ``seconds``.  The set-up is repeated between the first
    rounds, so its median spans the run rather than one moment of it."""
    rounds = 0
    start = time.perf_counter()
    while True:
        run_round(cli, setups.plan, tally)
        rounds += 1
        if len(setups.times) < SETUP_REPEATS:
            cli = setups.again()
        elapsed = time.perf_counter() - start
        if (rounds >= MIN_ROUNDS and len(setups.times) >= SETUP_REPEATS
                and elapsed * (1 + 0.5 / rounds) >= seconds):
            return elapsed, rounds


def end_to_end(setup_times: list[float], latencies: dict[str, list[float]]) -> dict:
    """A query's latency is the median of its runs, one per round; the
    percentiles are over the queries of a round."""
    typical = [statistics.median(runs) for runs in latencies.values()]
    cuts = statistics.quantiles(typical, n=100, method="inclusive")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": statistics.median(setup_times),
        "query_p50_ms": statistics.median(typical) * 1000,
        "query_tail_ms": cuts[tail_percentile(len(typical)) - 1] * 1000,
        "queries_per_s": len(typical) / sum(typical),
        "peak_rss_mb": rss,
    }


def layer_metrics(passes: list[tracer.Tracer], queries: int, untraced: float, traced: list[float]) -> dict:
    """Per-query averages over the traced passes; counts come from the first pass."""
    first = passes[0]
    n = queries * len(passes)
    out: dict[str, float] = {}
    layers: dict[str, float] = {}
    for i, name in enumerate(first.names):
        self_ms = sum(t.self_ns[i] for t in passes) / 1e6 / n
        out[f"{name}.calls"] = first.calls[i] / queries
        out[f"{name}.ms"] = self_ms
        out[f"{name}.self_ms"] = self_ms
        out[f"{name}.total_ms"] = sum(t.total_ns[i] for t in passes) / 1e6 / n
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_ms
    for layer, value in layers.items():
        out[f"{layer}.self_ms"] = value
    for name in tracer.SIZE_COUNTERS:
        out[name] = first.counters[name] / queries
    rows = first.counters["linalg.rows"]
    out["linalg.row_yield"] = first.counters["linalg.rank"] / rows if rows else 0.0
    out["trace.overhead_share"] = (statistics.mean(traced) - untraced) / untraced
    return out


def exact_counts(values: dict) -> dict:
    return {k: v for k, v in values.items() if k.endswith(".calls") or k in EXACT_SIZES}


def traced_run(cli, plan: workloads.Plan, tally: Tally, spans_path: str):
    """One untraced round, then TRACED_PASSES traced rounds.

    Returns (per-layer values, problems).  Counts must repeat exactly
    between the traced passes."""
    untraced = run_round(cli, plan, tally)
    passes, walls = [], []  # scaled query time of each traced round
    for number in range(TRACED_PASSES):
        with tracer.Tracer() as trace:
            walls.append(run_round(cli, plan, tally, trace))
        if number == 0:
            trace.write_spans(spans_path, _ids(plan))
        passes.append(trace)
    problems = []
    counts = [exact_counts(layer_metrics([t], len(plan.queries), untraced, walls)) for t in passes]
    if any(c != counts[0] for c in counts[1:]):
        differing = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems.append(f"counts differ between traced passes: {differing}")
    return layer_metrics(passes, len(plan.queries), untraced, walls), problems


# -- environment and records ------------------------------------------------------


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "equicoh").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, params: dict) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": nproc,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


def write_record(directory: str, record: dict) -> str:
    os.makedirs(directory, exist_ok=True)
    env = record["environment"]
    path = f"{directory}/{env['workload']}-seed{env['seed']}-trace{env['trace']}-{time.time_ns()}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# -- commands ---------------------------------------------------------------------


def run(args, spec: dict) -> int:
    pinned = read_pins(args.seed)
    # Error messages in the pinned output may differ between Python versions.
    pins = pinned["stdout_sha256"][args.workload] if pinned.get("python") == _python_minor() else None
    setups = SetUps(args.workload, args.seed, pins)
    try:
        cli = setups.again()
    except ImportError as exc:
        print(f"cannot import equicoh from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    plan = setups.plan
    tally = Tally(pins)
    report = []
    problems = []
    if args.trace:
        cli = setups.again()
        spans_path = f"{plan.root}/spans.tsv"
        values, problems = traced_run(cli, plan, tally, spans_path)
        wanted = spec["per_layer"]
        report.append(f"spans of the first traced pass: {spans_path}")
        layers = {k: v for k, v in values.items() if k.count(".") == 1 and k.endswith(".self_ms")}
        ranking = ", ".join(f"{k.split('.')[0]} {v:.2f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        report.append(f"self time per query by layer (ms): {ranking}")
        recorded = pinned.get("counts", {}).get(args.workload)
        if recorded:
            moved = {k: (recorded[k], v) for k, v in exact_counts(values).items()
                     if k in recorded and recorded[k] != v}
            report.append(f"counts against the pinned seed-commit counts: "
                          f"{'unchanged' if not moved else moved}")
    else:
        wall, rounds = measure(setups, cli, tally, args.seconds)
        values = end_to_end(setups.times, tally.latencies)
        raw = end_to_end(setups.raw, tally.raw)
        wanted = spec["end_to_end"]
        report.append(f"{rounds} rounds of {len(plan.queries)} queries in {wall:.3f} s")
        report.append(f"query_tail_ms is p{tail_percentile(len(plan.queries))} of {len(plan.queries)} "
                      f"queries, each the median of its {rounds} runs")
        report.append("unscaled wall time: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    failed = tally.wrong
    attempted = tally.attempted
    report.append(f"wrong_share = {failed / attempted} ({failed} of {attempted} queries)")
    report.append(f"stdout pinned for this seed: {'yes' if pins is not None else 'no'}")
    for qid, reason in sorted(tally.reasons.items()):
        report.append(f"WRONG {qid}: {reason}")
    problems += sorted(setups.problems)
    for problem in problems:
        report.append(f"PROBLEM {problem}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment(args, plan.params)
    correct = failed == 0 and not problems
    record = {"environment": env, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "setup_times_s": setups.times, "setup_wall_s": setups.raw}
    report.append(f"record: {write_record(args.results, record)}")
    for line in report:
        print(line)
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def write_pins(spec: dict) -> int:
    """Record the default seed's stdout hashes and traced counts."""
    pins = {"seed": DEFAULT_SEED, "python": _python_minor(), "stdout_sha256": {}, "counts": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        setups = SetUps(workload, DEFAULT_SEED, None)
        cli = setups.again()
        tally = Tally(None)
        values, problems = traced_run(cli, setups.plan, tally, f"{setups.plan.root}/spans.tsv")
        if tally.wrong or problems or setups.problems:
            print(f"{workload}: refusing to pin wrong answers: {tally.reasons} {problems}",
                  file=sys.stderr)
            return 1
        pins["stdout_sha256"][workload] = dict(sorted(tally.hashes.items()))
        pins["counts"][workload] = exact_counts(values)
        print(f"{workload}: pinned {len(tally.hashes)} queries")
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def compare(base_dir: str, new_dir: str, spec: dict) -> int:
    """Medians and quartile spreads of two sets of result records, metric by
    metric; exits 1 when an end-to-end median got worse by more than its bound."""
    sides = [[json.loads(p.read_text()) for p in sorted(Path(d).glob("*.json"))] for d in (base_dir, new_dir)]
    if not all(sides):
        print("both directories must hold result records", file=sys.stderr)
        return 2
    machines = {tuple(r["environment"][f] for f in MACHINE_FIELDS) for side in sides for r in side}
    if len(machines) > 1:
        print("refusing to compare results from different machines:", file=sys.stderr)
        for machine in sorted(machines, key=str):
            print("  " + ", ".join(f"{f}={v}" for f, v in zip(MACHINE_FIELDS, machine)), file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    def group(side, key):
        return [r for r in side if (r["environment"]["workload"], r["environment"]["trace"]) == key]

    regressions = 0
    print("workload trace metric base_median new_median worse_by base_spread new_spread verdict")
    for key in sorted({(r["environment"]["workload"], r["environment"]["trace"]) for r in sides[0]}):
        base_runs, new_runs = group(sides[0], key), group(sides[1], key)
        if not new_runs:
            continue
        for name in base_runs[0]["metrics"]:
            base = [r["metrics"][name]["value"] for r in base_runs]
            new = [r["metrics"][name]["value"] for r in new_runs]
            b, n = statistics.median(base), statistics.median(new)
            worse = (n - b) / b * (1 if better[name] == "lower" else -1) if b else 0.0
            label = ""
            if name in bounds and key[1] == 0:
                if worse > bounds[name]:
                    label = "REGRESSION"
                    regressions += 1
                elif name != "setup_s" and max(_spread(base), _spread(new)) > bounds[name]:
                    label = "unresolved"
                else:
                    label = "ok"
            print(f"{key[0]} {key[1]} {name} {b:.6g} {n:.6g} {worse:+.3f} "
                  f"{_spread(base):.3f} {_spread(new):.3f} {label}")
    return 1 if regressions else 0


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return math.nan
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def parser(spec: dict) -> argparse.ArgumentParser:
    lines = ["workloads:"]
    lines += [f"  {w['name']}: {w['why']}" for w in spec["workloads"]]
    lines.append("end-to-end metrics (--trace 0; tracing off):")
    lines += [f"  {m['name']} [{m['unit']}, {m['better']} is better, regression bound {m['bound']}]"
              for m in spec["end_to_end"]]
    lines += [
        "  Times are wall times scaled to a reference machine speed, measured by a",
        f"  calibration loop before and after each query (it takes {REFERENCE_CALIBRATION_S * 1000:g} ms at",
        "  the reference speed). A query's latency is the median of its runs, one per",
        "  round. query_p50_ms is the median over the round's queries, query_tail_ms the",
        "  highest whole percentile with at least ten queries beyond it, queries_per_s the",
        "  round's query count over the sum of the latencies, setup_s the median of five",
        "  set-ups (import equicoh, generate the documents and write them or, after the",
        "  first, check them against the files on disk, one warm-up query) and",
        "  peak_rss_mb the ru_maxrss of the run's process.",
    ]
    lines.append("per-layer metrics (--trace 1; .ms/.self_ms is self time per query, "
                 ".calls is calls per query):")
    lines += [f"  {m['name']} [{m['unit']}]" for m in spec["per_layer"]]
    lines += [
        "traced pass:",
        "  --trace 1 runs one untraced round, then two traced rounds that wrap the public",
        "  functions of cli, graph, xray, s1, linalg, mpoly and core from outside the program;",
        "  counts must repeat exactly between the two, and the spans of the first are written",
        f"  to {WORK_DIR}/<workload>/spans.tsv.",
        f"wrong_share (reported, and equal to failed/attempted) must be 0; stdout of seed {DEFAULT_SEED}",
        "  is pinned by sha256 in bench/pins.json.",
    ]
    p = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0],
        epilog="\n".join(lines), formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=RESULTS_DIR, help="directory for the result record")
    p.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"),
                   help="compare two directories of result records")
    p.add_argument("--write-pins", action="store_true",
                   help=f"record stdout hashes and counts of seed {DEFAULT_SEED} in bench/pins.json")
    return p


def main(argv=None) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    args = parser(spec).parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if args.write_pins:
        return write_pins(spec)
    if not args.workload:
        print("--workload is required", file=sys.stderr)
        return 2
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
