"""Benchmark of the ``poloids`` command line, run in-process.

    python3 perfbench/run.py --workload census3|enum4|cli_mix --seed N \\
        --seconds S --trace 0|1 [--out results.jsonl]
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the root of a source checkout: the package is imported from
``src/``, nothing needs building.  Every operation is one call of
``poloids.cli.main`` in a closed loop with a single client, each call
starting when the previous one returned.  A job is one pass over the
workload's operations; whole jobs run until ``--seconds`` have passed,
so the last one may end past it.  Every operation's exit code and
output digest are compared with the goldens recorded when the benchmark
was defined, and ``embed`` outputs are also re-parsed and checked to be
isomorphic to their source, outside the timed region.

Every time is scaled to a reference host speed (``hostspeed.py``): a
fixed kernel, timed every 50 ms during each job and around each set-up,
measures how fast the shared host is running at that moment, and the
job's times are divided by its slowness.  The unscaled times are kept in
the record under ``raw``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced jobs with jobs in which every public function of the layer
modules is wrapped (``spans.py``), at least one pair and as many as fit
in ``--seconds``; it reports the per-layer metrics of the first traced
job, the median overhead over the pairs, and checks that every traced
job's outputs equal its untraced twin's.  The full record, with the
seed, revision, Python version, processor count and sample counts, is
printed before the final JSON line and appended to ``--out`` if given.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDENS = HERE / "goldens"

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
import hostspeed  # noqa: E402
import spec  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 15
SETUP_SAMPLES = 5  # speed kernel samples between two set-ups
ENUM4_FILTERS = ("poloid", "right_poloid")


@dataclass
class Outcome:
    rc: object      # exit code, or the exception's name when main raised
    digest: str     # sha256 of stdout plus any file the request wrote
    seconds: float  # time spent in main(), without the speed kernel's
    text: str       # the request's output: the -o file if any, else stdout


@dataclass
class Job:
    """One pass over a workload's requests.  Outcomes are checked as they
    come and kept only on request, so memory does not grow with the
    number of jobs a run makes.  Times leave out the speed kernel's;
    ``slowness`` and ``cpu_slowness`` are the host's during the job in
    wall and CPU time (``hostspeed.slowness``)."""
    wall: float = 0.0
    cpu: float = 0.0
    slowness: float = 1.0
    cpu_slowness: float = 1.0
    kernel_samples: int = 0
    failed: int = 0  # operations whose exit code or digest differ from the golden
    latencies: array = field(default_factory=lambda: array("d"))
    outcomes: list | None = None


@dataclass
class Workload:
    requests: list
    goldens: dict           # key -> {"exit": code, "sha256": digest, ...}
    items: list             # work items per request (tables, labelled tables, 1)


def execute(main, req: corpus.Request, clock=time.perf_counter) -> Outcome:
    """One ``main(argv)`` call with its stdout captured and digested."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = clock()
        try:
            rc = main(list(req.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crash
            rc = type(exc).__name__
        seconds = clock() - t0
    text = stdout = out.getvalue()
    if req.output is not None and rc == 0:
        text = Path(req.output).read_text(encoding="utf-8")
    if req.maps_out is not None and rc == 0:
        Path(req.maps_out).write_text(map_magma_part(text), encoding="utf-8")
    return Outcome(rc, digest(stdout, text if req.output else ""), seconds, text)


def digest(stdout: str, written: str = "") -> str:
    return hashlib.sha256((stdout + "\0" + written).encode()).hexdigest()


def map_magma_part(embed_output: str) -> str:
    """An ``embed`` output without its ``iso:`` block."""
    return embed_output.split("\niso:\n", 1)[0] + "\n"


def run_job(main, workload: Workload, keep: bool = False, probe=None) -> Job:
    """One job, with the host's speed sampled before, after and every
    ``hostspeed.TICK`` seconds during it by ``probe`` (a new one if None)."""
    probe = probe or hostspeed.Probe()
    job = Job(outcomes=[] if keep else None)
    probe.sample()
    with probe:
        w0, c0 = probe.clock(), probe.cpu_clock()
        for req in workload.requests:
            outcome = execute(main, req, probe.clock)
            job.latencies.append(outcome.seconds)
            golden = workload.goldens[req.key]
            job.failed += (outcome.rc, outcome.digest) != (golden["exit"], golden["sha256"])
            if keep:
                job.outcomes.append(outcome)
        job.wall = probe.clock() - w0
        job.cpu = probe.cpu_clock() - c0
    probe.sample()
    # ext4 flushes a file rewritten in place when it is closed, so a job
    # that overwrote the last one's outputs would wait on the shared disk;
    # every job writes its outputs afresh instead.
    for req in workload.requests:
        for path in (req.output, req.maps_out):
            if path is not None:
                Path(path).unlink(missing_ok=True)
    job.slowness = probe.slowness()
    job.cpu_slowness = probe.cpu_slowness()
    job.kernel_samples = len(probe.samples)
    return job


def embed_is_faithful(req: corpus.Request, text: str) -> bool:
    """Oracle: the emitted map magma's table is isomorphic to the source."""
    from poloids import maps, morphisms, tables

    try:
        image = maps.as_partial_magma(maps.parse_map_magma(map_magma_part(text)))
    except ValueError:  # the library's parse and precondition errors
        return False
    source = tables.parse_magma(Path(req.source).read_text(encoding="utf-8"))
    return morphisms.find_isomorphism(image, source) is not None


# -- workloads ------------------------------------------------------------


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs and load their goldens."""
    goldens = json.loads((GOLDENS / f"{name}.json").read_text())
    if name == "census3":
        requests = [corpus.Request("census3", ("enumerate", "-n", "3"))]
    elif name == "enum4":
        filters = list(ENUM4_FILTERS)
        random.Random(seed).shuffle(filters)
        requests = [corpus.Request(f"enum4.{f}", ("enumerate", "-n", "4", "--filter", f,
                                                  "--up-to-iso")) for f in filters]
    else:
        requests = corpus.corpus(seed, corpus.load_classes(), workdir)
    items = [goldens[r.key].get("items", 1) for r in requests]
    return Workload(requests, goldens, items)


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter that imports the command line."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import poloids.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
    return time.perf_counter() - t0


def setup(name: str, seed: int, workdir: Path) -> tuple[Workload, list[float], list[float]]:
    """The workload, and each of SETUP_REPEATS set-ups' seconds, unscaled
    and scaled by the host speed sampled just before and after it."""
    raw, scaled = [], []
    before = hostspeed.Probe()
    for _ in range(SETUP_SAMPLES):
        before.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh_import_seconds()
        workload = prepare(name, seed, workdir)
        raw.append(time.perf_counter() - t0)
        after = hostspeed.Probe()
        for _ in range(SETUP_SAMPLES):
            after.sample()
        scaled.append(raw[-1] / hostspeed.slowness(before.samples + after.samples))
        before = after
    return workload, raw, scaled


# -- metrics --------------------------------------------------------------


def tail_rank(n: int) -> int:
    """Nearest rank of p99 among ``n`` samples, or of the highest quantile
    with at least ten samples beyond it; ``n`` when ``n`` is ten or less."""
    return n if n <= 10 else min(-(-99 * n // 100), n - 10)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(value, q) at ``tail_rank``: p99 or the highest quantile with at
    least ten samples beyond it; the maximum with ten samples or fewer."""
    rank = tail_rank(len(samples))
    return sorted(samples)[rank - 1], rank / len(samples)


def time_metrics(jobs: list[Job], items_per_job: int, setup_times, scale: bool) -> dict:
    """Medians over the jobs, latencies over all their requests; each time
    divided by its job's slowness if ``scale``."""
    def per(job):
        return job.slowness if scale else 1.0

    def per_cpu(job):
        return job.cpu_slowness if scale else 1.0

    latencies = [s / per(job) for job in jobs for s in job.latencies]
    return {
        "wall_s": statistics.median(j.wall / per(j) for j in jobs),
        "cpu_s": statistics.median(j.cpu / per_cpu(j) for j in jobs),
        "items_per_s": statistics.median(items_per_job * per(j) / j.wall for j in jobs),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p99_ms": tail_percentile(latencies)[0] * 1e3,
        "setup_s": statistics.median(setup_times),
    }


def end_to_end(jobs: list[Job], items_per_job: int, raw_setup, scaled_setup,
               peak_rss_mb: float):
    """(metrics, unscaled times, sample counts) of an untraced run."""
    values = time_metrics(jobs, items_per_job, scaled_setup, scale=True)
    values["peak_rss_mb"] = peak_rss_mb
    raw = time_metrics(jobs, items_per_job, raw_setup, scale=False)
    latencies = sum(len(job.latencies) for job in jobs)
    samples = {"jobs": len(jobs), "latency": latencies,
               "latency_tail_q": tail_rank(latencies) / latencies,
               "setup": len(scaled_setup),
               "kernel": sum(job.kernel_samples for job in jobs),
               "slowness_median": statistics.median(job.slowness for job in jobs)}
    return values, raw, samples


def per_layer(tracer: Tracer, slowness: float, matched: int, classes: int,
              overhead: float) -> dict:
    """Per-layer metrics of one traced job; self times scaled by its slowness."""
    totals = tracer.totals()
    nested = tracer.nested_calls

    def calls(fn):
        return totals.get(fn, [0])[0]

    def ratio(a, b):
        return a / b if b else 0.0

    checks = (nested.get(("classify.is_semigroupoid", "classify.classify"), 0)
              + nested.get(("classify.is_right_directed_semigroupoid", "classify.classify"), 0))
    ratios = {
        "classify.checks_per_classify": ratio(checks, calls("classify.classify")),
        "enumeration.match_ratio": ratio(matched, calls("enumeration.matches")),
        "enumeration.dedupe_ratio": ratio(classes, calls("enumeration.canonical_form")),
        "represent.classify_per_embedding": ratio(
            nested.get(("classify.classify", "represent.cayley_embedding"), 0),
            calls("represent.cayley_embedding")),
        "trace.overhead_ratio": overhead,
    }
    values = {}
    for metric in spec.PER_LAYER:
        name = metric["name"]
        fn, _, kind = name.rpartition(".")
        if name in ratios:
            values[name] = ratios[name]
        elif kind == "calls":
            values[name] = calls(fn)
        elif fn in spec.LAYERS:
            values[name] = sum(t[2] for n, t in totals.items()
                               if n.startswith(fn + ".")) / slowness
        else:
            values[name] = totals.get(fn, [0, 0.0, 0.0])[2] / slowness
    return values


# -- run ------------------------------------------------------------------


def run_untraced(main, workload: Workload, seconds: float) -> list[Job]:
    jobs = []
    start = time.perf_counter()
    while True:
        job = run_job(main, workload)
        jobs.append(job)
        if time.perf_counter() - start >= seconds:
            return jobs


def run_traced(cli, workload: Workload, seconds: float):
    """Alternate untraced and traced jobs, at least one pair, until the next
    pair would end past ``seconds``.  Returns (jobs, outputs equal in every
    pair, per-pair traced / untraced scaled wall time, and the first traced
    job's tracer, matches that held, dedupe classes and slowness)."""
    jobs, ratios, first = [], [], None
    same = True
    start = time.perf_counter()
    while True:
        untraced = run_job(cli.main, workload, keep=True)
        traced, *spans = traced_job(cli, workload)
        first = first or (*spans, traced.slowness)
        same &= [(o.rc, o.digest) for o in untraced.outcomes] == \
            [(o.rc, o.digest) for o in traced.outcomes]
        untraced.outcomes = traced.outcomes = None
        jobs += [untraced, traced]
        ratios.append((traced.wall / traced.slowness) / (untraced.wall / untraced.slowness))
        if time.perf_counter() - start + untraced.wall + traced.wall > seconds:
            return jobs, same, ratios, *first


def traced_job(cli, workload: Workload):
    """(job, tracer, matches that held, dedupe classes) of one traced job."""
    matched = [0]
    forms = set()
    current = [0]

    def on_match(result):
        matched[0] += bool(result)

    def on_form(result):
        forms.add((current[0], result))

    probe = hostspeed.Probe()
    tracer = Tracer(spec.LAYERS, clock=probe.clock, nested={
        "classify.is_semigroupoid": ("classify.classify",),
        "classify.is_right_directed_semigroupoid": ("classify.classify",),
        "classify.classify": ("represent.cayley_embedding",),
    }, on_result={"enumeration.matches": on_match, "enumeration.canonical_form": on_form})

    def main(argv):
        current[0] += 1  # canonical forms are deduplicated per request
        return cli.main(argv)  # the rebound wrapper while tracing

    with tracer:
        traced = run_job(main, workload, keep=True, probe=probe)
    return traced, tracer, matched[0], len(forms)


def revision() -> dict:
    rev = "unknown"  # a checkout without .git is identified by its source digest
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or rev
    digest = hashlib.sha256()
    for path in sorted((SRC / "poloids").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record to this JSON-lines file")
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "poloids" / "__init__.py").is_file():
        print(f"error: no poloids sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    workload, raw_setup, scaled_setup = setup(args.workload, args.seed, workdir)
    sys.path.insert(0, str(SRC))
    import poloids.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported poloids from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # The first pass fills lazy imports and checks outputs with the oracle;
    # the jobs of the enumeration workloads are too long to repeat for it.
    warm_failed = oracle_failed = 0
    if args.workload == "cli_mix":
        warm = run_job(cli.main, workload, keep=True)
        warm_failed = warm.failed
        oracle_failed = sum(1 for req, outcome in zip(workload.requests, warm.outcomes)
                            if req.source is not None and not embed_is_faithful(req, outcome.text))
        del warm  # the outputs' text is needed by the oracle only

    per_job = len(workload.requests)
    if args.trace:
        jobs, same, ratios, tracer, matched, classes, slowness = run_traced(
            cli, workload, args.seconds)
        metrics = per_layer(tracer, slowness, matched, classes, statistics.median(ratios))
        units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
        raw = {}
        samples = {"spans_jobs": 1, "overhead_pairs": len(ratios), "spans_slowness": slowness}
        (WORK / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.dump(), indent=1) + "\n")
    else:
        jobs = run_untraced(cli.main, workload, args.seconds)
        same = True
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, raw, samples = end_to_end(jobs, sum(workload.items), raw_setup,
                                           scaled_setup, rss)
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}

    attempted = per_job * len(jobs)
    failed = sum(job.failed for job in jobs)
    correct = failed == 0 and warm_failed == 0 and oracle_failed == 0 and same
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "attempted": attempted,
        "failed": failed, "fail_ratio": failed / attempted,
        "warmup_failed": warm_failed, "oracle_failed": oracle_failed,
        "traced_output_matches": same, "samples": samples, **revision(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "raw": raw,
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {record['fail_ratio']:.6g} ({failed} of {attempted} operations)")
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
