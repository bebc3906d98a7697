"""Checks of the benchmark's own machinery.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import inspect
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
from spans import Tracer, package_namespaces  # noqa: E402

import poloids.cli as cli  # noqa: E402

# one recipe of each kind: poloid union, poloid product (with a
# projection), normal right poloid, broken poloid, random table
RECIPES = (0, 5, 7, 13, 16)

CENSUS2 = """partial_magmas: 80
semigroupoid: 15
poloid: 5
groupoid: 3
total: 16
monoid: 4
group: 2
right_directed_semigroupoid: 21
right_poloid: 10
normal: 9
unit_posetal: 9
"""


def _bindings():
    """Every function reachable by name from a poloids namespace or module-level dict."""
    out = {}
    for i, ns in enumerate(package_namespaces()):
        for key, value in ns.items():
            if inspect.isfunction(value):
                out[(i, key)] = value
            elif type(value) is dict and not key.startswith("__"):
                for k, v in value.items():
                    if inspect.isfunction(v):
                        out[(i, key, k)] = v
    return out


def _workload(tmp_path, census=True):
    """A census of the 2-element tables (if ``census``) and the RECIPES' requests."""
    classes = corpus.load_classes()
    goldens = json.loads((run.GOLDENS / "cli_mix.json").read_text())
    requests = []
    if census:
        requests.append(corpus.Request("census2", ("enumerate", "-n", "2")))
        goldens["census2"] = {"exit": 0, "sha256": run.digest(CENSUS2)}
    for index in RECIPES:
        requests += corpus.build_item(index, classes, tmp_path)
    return run.Workload(requests, goldens, [1] * len(requests))


def test_traced_outputs_equal_untraced_and_names_are_restored(tmp_path):
    workload = _workload(tmp_path)
    requests = workload.requests
    before = _bindings()
    untraced = run.run_job(cli.main, workload, keep=True)
    tracer = Tracer(spec.LAYERS)
    with tracer:
        assert _bindings() != before
        traced = run.run_job(cli.main, workload, keep=True)
    assert _bindings() == before

    assert [o.digest for o in traced.outcomes] == [o.digest for o in untraced.outcomes]
    assert [o.rc for o in traced.outcomes] == [o.rc for o in untraced.outcomes] \
        == [0] * len(requests)
    assert traced.failed == untraced.failed == 0
    # spans cross the by-name imports: represent and enumeration call the
    # rebound classify, cli dispatches to the rebound commands
    stats = tracer.stats
    assert stats[("cli.main", "<root>")][0] == len(requests)
    assert ("classify.classify", "represent.cayley_embedding") in stats
    assert ("classify.classify", "enumeration.count_by_class") in stats
    assert ("enumeration.all_magmas", "enumeration.count_by_class") in stats
    for (name, _parent), (calls, total, self_s) in stats.items():
        assert 0 <= self_s <= total + 1e-9, name


def test_pool_requests_match_goldens_and_oracle(tmp_path):
    workload = _workload(tmp_path, census=False)
    job = run.run_job(cli.main, workload, keep=True)
    assert job.failed == 0
    embeds = [(r, o) for r, o in zip(workload.requests, job.outcomes) if r.source is not None]
    assert embeds and all(run.embed_is_faithful(r, o.text) for r, o in embeds)


def test_jobs_keep_no_outputs_unless_asked(tmp_path):
    workload = _workload(tmp_path, census=False)
    job = run.run_job(cli.main, workload)
    assert job.outcomes is None and job.failed == 0
    assert len(job.latencies) == len(workload.requests)
    written = [r.output for r in workload.requests if r.output is not None]
    assert written and not any(Path(path).exists() for path in written)


def test_traced_run_pairs_jobs_and_reports_median_overhead(tmp_path):
    workload = _workload(tmp_path)
    jobs, same, ratios, tracer, _matched, _classes, slowness = run.run_traced(
        cli, workload, 0.0)
    assert same and len(jobs) == 2 and len(ratios) == 1 and slowness == jobs[1].slowness
    assert all(job.outcomes is None and job.failed == 0 for job in jobs)
    assert tracer.stats[("cli.main", "<root>")][0] == len(workload.requests)


def test_slowness_clips_outliers_and_scales_to_the_reference():
    ref = hostspeed.REF_SECONDS
    assert hostspeed.slowness([ref] * 5) == pytest.approx(1.0)
    # one preempted sample counts as twice the median, not fifty times
    assert hostspeed.slowness([ref] * 4 + [50 * ref]) == pytest.approx(6 / 5)


def test_probe_ticks_inside_a_call_and_its_time_is_left_out():
    handler = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.Probe()
    with probe:
        w0 = probe.clock()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * hostspeed.TICK:
            pass
        wall = probe.clock() - w0
    assert len(probe.samples) >= 2 and probe.stolen >= sum(probe.samples)
    assert wall == pytest.approx(time.perf_counter() - t0 - probe.stolen, abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_job_times_are_scaled_by_the_host_speed(tmp_path):
    workload = _workload(tmp_path, census=False)
    job = run.run_job(cli.main, workload)
    assert job.kernel_samples >= 2 and job.slowness > 0
    jobs = [job, job]
    raw = run.time_metrics(jobs, 10, [1.0], scale=False)
    scaled = run.time_metrics(jobs, 10, [1.0], scale=True)
    assert scaled["wall_s"] == pytest.approx(raw["wall_s"] / job.slowness)
    assert scaled["cpu_s"] == pytest.approx(raw["cpu_s"] / job.cpu_slowness)
    assert scaled["latency_p50_ms"] == pytest.approx(raw["latency_p50_ms"] / job.slowness)
    assert scaled["items_per_s"] == pytest.approx(raw["items_per_s"] * job.slowness)


def test_corpus_depends_only_on_seed(tmp_path):
    a = corpus.corpus(7, corpus.load_classes(), tmp_path / "a")
    b = corpus.corpus(7, corpus.load_classes(), tmp_path / "b")
    c = corpus.corpus(8, corpus.load_classes(), tmp_path / "c")
    assert [r.key for r in a] == [r.key for r in b] != [r.key for r in c]
    for ra, rb in zip(a, b):
        for pa, pb in zip(ra.argv, rb.argv):
            if Path(pa).is_file():  # inputs; outputs do not exist before a run
                assert Path(pa).read_bytes() == Path(pb).read_bytes()


def test_tail_percentile():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 1.0)
    value, q = run.tail_percentile([float(i) for i in range(1, 101)])
    assert (value, q) == (90.0, 0.9)  # ten samples beyond it
    value, q = run.tail_percentile([float(i) for i in range(1, 2001)])
    assert (value, q) == (1980.0, 0.99)


def test_benchmark_json_is_rendered_from_spec():
    on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    names = [m["name"] for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec.WORKLOADS)


@pytest.mark.parametrize("base, head, expect", [
    ([10.0] * 9 + [10.5], [8.0] * 10, "better"),
    ([10.0, 10.1, 9.9, 10.0], [13.0, 13.1, 12.9, 13.0], "worse"),
    ([10.0, 10.1, 9.9, 10.0], [10.5, 10.4, 10.6, 10.5], "unresolved"),
    ([5.0, 10.0, 15.0, 20.0], [20.0, 25.0, 30.0, 35.0], "unresolved"),
])
def test_compare_verdicts(base, head, expect):
    got, _note, _won = compare.verdict(base, head, list(zip(base, head)), "lower", 0.2)
    assert got == expect


def _records(path, workload, seeds_values):
    with open(path, "w") as f:
        for seed, value in seeds_values:
            metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in spec.END_TO_END}
            f.write(json.dumps({"workload": workload, "seed": seed, "trace": 0,
                                "metrics": metrics}) + "\n")


def test_compare_keeps_repeated_seeds_and_pairs_by_seed(tmp_path):
    base, head = tmp_path / "base.jsonl", tmp_path / "head.jsonl"
    _records(base, "census3", [(1, 10.0), (1, 12.0), (2, 11.0)])
    _records(head, "census3", [(2, 9.0), (1, 13.0), (3, 1.0)])
    assert [len(runs) for runs in compare.load(str(base))["census3"].values()] == [2, 1]
    row = next(line for line in compare.compare(str(base), str(head)) if " wall_s " in line)
    assert "10/11/12" in row and "1/9/13" in row  # every run in the quartiles
    assert "  1/2  " in row  # seed 1: 10 vs 13 lost, seed 2: 11 vs 9 won; seed 3 unpaired


def test_compare_refuses_disjoint_seeds(tmp_path):
    base, head = tmp_path / "base.jsonl", tmp_path / "head.jsonl"
    _records(base, "enum4", [(1, 10.0)])
    _records(head, "enum4", [(2, 10.0)])
    with pytest.raises(ValueError, match="no seed"):
        compare.compare(str(base), str(head))
    assert compare.main([str(base), str(head)]) == 2
