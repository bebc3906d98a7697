"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json``; ``run.py
--write-spec`` renders it, and the test suite checks the two agree.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

# Why each workload exists: which layer it loads and which it leaves idle.
WORKLOADS = [
    {
        "name": "census3",
        "why": "enumerate -n 3: classify on all 262,143 tiny tables, which mostly fail at "
               "the first witness, plus table construction; no walk, no embedding",
    },
    {
        "name": "enum4",
        "why": "enumerate -n 4 --up-to-iso for poloid and right_poloid: the pruned walk "
               "dominates, canonical_form dedupe second, classify idle",
    },
    {
        "name": "cli_mix",
        "why": "classify/embed/iso/check-hom/compose requests on 5-8 element files: "
               "represent and maps dominate, classify does full scans, enumeration idle",
    },
]

# bound: share of the parent's median by which the metric may get worse.
# Times are scaled to the reference host speed of hostspeed.py.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

LAYERS = ("tables", "maps", "classify", "represent", "morphisms", "enumeration", "cli")

# Functions whose calls and self time the traced run reports.
_CALLS_AND_SELF = [
    "classify.classify",
    "classify.is_semigroupoid",
    "classify.is_right_directed_semigroupoid",
    "tables.left_units",
    "tables.right_units",
    "tables.units",
    "enumeration.from_flat",
    "enumeration.canonical_form",
    "represent.cayley_embedding",
    "represent.embed_right_poloid",
    "represent.left_translation_embedding",
    "represent.attach_codomains",
    "represent.serialize_embedding",
    "maps.compose_maps",
    "maps.is_closed",
    "maps.parse_map_magma",
    "maps.as_partial_magma",
    "morphisms.find_isomorphism",
    "morphisms.is_homomorphism",
]
_SELF_ONLY = [
    "enumeration.all_magmas",
    "enumeration.filtered",
    "tables.parse_magma",
    "tables.serialize_magma",
    "cli.main",
]
_CALLS_ONLY = ["enumeration.matches"]
# name -> better direction, for ratios measured where the work happens
RATIOS = {
    "classify.checks_per_classify": "lower",
    "enumeration.match_ratio": "higher",
    "enumeration.dedupe_ratio": "higher",
    "represent.classify_per_embedding": "lower",
    "trace.overhead_ratio": "lower",
}


def _per_layer() -> list[dict]:
    out = []
    for fn in _CALLS_AND_SELF:
        out.append({"name": f"{fn}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{fn}.self_s", "unit": "s", "better": "lower"})
    for fn in _SELF_ONLY:
        out.append({"name": f"{fn}.self_s", "unit": "s", "better": "lower"})
    for fn in _CALLS_ONLY:
        out.append({"name": f"{fn}.calls", "unit": "count", "better": "lower"})
    for layer in LAYERS:
        out.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
    for name, better in RATIOS.items():
        out.append({"name": name, "unit": "ratio", "better": better})
    return out


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
