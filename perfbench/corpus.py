"""The ``cli_mix`` corpus: 5-8 element magma files and CLI requests on them.

Every corpus item is one of ``POOL_SIZE`` fixed recipes.  Recipe ``i``
draws from its own random stream, so its files, its requests and
therefore its golden outputs never change; a run's ``--seed`` only
chooses which recipes make up the corpus and in what order.  The
goldens for the whole pool were recorded once, at the commit where the
benchmark was defined (``record_goldens.py``).

Recipes build structures from the small classes in
``goldens/classes.json`` (poloids and normal right poloids with 1-4
elements, one table per isomorphism class):

* ``poloid``: a disjoint union or direct product of poloid classes.
  Both constructions yield poloids (coproducts and products of small
  categories).  Requests: ``classify --json``, ``embed`` to stdout,
  ``embed -o``, ``compose`` and ``classify --json`` on the map magma
  that embed wrote, ``iso`` against a relabelled copy, ``check-hom``
  along that relabelling and, for products, along the first projection.
* ``normal``: the same constructions over normal right poloids, with
  ``embed --pre`` in place of ``embed``.
* ``broken``: a poloid with one cell changed, and ``random``: a random
  partial table; both get ``classify --json`` and ``iso``.

``embed -o`` writes the map magma followed by an ``iso:`` block, which
``parse_map_magma`` rejects; the harness therefore copies the map-magma
part (``Request.maps_out``) before ``compose`` and ``classify`` read it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL_SIZE = 400
PER_STRATUM = 10  # half of each stratum: fewer make p99 depend on the seed's draw

CLASSES_FILE = Path(__file__).resolve().parent / "goldens" / "classes.json"

# Recipe i follows STRATA[i % len(STRATA)]: (kind, construction, sizes).
# Every corpus takes the same number of recipes from each stratum, so
# seeds vary the tables but not the mix of kinds and sizes, which sets
# most of a pass's cost.
STRATA = [
    ("poloid", "union", 4, 4), ("poloid", "union", 4, 3), ("poloid", "union", 3, 3),
    ("poloid", "union", 4, 2), ("poloid", "union", 4, 1), ("poloid", "product", 4, 2),
    ("poloid", "product", 3, 2),
    ("normal", "union", 4, 4), ("normal", "union", 4, 3), ("normal", "union", 3, 3),
    ("normal", "union", 4, 2), ("normal", "product", 4, 2), ("normal", "product", 3, 2),
    ("broken", "union", 4, 4), ("broken", "union", 3, 3), ("broken", "product", 4, 2),
    ("random", None, 8, 0), ("random", None, 7, 0), ("random", None, 6, 0),
    ("random", None, 5, 0),
]


@dataclass(frozen=True)
class Request:
    """One ``poloids.cli.main`` call.

    ``key`` names the request's golden.  ``output`` is the file an
    ``embed -o`` writes; its content is part of the request's result.
    ``maps_out`` receives the map-magma part of that output.  ``source``
    is the embedded magma file, for the oracle check.
    """

    key: str
    argv: tuple[str, ...]
    output: str | None = None
    maps_out: str | None = None
    source: str | None = None


def load_classes() -> dict[str, dict[int, list]]:
    """{"poloid" | "normal": {size: [rows, ...]}} from the recorded flat tables."""
    raw = json.loads(CLASSES_FILE.read_text())
    return {
        kind: {int(n): [from_flat(flat, int(n)) for flat in flats] for n, flats in by_size.items()}
        for kind, by_size in raw.items()
    }


def from_flat(flat, n: int) -> tuple:
    """Rows of a table in the enumeration's flat encoding (``n`` is undefined)."""
    return tuple(
        tuple(None if v == n else v for v in flat[i * n:(i + 1) * n]) for i in range(n)
    )


def disjoint_union(a: tuple, b: tuple) -> tuple:
    na = len(a)
    rows = [tuple(row) + (None,) * len(b) for row in a]
    rows += [(None,) * na + tuple(None if v is None else v + na for v in row) for row in b]
    return tuple(rows)


def direct_product(a: tuple, b: tuple) -> tuple:
    """Componentwise product; element (i, j) has index i * len(b) + j."""
    nb = len(b)
    rows = []
    for i in range(len(a)):
        for j in range(nb):
            row = []
            for k in range(len(a)):
                for l in range(nb):
                    x, y = a[i][k], b[j][l]
                    row.append(None if x is None or y is None else x * nb + y)
            rows.append(tuple(row))
    return tuple(rows)


def relabel(rows: tuple, perm: list[int]) -> tuple:
    """The table with element i moved to position perm[i]."""
    n = len(rows)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            out[perm[i]][perm[j]] = None if v is None else perm[v]
    return tuple(tuple(r) for r in out)


def serialize(names, rows) -> str:
    out = ["elements: " + " ".join(names)]
    for name, row in zip(names, rows):
        out.append(f"{name}: " + " ".join("-" if v is None else names[v] for v in row))
    return "\n".join(out) + "\n"


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _build(rng, classes, kind, construction, na, nb):
    """(rows, first factor rows or None, index -> first-factor index)."""
    if kind == "normal":
        # the larger factor is a normal right poloid that is not a poloid
        # (there is none with one element); the other may be either kind
        pools = (classes["normal"], rng.choice([classes["normal"], classes["poloid"]]))
    else:
        pools = (classes["poloid"], classes["poloid"])
    a = rng.choice(pools[0][na])
    b = rng.choice(pools[1][nb] or classes["poloid"][nb])
    if construction == "union":
        return disjoint_union(a, b), None, None
    return direct_product(a, b), a, [k // nb for k in range(na * nb)]


def _broken(rng, rows):
    n = len(rows)
    defined = [(x, y) for x in range(n) for y in range(n) if rows[x][y] is not None]
    x, y = rng.choice(defined)
    choices = [None] + [v for v in range(n) if v != rows[x][y]]
    table = [list(r) for r in rows]
    table[x][y] = rng.choice(choices)
    if all(v is None for r in table for v in r):
        table[x][y] = rows[x][y]
    return tuple(tuple(r) for r in table)


def _random_table(rng, n):
    density = rng.uniform(0.2, 0.6)
    table = [[rng.randrange(n) if rng.random() < density else None for _ in range(n)]
             for _ in range(n)]
    table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return tuple(tuple(r) for r in table)


def build_item(index: int, classes, directory: Path) -> list[Request]:
    """Write recipe ``index``'s files under ``directory``; return its requests."""
    rng = random.Random(f"cli_mix/{index}")
    kind, construction, na, nb = STRATA[index % len(STRATA)]
    projection = None
    if kind == "random":
        rows = _random_table(rng, na)
    else:
        rows, factor, projection = _build(rng, classes, kind, construction, na, nb)
        if kind == "broken":
            rows, projection = _broken(rng, rows), None
    n = len(rows)
    order = _shuffled(rng, n)  # hide the block structure from index order
    rows = relabel(rows, order)
    names = [f"x{i}" for i in range(n)]
    perm = _shuffled(rng, n)
    renamed = [f"y{i}" for i in range(n)]

    d = directory / f"i{index:03d}"
    d.mkdir(parents=True, exist_ok=True)
    src, copy = d / "src.magma", d / "relabel.magma"
    src.write_text(serialize(names, rows))
    copy.write_text(serialize(renamed, relabel(rows, perm)))
    s = str(src)
    requests: list[Request] = []

    def add(*argv, **extra):
        requests.append(Request(f"{index}.{len(requests)}", argv, **extra))

    add("classify", "--json", s)
    if kind in ("poloid", "normal"):
        pre = ("--pre",) if kind == "normal" else ()
        embedded, maps = str(d / "embed.out"), str(d / "embed.maps")
        pairs = [(x, y) for x in range(n) for y in range(n)]
        if rng.random() < 0.75:
            pairs = [(x, y) for x, y in pairs if rows[x][y] is not None]
        x, y = rng.choice(pairs)
        add("embed", s, *pre, source=s)
        add("embed", s, *pre, "-o", embedded, output=embedded, maps_out=maps, source=s)
        add("compose", maps, names[x], names[y])
        add("classify", "--json", maps)
    add("iso", s, str(copy))
    if kind == "poloid":
        hom = d / "relabel.hom"
        hom.write_text("".join(f"hom: {names[i]} -> {renamed[perm[i]]}\n" for i in range(n)))
        add("check-hom", s, str(copy), str(hom))
        if projection is not None:
            fnames = [f"a{i}" for i in range(len(factor))]
            fa, proj = d / "factor.magma", d / "projection.hom"
            fa.write_text(serialize(fnames, factor))
            # element k of the product sits at position order[k] after shuffling
            proj.write_text("".join(
                f"hom: {names[order[k]]} -> {fnames[projection[k]]}\n" for k in range(n)))
            add("check-hom", s, str(fa), str(proj))
    return requests


def corpus(seed: int, classes, directory: Path) -> list[Request]:
    """The seed's corpus: ``PER_STRATUM`` recipes of each stratum, in seed order."""
    rng = random.Random(seed)
    strata = len(STRATA)
    chosen = [s + strata * v for s in range(strata)
              for v in rng.sample(range(POOL_SIZE // strata), PER_STRATUM)]
    rng.shuffle(chosen)
    requests = []
    for index in chosen:
        requests += build_item(index, classes, directory)
    return requests
