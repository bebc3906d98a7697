"""Record the benchmark's inputs and goldens from the current sources.

    python3 perfbench/record_goldens.py

Run once, at the commit that defines the benchmark; later commits are
checked against what it wrote to ``perfbench/goldens/``:

* ``classes.json``: one table per isomorphism class of poloids and of
  normal right poloids that are not poloids, with 1-4 elements, in the
  enumeration's flat encoding.  The ``cli_mix`` recipes build from
  them, so an existing file is kept.
* ``census3.json``, ``enum4.json``: exit code, stdout and its digest of
  each enumeration command, plus its work items (tables classified, or
  labelled tables the walk yielded).
* ``cli_mix.json``: exit code and digest of every request of every
  recipe in the pool.  Recording fails if a request raises or an embed
  output fails the oracle.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # puts perfbench/ on sys.path
import corpus

sys.path.insert(0, str(run.SRC))
from poloids import cli, enumeration  # noqa: E402


def _dump(name: str, data) -> None:
    path = run.GOLDENS / f"{name}.json"
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path}")


def classes() -> dict:
    out = {"poloid": {}, "normal": {}}
    for n in range(1, 5):
        poloids = {enumeration.canonical_form(m) for m in enumeration.filtered(n, "poloid")}
        normal = {enumeration.canonical_form(m) for m in enumeration.filtered(n, "normal")}
        out["poloid"][n] = sorted(poloids)
        out["normal"][n] = sorted(normal - poloids)
        print(f"n={n}: {len(poloids)} poloid classes, {len(normal - poloids)} other normal")
    return out


def record(req: corpus.Request, **extra) -> dict:
    outcome = run.execute(cli.main, req)
    if not isinstance(outcome.rc, int):
        raise SystemExit(f"{req.key}: {' '.join(req.argv)} raised {outcome.rc}")
    if req.source is not None and not run.embed_is_faithful(req, outcome.text):
        raise SystemExit(f"{req.key}: embed output fails the oracle")
    return {"exit": outcome.rc, "sha256": outcome.digest, **extra}, outcome


def record_enumeration() -> None:
    census, outcome = record(corpus.Request("census3", ("enumerate", "-n", "3")))
    census["stdout"] = outcome.text
    census["items"] = int(outcome.text.split("\n")[0].split(": ")[1])
    _dump("census3", {"census3": census})

    enum4 = {}
    for f in run.ENUM4_FILTERS:
        key = f"enum4.{f}"
        golden, outcome = record(corpus.Request(key, ("enumerate", "-n", "4", "--filter", f,
                                                      "--up-to-iso")))
        golden["stdout"] = outcome.text
        golden["items"] = sum(1 for _ in enumeration.filtered(4, f))
        enum4[key] = golden
    _dump("enum4", enum4)


def record_pool() -> None:
    pool = {}
    workdir = run.WORK / "record-goldens"
    try:
        loaded = corpus.load_classes()
        for index in range(corpus.POOL_SIZE):
            for req in corpus.build_item(index, loaded, workdir):
                pool[req.key] = record(req)[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _dump("cli_mix", pool)


def main() -> None:
    run.GOLDENS.mkdir(exist_ok=True)
    if not corpus.CLASSES_FILE.exists():
        _dump("classes", classes())
    record_enumeration()
    record_pool()


if __name__ == "__main__":
    main()
