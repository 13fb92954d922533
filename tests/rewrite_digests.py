"""The output-digest corpus: seeded graphs, the CLI commands run on them,
and one sha256 per command.

    python tests/rewrite_digests.py

rewrites ``tests/output_digests.json`` from the library as it stands.  Do
that only for a change that moves an output on purpose or changes the
corpus, and name the commands that moved or were added in ``CHANGES.md``.
``tests/test_output_digests.py`` recomputes every digest and names the
commands whose digest moved.

The graphs come from the benchmark's library-free ``instances`` module:
``grow_reference`` Laman bases for every k at n = 2-12, each also plus one
edge, plus two edges and minus two edges, and ``random_edge`` graphs with
n <= 8.  Besides the commands run on each graph, three seeded ``gen``
calls per k and one ``selftest`` are pinned.  A digest covers the exit
code, stdout, stderr and the bytes of the file ``render`` writes; the
temporary directory is replaced by a fixed token first, so the digest
does not depend on where it ran.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.append(os.path.join(HERE, "..", "bench"))

from crystal_rigidity.cli import main  # noqa: E402
from instances import graph_text, grow_reference, random_edge, rep_full  # noqa: E402

MANIFEST = os.path.join(HERE, "output_digests.json")
KS = (2, 3, 4, 6)
TOKEN = "<tmp>"
# (n, m, color bound) of the seeded ``gen`` calls, run for every k.
GEN = ((1, 0, 2), (3, 7, 2), (8, 20, 5))


def graphs() -> List[Tuple[str, str]]:
    """(name, graph file text) of every corpus graph."""
    out = []
    for k in KS:
        for n in range(2, 13):
            rng = random.Random(f"digest:{k}:{n}")
            cands, flags, _, _ = grow_reference(k, n, rng)
            basis = [e for e, ok in zip(cands, flags) if ok]
            plus = [random_edge(k, n, rng) for _ in range(2)]
            drop = set(rng.sample(range(len(basis)), 2))
            variants = {
                "basis": basis,
                "plus1": basis + plus[:1],
                "plus2": basis + plus,
                "minus2": [e for i, e in enumerate(basis) if i not in drop],
            }
            out += [(f"k{k}-n{n:02d}-{v}", graph_text(k, n, edges)) for v, edges in variants.items()]
        for n in range(1, 9):
            rng = random.Random(f"digest-random:{k}:{n}")
            m = rng.randint(0, 2 * n + rep_full(k) + 2)
            edges = [random_edge(k, n, rng) for _ in range(m)]
            out.append((f"k{k}-n{n:02d}-random", graph_text(k, n, edges)))
    return out


def commands(name: str) -> List[List[str]]:
    """The argv of every command run on graph ``name`` (its path is ``{path}``,
    the SVG that ``render`` writes ``{svg}``)."""
    seed = str(int(hashlib.sha256(name.encode()).hexdigest()[:8], 16))
    out = []
    for family in ("laman", "22", "11", "gencone11"):
        out.append(["check", "{path}", "--family", family])
        out.append(["check", "{path}", "--family", family, "--json"])
    for bound in ("100", str(10**9)):
        out.append(["realize", "{path}", "--seed", seed, "--bound", bound, "--json"])
    out.append(["realize", "{path}", "--seed", seed, "--bound", str(10**9)])
    out.append(["rank", "{path}", "--seed", seed, "--json"])
    out.append(["rank", "{path}", "--seed", seed])
    out.append(["render", "{path}", "--seed", seed, "--radius", "1", "--out", "{svg}"])
    return out


def _run(argv: List[str], tmp: str, svg: str) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    h = hashlib.sha256()
    for part in (str(code), stdout.getvalue(), stderr.getvalue()):
        h.update(part.replace(tmp, TOKEN).encode())
        h.update(b"\0")
    if os.path.exists(svg):
        with open(svg, "rb") as fh:
            h.update(fh.read())
        os.remove(svg)
    return h.hexdigest()


def digests() -> Dict[str, str]:
    """Command name -> sha256, for the whole corpus."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        svg = os.path.join(tmp, "out.svg")
        for name, text in graphs():
            path = os.path.join(tmp, name + ".txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            for argv in commands(name):
                key = " ".join([name] + argv[:1] + argv[2:]).replace(" --out {svg}", "")
                out[key] = _run([a.format(path=path, svg=svg) for a in argv], tmp, svg)
        for k in KS:
            for n, m, bound in GEN:
                argv = ["gen", str(k), str(n), str(m), "--color-bound", str(bound), "--seed", str(k * n)]
                out[" ".join(argv)] = _run(argv, tmp, svg)
        out["selftest --scale 0.2 --seed 1"] = _run(["selftest", "--scale", "0.2", "--seed", "1"], tmp, svg)
    return out


if __name__ == "__main__":
    table = digests()
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} digests to {MANIFEST}")
