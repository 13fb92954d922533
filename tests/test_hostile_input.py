"""Hostile input: seeded mutations of small graph files through every
command that reads one.

Each file is a seeded random graph with one to three mutations: a field
replaced by a sign, a huge number, a non-ASCII token or a control token,
or a line added, dropped or appended.  Every file runs in process through
``cli.main`` as ``check`` in all four families (text and ``--json``),
``realize``, ``rank`` and ``render``.  Every run exits 0, 1 or 2 and lets
no exception escape; every exit 2 prints exactly one stderr line, a
``parse error:`` for every file the parser rejects; and each file's runs
finish within a fixed time bound.
"""

import contextlib
import io
import random
import time

from crystal_rigidity.cli import main
from crystal_rigidity.colored_graph import GraphParseError, parse_graph, serialize_graph
from crystal_rigidity.generate import random_graph

FILES = 400
# Seconds for all of one file's runs; a clean file takes a few milliseconds.
PER_FILE_SECONDS = 1.0

SIGNS = ["-", "+", "-0", "+1", "--1", "1-", "-+2"]
HUGE = ["9" * 30, "-" + "9" * 30, str(2**63), "1" + "0" * 5000]
NON_ASCII = ["\u0663", "\uff11", "\u00e9", "\u00b3", "1\u00a02", "\u2003", "\u2167"]
CONTROL = ["\x00", "\x0b", "\x0c", "\x1b", "1\x7f", "\r1", "\x85"]
TOKENS = SIGNS + HUGE + NON_ASCII + CONTROL
LINES = ["e 0 0 0 0 1", "e 0 1 1 0 0", "vertices 2", "gamma 4", "e 0 0", "e 1 0 0 0 0 0", "junk", "# note", ""]

COMMANDS = [
    *(["check", "@", "--family", family, *json] for family in ("laman", "22", "11", "gencone11") for json in ([], ["--json"])),
    ["realize", "@", "--seed", "1"],
    ["rank", "@", "--seed", "1"],
    ["render", "@", "--out", "@svg", "--seed", "1", "--radius", "1"],
]


def _mutate(text, rng):
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:  # replace one field of a non-empty line
            row = rng.choice([i for i, line in enumerate(lines) if line] or [0])
            fields = lines[row].split(" ")
            fields[rng.randrange(len(fields))] = rng.choice(TOKENS)
            lines[row] = " ".join(fields)
        elif kind == 1:
            lines.insert(rng.randint(0, len(lines)), rng.choice(LINES))
        elif kind == 2 and lines:
            del lines[rng.randrange(len(lines))]
        else:
            lines.append(rng.choice(LINES + lines))
    return "\n".join(lines)


def _corpus():
    for i in range(FILES):
        rng = random.Random(f"hostile-{i}")
        g = random_graph(rng.choice((2, 3, 4, 6)), rng.randint(1, 4), rng.randint(0, 8), rng)
        yield _mutate(serialize_graph(g), rng)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _rejected(text):
    try:
        parse_graph(text)
    except GraphParseError:
        return True
    return False


def test_mutated_files_exit_cleanly(tmp_path):
    path, svg = tmp_path / "hostile.graph", str(tmp_path / "hostile.svg")
    problems = []
    rejected = 0
    for i, text in enumerate(_corpus()):
        path.write_bytes(text.encode("utf-8"))
        must_reject = _rejected(text)
        rejected += must_reject
        start = time.perf_counter()
        for command in COMMANDS:
            argv = [str(path) if a == "@" else svg if a == "@svg" else a for a in command]
            try:
                code, err = _run(argv)
            except Exception as ex:  # any exception escaping main is a failure
                problems.append(f"file {i} {command[0]}: {type(ex).__name__}: {ex}")
                continue
            lines = err.splitlines()
            if code not in (0, 1, 2):
                problems.append(f"file {i} {command}: exit {code}")
            elif code == 2 and (len(lines) != 1 or not lines[0].startswith(("parse error:", "error:"))):
                problems.append(f"file {i} {command}: exit 2 with stderr {err!r}")
            elif code != 2 and err:
                problems.append(f"file {i} {command}: exit {code} with stderr {err!r}")
            if must_reject and not (code == 2 and err.startswith("parse error:")):
                problems.append(f"file {i} {command}: parser rejects it, but exit {code}")
        elapsed = time.perf_counter() - start
        if elapsed > PER_FILE_SECONDS:
            problems.append(f"file {i}: {elapsed:.2f} s over {PER_FILE_SECONDS} s")
    assert problems == []
    # the corpus reaches both the parser's rejections and the commands
    assert rejected > FILES // 5 and FILES - rejected > FILES // 5
