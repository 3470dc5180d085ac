"""Byte-for-byte transcript of the maxplus CLI on random small matrices.

    python tests/transcript.py --src src --seed 1 --count 1500

Draws `count` matrices from random.Random(seed): n from 1 to 7, with
random, acyclic (strictly upper triangular) and irreducible (a planted
Hamiltonian cycle) supports, so reducible ones come up too; 30 % of them
have weights in {0, 1}, so ties and multi-component critical graphs are
common.  Every tenth draw instead runs `generate` with random arguments
and, when that succeeds, goes on with the generated matrix.

For each matrix it calls `maxplus.cli.main` in process: `analyze` plain
and with --json; `check-dm` and `check-wiel` plain, with --json and with
a random --numbering; `check-crit-rc` plain and with --json; `csr`,
`powers` and `oracle` (plain and --json) at random t and endpoints.
Each call's arguments, exit code, stdout and stderr go into one sha256.

The same hash then takes in library readers that no verb prints, each
read on a matrix parsed afresh, its value or its exception:
`hamiltonian_cycles` and `enumerate_cycles` with max_length 1 to n;
`visualize`; the full CSR triple's `.c`, `.r` and `.s` and `csr_at` at
a few t; and the same for the triple of each of `critical_components`.

It prints the number of CLI calls per exit code and the hash; two source
trees give the same hash exactly when every call and every reader gave
the same bytes.

The package is imported from --src, so the same script runs against a
checkout of any commit.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path


def random_matrix_text(rng: random.Random) -> str:
    """A random matrix in the CLI's text form."""
    n = rng.randint(1, 7)
    binary = rng.random() < 0.3
    den = rng.choice((1, 2, 3, 5))
    density = rng.choice((0.2, 0.4, 0.6, 0.9))
    shape = rng.choice(("random", "random", "acyclic", "irreducible", "irreducible"))

    def weight() -> str:
        return str(rng.randint(0, 1)) if binary else str(Fraction(rng.randint(-6 * den, 6 * den), den))

    rows = [[weight() if rng.random() < density else "-inf" for _ in range(n)] for _ in range(n)]
    if shape == "acyclic":
        rows = [[w if j > i else "-inf" for j, w in enumerate(row)] for i, row in enumerate(rows)]
    elif shape == "irreducible":
        order = rng.sample(range(n), n)
        for k in range(n):
            rows[order[k]][order[(k + 1) % n]] = weight()
    return "\n".join([str(n)] + [" ".join(row) for row in rows]) + "\n"


def generate_args(rng: random.Random) -> list[str]:
    """Random `generate` arguments, some of them rejected by the generators."""
    n = rng.randint(1, 7)
    if rng.random() < 0.5:
        return ["generate", "dm", "--n", str(n), "--g", str(rng.randint(1, n)), "--seed", str(rng.randint(0, 3))]
    return ["generate", "wielandt", "--n", str(n), "--case", rng.choice(("n-1", "n")), "--seed", str(rng.randint(0, 3))]


def verb_args(rng: random.Random, n: int) -> list[list[str]]:
    """The calls made on one matrix of dimension n; "FILE" marks its path."""
    numbering = ",".join(map(str, rng.sample(range(n), n)))
    t, i, j = str(rng.randint(1, 30)), str(rng.randrange(n)), str(rng.randrange(n))
    oracle = ["oracle", "FILE", "--i", i, "--j", j, "--t", str(rng.randint(1, 12))]
    return [
        ["analyze", "FILE"],
        ["analyze", "FILE", "--json"],
        ["check-dm", "FILE"],
        ["check-dm", "FILE", "--json"],
        ["check-dm", "FILE", "--numbering", numbering],
        ["check-wiel", "FILE"],
        ["check-wiel", "FILE", "--json"],
        ["check-wiel", "FILE", "--numbering", numbering],
        ["check-crit-rc", "FILE"],
        ["check-crit-rc", "FILE", "--json"],
        ["csr", "FILE", "--t", t],
        ["powers", "FILE", "--t", t],
        oracle,
        oracle + ["--json"],
    ]


READER_TS = (1, 2, 3, 7)


def library_readings(text: str) -> list[tuple[str, str]]:
    """(reader, its value or exception) for the library readers on one matrix."""
    import maxplus as mp

    def cycles(cap: int) -> str:
        found = mp.enumerate_cycles(mp.parse_matrix(text), max_length=cap)
        return repr([(c.nodes, c.length, str(c.weight)) for c in found])

    def visualized() -> str:
        d, b = mp.visualize(mp.parse_matrix(text))
        return " ".join(map(str, d.d)) + "\n" + mp.render_matrix(b)

    def triple(t) -> str:
        parts = [mp.csr_at(t, k) for k in READER_TS] + [t.c, t.r, t.s]
        return "".join(map(mp.render_matrix, parts)) + f"{t.lam} {t.gamma}\n"

    def component_triples() -> str:
        a = mp.parse_matrix(text)
        return "|".join(triple(mp.build_csr(a, comp)) for comp in mp.critical_components(mp.critical_graph(a)))

    n = int(text.split("\n", 1)[0])
    readers = [("hamiltonian_cycles", lambda: repr(mp.hamiltonian_cycles(mp.parse_matrix(text))))]
    readers += [(f"enumerate_cycles max_length={k}", lambda k=k: cycles(k)) for k in range(1, n + 1)]
    readers += [
        ("visualize", visualized),
        ("build_csr", lambda: triple(mp.build_csr(mp.parse_matrix(text)))),
        ("critical_components", component_triples),
    ]
    out = []
    for name, read in readers:
        try:
            value = read()
        except Exception as exc:  # an exception is recorded, not raised
            value = f"raised {type(exc).__name__}: {exc}"
        out.append((name, value))
    return out


def transcript(seed: int, count: int) -> tuple[Counter, str]:
    """(CLI calls per exit code, sha256 hex digest) of the transcript."""
    from maxplus.cli import main

    rng = random.Random(seed)
    digest = hashlib.sha256()
    codes: Counter = Counter()

    def call(args: list[str], path: str) -> tuple[object, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main([path if x == "FILE" else x for x in args])
            except Exception as exc:  # a crash is recorded, not raised
                rc = f"raised {type(exc).__name__}: {exc}"
        codes[rc if isinstance(rc, int) else "raised"] += 1
        digest.update("\x1f".join([" ".join(args), str(rc), out.getvalue(), err.getvalue()]).encode() + b"\x1e")
        return rc, out.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.txt")
        for k in range(count):
            text = random_matrix_text(rng)
            if k % 10 == 0:
                rc, out = call(generate_args(rng), path)
                if rc == 0:
                    text = out
            Path(path).write_text(text)
            n = int(text.split("\n", 1)[0])
            for args in verb_args(rng, n):
                call(args, path)
            for name, value in library_readings(text):
                digest.update("\x1f".join([name, value]).encode() + b"\x1e")
    return codes, digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the maxplus package")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=1500)
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import maxplus

    if Path(maxplus.__file__).resolve().parent.parent != src:
        parser.error(f"maxplus was imported from {maxplus.__file__}, not from {src}")
    codes, hexdigest = transcript(args.seed, args.count)
    for rc in sorted(codes, key=str):
        print(f"exit {rc}: {codes[rc]}")
    print(f"sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
