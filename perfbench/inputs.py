"""Seeded inputs for the decide_* workloads.

Every input is a catalog system rewritten by textual substitution of
elementary automorphisms of the free metabelian Lie ring:

* linear move   x_i -> (x_i + c*x_j),      j != i, c in {-2, -1, 1, 2};
* derived move  x_i -> (x_i +- [x_a,x_b]), a != b, both != i (n >= 3 only).

Each move is invertible (its inverse flips the sign), so the image of a
system under any sequence of moves is primitive exactly when the system is,
and the catalog's label carries over unchanged.  Reading a two-generator
system over three generators keeps its label as well: d3 g = 0, so the
k x k minors of the Jacobi matrix are the same polynomials.

The move counts are fixed per workload and the moves are applied in a
drawn order.  The cost of an image has a long tail (a few images per
thousand at n=3 run for seconds in the Groebner completion), so which images
a run drew would move its time by more than a change to the program.  Each
workload therefore decides one fixed corpus, IMAGES_PER_SYSTEM images of
every catalog system drawn from CORPUS_SEED, the same in every run; the
run's seed orders it, afresh for every pass.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass

CATALOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog.txt")

LABELS = ("primitive", "non-primitive")
CORPUS_SEED = 1
IMAGES_PER_SYSTEM = 50


@dataclass(frozen=True)
class Spec:
    """How one decide_* workload builds its corpus."""

    n: int
    linear_moves: int
    derived_moves: int


SPECS = {
    "decide_n2": Spec(n=2, linear_moves=3, derived_moves=0),
    "decide_n3": Spec(n=3, linear_moves=3, derived_moves=2),
}


def read_catalog(path: str = CATALOG):
    """(n, [(texts, label)]) from a catalog file: header 'n=<count>', then one
    system per line, elements split by ';', label after '@', '#' comments."""
    n = None
    systems = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if n is None:
                if not line.startswith("n="):
                    raise ValueError(f"catalog header expected, got {line!r}")
                n = int(line[2:])
                continue
            body, sep, label = line.partition("@")
            label = label.strip()
            if not sep or label not in LABELS:
                raise ValueError(f"catalog line without a label: {line!r}")
            texts = [t.strip() for t in body.split(";") if t.strip()]
            systems.append((texts, label))
    if n is None or not systems:
        raise ValueError(f"empty catalog {path}")
    return n, systems


def linear_move(rng: random.Random, n: int) -> tuple:
    i, j = rng.sample(range(1, n + 1), 2)
    return ("linear", i, j, rng.choice((-2, -1, 1, 2)))


def derived_move(rng: random.Random, n: int) -> tuple:
    i = rng.randrange(1, n + 1)
    a, b = rng.sample([t for t in range(1, n + 1) if t != i], 2)
    return ("derived", i, a, b, rng.choice((-1, 1)))


def draw_moves(rng: random.Random, spec: Spec) -> list[tuple]:
    moves = [linear_move(rng, spec.n) for _ in range(spec.linear_moves)]
    moves += [derived_move(rng, spec.n) for _ in range(spec.derived_moves)]
    rng.shuffle(moves)
    return moves


def replacement(move: tuple) -> str:
    """The text that replaces x_i under `move`."""
    if move[0] == "linear":
        _, i, j, c = move
        term = f"x{j}" if abs(c) == 1 else f"{abs(c)}*x{j}"
        return f"(x{i} {'+' if c > 0 else '-'} {term})"
    _, i, a, b, sign = move
    return f"(x{i} {'+' if sign > 0 else '-'} [x{a},x{b}])"


_GEN = re.compile(r"x(\d+)")


def apply_move(text: str, move: tuple) -> str:
    """Substitute the move's image for every occurrence of x_i in one pass."""
    i = move[1]
    repl = replacement(move)
    return _GEN.sub(lambda mt: repl if int(mt.group(1)) == i else mt.group(0), text)


def image(texts: list[str], moves: list[tuple]) -> list[str]:
    out = list(texts)
    for move in moves:
        out = [apply_move(t, move) for t in out]
    return out


def corpus(spec: Spec, systems) -> list[tuple[list[str], str]]:
    """IMAGES_PER_SYSTEM images of every catalog system, with their labels."""
    rng = random.Random(CORPUS_SEED)
    return [(image(texts, draw_moves(rng, spec)), label)
            for texts, label in systems for _ in range(IMAGES_PER_SYSTEM)]


def batch(systems, seed: int, index: int) -> list:
    """Pass `index` of a run with `seed`: `systems` in a seeded order."""
    out = list(systems)
    random.Random(seed * 1_000_003 + index).shuffle(out)
    return out
