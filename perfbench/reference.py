"""A stand-in for a ctmt stage that runs no ctmt code, to read the host's speed.

``run.py`` times this script as a whole process, interpreter start-up
included, just before and just after every stage it measures. A shared
host shifts between speeds up to twice apart for a second or so at a
time, and it slows interpreter start-up less than pure-Python work; this
script, like a short stage, spends about half of its time on each.

Usage: python3 perfbench/reference.py
"""

from __future__ import annotations

import random


def task() -> None:
    """Fixed pure-Python work of the kinds the stages do: building and
    slicing lists, tuple keys in a dict, splitting strings and an
    edit-distance table."""
    rng = random.Random(0)
    a = [f"w{rng.randrange(50):02d}" for _ in range(40)]
    b = [f"w{rng.randrange(50):02d}" for _ in range(40)]
    for k in range(72):
        prev = list(range(len(b) + 1))
        for i, x in enumerate(a, 1):
            row = [i]
            for j, y in enumerate(b, 1):
                row.append(min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (x != y)))
            prev = row
        c = a[k % len(a) :] + a[: k % len(a)]
        _ = {tuple(c[i : i + 3]): i for i in range(len(c) - 2)}
        " ".join(c).split()


if __name__ == "__main__":
    task()
