"""Host-speed probe: fixed allocation and random access over a large heap.

    python3 perfbench/probe.py [--serve]

Prints the seconds one pass takes; with ``--serve`` it makes one pass
per line read from standard input, until end of input.  The benchmark
keeps one serving process per run and makes a pass on the CPU of every
timed repeat, just before it, then scales the repeat's times by it (see
``README.md``, "Steadiness").  It uses only the standard library and
never imports the simulator, so no change to the program under test can
change what it measures.

One pass allocates 300,000 slotted objects (about 30 MB, far larger
than the caches), links each to a random other and then follows the
links: the object churn and cache misses of a large simulation, which
track the host's slow spells where a cache-resident loop does not.
"""

from __future__ import annotations

import gc
import random
import sys
import time

NODES = 300_000
STEPS = 400_000


class Node:
    __slots__ = ("count", "weight", "next")


def one_pass() -> float:
    rng = random.Random(2)
    nodes = [Node() for _ in range(NODES)]
    for index, node in enumerate(nodes):
        node.count = index
        node.weight = float(index)
        node.next = nodes[rng.randrange(NODES)]
    node, total = nodes[0], 0.0
    for _ in range(STEPS):
        total += node.weight
        node.count += 1
        node = node.next
    return total


def timed_pass() -> float:
    started = time.perf_counter()
    one_pass()
    elapsed = time.perf_counter() - started
    # The links form cycles; free them now so every pass starts alike.
    gc.collect()
    return elapsed


def main(argv: list[str]) -> None:
    if argv == ["--serve"]:
        for _ in sys.stdin:
            print(timed_pass(), flush=True)
    else:
        print(timed_pass())


if __name__ == "__main__":
    main(sys.argv[1:])
