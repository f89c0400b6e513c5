"""A fixed reference computation that the benchmark rescales times by.

It imports nothing but `time`, so that a fresh interpreter can run it
before timing the import of the program without changing what that import
has to load.
"""

import time


def reference() -> float:
    """Seconds of a fixed pure-Python computation.

    It does the kind of work the program does (dict updates, big-integer
    products and floor divisions) but runs none of its code.  The
    machine's speed drifts by up to a factor of two, in spells from
    milliseconds to minutes, when other guests load the host; the ratio
    of a time to the mean of the reference times taken around it drifts
    far less, and a change to the program cannot move the reference.
    """
    t0 = time.perf_counter()
    d, x = {}, 1
    for i in range(4000):
        d[i % 97] = d.get(i % 97, 0) + i
        x = x * 3 + i
    a = 1
    for k in range(1, 80):
        a = a * k + (a // 7) % 1000003
    return time.perf_counter() - t0
