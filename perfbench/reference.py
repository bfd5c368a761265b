"""A fixed block of pure-Python work, timed next to chrdc's jobs.

On a shared host the same code runs up to half again as long while other
tenants are busy, in spells of seconds to minutes: a run's median job time then mostly says how much of the run
fell in such spells. The benchmark therefore times this block between
passes and scales each pass's job times by REFERENCE_MS over the block's
measured time, so the times it reports are those of a host on which the
block takes REFERENCE_MS.

The block does the kind of work chrdc does (unification of nested terms
with dict environments, building tuples and frozensets, sorting), never
changes, and does not import chrdc, so a change to chrdc moves the job
times and not the scale. It walks a pool of terms of about 8 MB, larger
than a core's caches as chrdc's heap is: blocks over pools of a quarter
of that size or less sped up in the host's fast spells by more than
chrdc did, and scaled by them the run-to-run spread of the benchmark's
times was up to twice as wide.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

# Reported times are those of a host on which the block takes this long:
# about its time outside fast spells with Python 3.11 on a 2-vCPU host.
REFERENCE_MS = 30.0


def _term(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice(("X", "Y", "Z", "W", "a", "b"))
    return (rng.choice("fgh"), _term(rng, depth - 1), _term(rng, depth - 1))


_rng = random.Random("perfbench-reference")
POOL = tuple(_term(_rng, 5) for _ in range(4000))
del _rng


def _unify(a, b, env):
    if isinstance(a, str):
        a = env.get(a, a)
    if isinstance(b, str):
        b = env.get(b, b)
    if a == b:
        return env
    if isinstance(a, str) and a[0].isupper():
        return {**env, a: b}
    if isinstance(b, str) and b[0].isupper():
        return {**env, b: a}
    if isinstance(a, tuple) and isinstance(b, tuple) and a[0] == b[0]:
        for x, y in zip(a[1:], b[1:]):
            env = _unify(x, y, env)
            if env is None:
                return None
        return env
    return None


def _apply(t, env):
    if isinstance(t, tuple):
        return (t[0],) + tuple(_apply(a, env) for a in t[1:])
    return env.get(t, t)


def block() -> int:
    """The fixed work; returns a checksum so that none of it is skipped."""
    n = 0
    for i in range(850):
        # Strides through the pool, so that successive pairs lie apart.
        a = POOL[i * 7919 % len(POOL)]
        b = POOL[(i * 104729 + 13) % len(POOL)]
        env = _unify(a, b, {})
        if env is not None:
            n += len(frozenset(_apply(a, env)[1:]))
        n += len(sorted((a[1], b[1], a[2], b[2]), key=repr))
    return n


CHECKSUM = block()


def time_block() -> float:
    """Seconds the block takes now. The cyclic garbage collector is off
    meanwhile: the block makes no cycles, and a collection would time the
    size of chrdc's heap instead of the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        checksum = block()
        seconds = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if checksum != CHECKSUM:
        raise RuntimeError("the reference block gave another result")
    return seconds
