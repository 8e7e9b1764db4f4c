"""Per-object memoisation of derived data.

``memo(obj, key, compute)`` returns the value stored for ``key`` on ``obj``,
computing and storing it on first use.  The table lives in the object's own
``__dict__``, so each value lives exactly as long as the object it derives
from; a table keyed by ``id()`` would either outlive its objects or keep them
alive through values that refer back to them (an algebra and its
presentation).

Lifetime rule: a memoised value never holds its owner strongly, not even
through other memoised values.  Then the memo graph has no cycle, and
reference counting frees an object and all that is memoised under it as
soon as the last name for it is dropped, with no wait for the cyclic
collector.  A value that must refer back to its owner does so through one
weak reference.  Three memo entries are weak, and each is needed:

- ``reps.projective``: P_v is a weak entry on its algebra.  P_v holds its
  algebra, as every module does, and a single-summand cover is the shared
  P_v, so a strong entry would close the cycle algebra -> P_v -> algebra.
  Its dims and maps stay memoised as plain data, so a P_v built again
  after its death costs one constructor call and equals the first.
- ``reps.dual`` of a memoised P_v is a weak entry on P_v.  Held strongly,
  it would close the cycle P_v -> D(P_v) -> its resolution -> P^op_w ->
  D(P^op_w) -> its resolution -> P_v, since the resolution of D(P_v)
  covers by projectives of the opposite, whose duals cover by P_v again.
- ``Algebra.opposite()``: an algebra holds its opposite, and the opposite
  holds the algebra in a weak entry under the same key: ``(A^op)^op`` is
  A, and a strong entry would close the cycle A -> A^op -> A.

A resolution is memoised on the module m it resolves and holds no m,
weakly or not: its cover map P_0 -> m is built on each read, for the m
its reader holds (``reps._cover_map``), and P_v's own resolution is built
on each call.

A memoised value must be a deterministic function of an object that is not
mutated after construction, and callers treat it as read-only.  Two threads
may both compute a missing value; ``dict.setdefault`` keeps the first one
stored, so every caller gets the same object.  A weak entry is stored under
a lock, after a second look at the table, so every caller that holds its
value gets the same object too.

An object's table is made under the same lock, and it is looked up with
``getattr``, never through ``obj.__dict__``.  On CPython 3.11 an instance
keeps its attributes in an inline values array until something reads its
``__dict__``; that first read builds a dict over the array, and the dict's
allocation may run the cyclic collector, whose finalizers run Python code
and so may hand the GIL to another thread.  If that thread then reads the
same object's ``__dict__``, it builds a second dict over the same array.
The object keeps only one of them, the first of the two to be freed frees
the array under the other, and a later full collection reads the freed
memory and crashes.  ``getattr`` reads the inline values without
building a dict, so the only read of ``__dict__`` here is the one under the
lock, and hga reads no ``__dict__`` anywhere else.
"""

import threading
import weakref
from itertools import count

_MISSING = object()
# next() on an itertools.count is one C call, so under the GIL the counts
# stay exact without a lock
_hits = count()
_misses = count()
# a weak entry is a weakref stored under (_WEAK, key), so a strong hit costs
# one lookup, as it did before weak entries
_WEAK = object()
# re-entrant, so a collection that runs inside the locked code may call memo
_lock = threading.RLock()


def memo(obj, key, compute, weak=False):
    """The value of ``compute()`` memoised on ``obj`` under ``key``; held
    through a weak reference when ``weak`` (see the module docstring)."""
    table = getattr(obj, "_memo", None)
    if table is None:
        with _lock:
            table = obj.__dict__.setdefault("_memo", {})
    value = table.get(key, _MISSING)
    if value is _MISSING:
        return _missed(table, key, compute, weak)
    next(_hits)
    return value


def _missed(table, key, compute, weak):
    """``memo`` with no strong entry stored: a live weak entry is a hit,
    and a new value is stored strongly, or weakly under a lock after a
    second look, so that every caller holding it gets the same object."""
    ref = table.get((_WEAK, key))
    if ref is not None:
        value = ref()
        if value is not None:
            next(_hits)
            return value
    next(_misses)
    value = compute()
    if not weak and ref is None:
        return table.setdefault(key, value)
    with _lock:
        stored = table.get(key)
        if stored is None:
            stored = _weak_value(table, key)
        if stored is None:
            if weak:
                table[(_WEAK, key)] = weakref.ref(value)
            else:
                table[key] = value
            return value
    return stored


def _weak_value(table, key):
    """The value of the weak entry for key, or None when there is none or
    it has died."""
    ref = table.get((_WEAK, key))
    return None if ref is None else ref()


def peek(obj, key):
    """The value stored for ``key`` on ``obj``, or None; computes nothing."""
    table = getattr(obj, "_memo", {})
    value = table.get(key)
    return _weak_value(table, key) if value is None else value


def _current(counter):
    """The next value of an itertools.count, read without advancing it."""
    return int(repr(counter)[len("count("):-1])


def stats():
    """Hit and miss counts of every ``memo`` call in this process.

    A weak entry computed again because its value had died is a miss.  The
    counts are read one after the other, so a call made by another thread
    in between may show in one and not another.  Each count is exact only
    where ``next()`` on an ``itertools.count`` cannot interleave, as under
    the GIL; a free-threaded build may lose increments.
    """
    return {"hits": _current(_hits), "misses": _current(_misses)}
