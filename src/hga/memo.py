"""Per-object memoisation of derived data.

``memo(obj, key, compute)`` returns the value stored for ``key`` on ``obj``,
computing and storing it on first use.  The table lives in the object's own
``__dict__``, so each value lives exactly as long as the object it derives
from; a table keyed by ``id()`` would either outlive its objects or keep them
alive through values that refer back to them (an algebra and its
presentation).

A memoised value must be a deterministic function of an object that is not
mutated after construction, and callers treat it as read-only.  Two threads
may both compute a missing value; ``dict.setdefault`` keeps the first one
stored, so every caller gets the same object.
"""

from itertools import count

_MISSING = object()
# next() on an itertools.count is one C call, so under the GIL the counts
# stay exact without a lock
_hits = count()
_misses = count()


def memo(obj, key, compute):
    """The value of ``compute()`` memoised on ``obj`` under ``key``."""
    table = obj.__dict__.get("_memo")
    if table is None:
        table = obj.__dict__.setdefault("_memo", {})
    value = table.get(key, _MISSING)
    if value is _MISSING:
        value = table.setdefault(key, compute())
        next(_misses)
    else:
        next(_hits)
    return value


def peek(obj, key):
    """The value stored for ``key`` on ``obj``, or None; computes nothing."""
    return obj.__dict__.get("_memo", {}).get(key)


def _current(counter):
    """The next value of an itertools.count, read without advancing it."""
    return int(repr(counter)[len("count("):-1])


def stats():
    """Hit and miss counts of every ``memo`` call in this process.

    The two counts are read one after the other, so a call made by another
    thread in between may show in one and not the other.  Each count is
    exact only where ``next()`` on an ``itertools.count`` cannot interleave,
    as under the GIL; a free-threaded build may lose increments.
    """
    return {"hits": _current(_hits), "misses": _current(_misses)}
