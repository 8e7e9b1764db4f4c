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

import threading

_MISSING = object()
_lock = threading.Lock()
_counts = {"hits": 0, "misses": 0}


def memo(obj, key, compute):
    """The value of ``compute()`` memoised on ``obj`` under ``key``."""
    table = obj.__dict__.get("_memo")
    if table is None:
        table = obj.__dict__.setdefault("_memo", {})
    value = table.get(key, _MISSING)
    kind = "hits"
    if value is _MISSING:
        value = table.setdefault(key, compute())
        kind = "misses"
    with _lock:
        _counts[kind] += 1
    return value


def peek(obj, key):
    """The value stored for ``key`` on ``obj``, or None; computes nothing."""
    return obj.__dict__.get("_memo", {}).get(key)


def stats():
    """Hit and miss counts of every ``memo`` call in this process."""
    with _lock:
        return dict(_counts)
