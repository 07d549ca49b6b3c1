"""A deterministic cost meter: executed lines of `ecadvice` code over a call.

A count of lines does not depend on the host's speed or load, so a test can
bound how the work of a call grows with its input without timing it.
"""

from __future__ import annotations

import sys


def _ours(frame) -> bool:
    name = frame.f_globals.get("__name__", "")
    return name == "ecadvice" or name.startswith("ecadvice.")


def count_lines(fn, *args, **kwargs):
    """Call fn(*args, **kwargs) and return (its result, the number of
    `sys.settrace` "line" events in frames of the `ecadvice` package and
    its modules during the call).

    The tracer that was set before, such as coverage's, is put back when
    the call returns or raises.  Limits: the work done inside one C call
    (`sorted`, `bisect.insort`, building a dict from an iterable) counts as
    the one line that makes it, and the cyclic garbage collector's work is
    not counted at all.  Code outside the package, the standard library's
    included, is not counted.
    """
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        return local if _ours(frame) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.settrace(previous)
    return result, count
