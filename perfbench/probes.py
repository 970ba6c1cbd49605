"""Timers the traced run wraps around public functions of each layer.

The benchmark never edits the program: it swaps a public attribute
(``ShiftInvertOperator.matvec``, ``JobQueue.enqueue``, ...) for a timing
wrapper for the duration of a ``with`` block and restores it after.
Wrappers only see calls made in this process.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple


class CallTimer:
    """Durations (and optionally outcomes) of every call to one callable.

    ``list.append`` is atomic under the interpreter lock, so concurrent
    request threads may record into one timer.
    """

    def __init__(self, classify: Optional[Callable[[Any], Any]] = None):
        self.classify = classify
        self.samples: List[float] = []
        self.outcomes: List[Any] = []

    def total(self) -> float:
        return float(sum(self.samples))


@contextmanager
def wrapped(owner: Any, attr: str, timer: CallTimer) -> Iterator[CallTimer]:
    """Time every call of ``owner.attr`` into ``timer`` inside the block."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            timer.samples.append(time.perf_counter() - started)
        if timer.classify is not None:
            timer.outcomes.append(timer.classify(result))
        return result

    setattr(owner, attr, timed)
    try:
        yield timer
    finally:
        setattr(owner, attr, original)


@contextmanager
def all_wrapped(
    targets: Sequence[Tuple[Any, str, CallTimer]],
) -> Iterator[None]:
    """Apply :func:`wrapped` to every ``(owner, attr, timer)`` at once."""
    with ExitStack() as stack:
        for owner, attr, timer in targets:
            stack.enter_context(wrapped(owner, attr, timer))
        yield
