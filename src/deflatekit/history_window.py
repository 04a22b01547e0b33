"""The paper's model of the backreference window: a reference, not a production path.

``QueueOfDoom`` keeps the history in two persistent ExpLists.  New
bytes are pushed onto the front list; when the front reaches capacity
it becomes the back list wholesale and the previous back is dropped
(doomed).  Lookups beyond the front fall through to the back, so
between W and 2W bytes are reachable once warm.  ``resolve_tokens``
folds tokens through it one byte at a time.

Nothing in the package decodes with it, and no production module
imports this module.  The tests (acceptance criterion 6 among them)
check ``inflate.resolve_tokens_ring``, the decoder's slice-copying
resolver, against ``resolve_tokens``.
"""

from __future__ import annotations

from typing import Union

from .errors import DeflateError, DistanceTooFar, ValueOutOfRange
# bench/traced.py imports RingWindow from here.
from .inflate import RingWindow  # noqa: F401
from .symbol_tables import WINDOW_SIZE, BackRef, Literal


# -- ExpList: persistent random-access list -----------------------------
#
# An ExpList is empty, or holds one or two head elements plus a nested
# ExpList of *pairs* of elements.  Each level down doubles the element
# width, so position i is reached in O(log i) hops, and consing is
# amortized O(1) while sharing almost all structure with the old list.
# Index 0 is always the most recently consed element.


class Enil:
    __slots__ = ()

    def __repr__(self):
        return "Enil"


ENIL = Enil()


class Econs1:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


class Econs2:
    __slots__ = ("head", "head2", "tail")

    def __init__(self, head, head2, tail):
        self.head = head
        self.head2 = head2
        self.tail = tail


ExpList = Union[Enil, Econs1, Econs2]


def explist_cons(x, e: ExpList) -> ExpList:
    """Prepend x; the old list remains valid and mostly shared."""
    if e is ENIL:
        return Econs1(x, ENIL)
    if type(e) is Econs1:
        return Econs2(x, e.head, e.tail)
    # Two heads already: pair them up and carry into the tail.
    return Econs1(x, explist_cons((e.head, e.head2), e.tail))


class IndexOutOfRange(DeflateError, IndexError):
    """A sequence index is past the end of the structure."""


def explist_index(e: ExpList, i: int):
    """Element i counted from the most recent cons; O(log i)."""
    if i < 0:
        raise IndexOutOfRange(f"index {i} is negative")
    path = []
    node = e
    while True:
        if node is ENIL:
            raise IndexOutOfRange(f"index {i} is past the end")
        if type(node) is Econs1:
            if i == 0:
                item = node.head
                break
            i -= 1
        else:
            if i == 0:
                item = node.head
                break
            if i == 1:
                item = node.head2
                break
            i -= 2
        path.append(i & 1)
        i >>= 1
        node = node.tail
    # Deeper levels hold nested pairs; select halves outermost first.
    for bit in reversed(path):
        item = item[bit]
    return item


# -- the window ---------------------------------------------------------


class QueueOfDoom:
    """Two-ExpList history window with wholesale eviction.

    ``front`` holds the newest ``front_count`` bytes (index 0 newest).
    Pushing onto a full front demotes it to ``back`` and dooms the old
    back, so the reachable history is front_count + back_count, between
    capacity and 2*capacity once warm.

    Instances are immutable values; push returns a new queue sharing
    structure with the old one.
    """

    __slots__ = ("capacity", "front", "front_count", "back", "back_count")

    def __init__(
        self,
        capacity: int = WINDOW_SIZE,
        front: ExpList = ENIL,
        front_count: int = 0,
        back: ExpList = ENIL,
        back_count: int = 0,
    ):
        if capacity < 1:
            raise ValueOutOfRange(f"capacity {capacity} must be at least 1")
        self.capacity = capacity
        self.front = front
        self.front_count = front_count
        self.back = back
        self.back_count = back_count

    def __repr__(self):
        return (
            f"QueueOfDoom(capacity={self.capacity},"
            f" front_count={self.front_count}, back_count={self.back_count})"
        )

    @property
    def history(self) -> int:
        return self.front_count + self.back_count

    def push(self, b) -> "QueueOfDoom":
        if self.front_count == self.capacity:
            return QueueOfDoom(
                self.capacity, explist_cons(b, ENIL), 1, self.front, self.front_count
            )
        return QueueOfDoom(
            self.capacity,
            explist_cons(b, self.front),
            self.front_count + 1,
            self.back,
            self.back_count,
        )

    def push_bytes(self, data) -> "QueueOfDoom":
        """Push each byte in order; returns the final window."""
        cap = self.capacity
        front, fc = self.front, self.front_count
        back, bc = self.back, self.back_count
        for b in data:
            if fc == cap:
                back, bc = front, fc
                front, fc = ENIL, 0
            front = explist_cons(b, front)
            fc += 1
        return QueueOfDoom(cap, front, fc, back, bc)

    def lookback(self, distance: int):
        """The byte pushed ``distance`` pushes ago (1 = newest)."""
        if distance < 1 or distance > self.front_count + self.back_count:
            raise DistanceTooFar(
                f"distance {distance} exceeds the {self.front_count + self.back_count}"
                " bytes of available history"
            )
        if distance <= self.front_count:
            return explist_index(self.front, distance - 1)
        return explist_index(self.back, distance - self.front_count - 1)


# -- token resolution ---------------------------------------------------


def resolve_tokens(tokens, window: QueueOfDoom) -> tuple[bytes, QueueOfDoom]:
    """Resolve tokens against a QueueOfDoom; returns (bytes, new window).

    The queue's push/lookback are inlined locally: resolution is the
    throughput-critical path and the loop below is the same fold the
    methods would perform.
    """
    out = bytearray()
    append = out.append
    cap = window.capacity
    front, fc = window.front, window.front_count
    back, bc = window.back, window.back_count
    for t in tokens:
        if type(t) is Literal:
            b = t.value
            if fc == cap:
                back, bc = front, fc
                front, fc = ENIL, 0
            front = explist_cons(b, front)
            fc += 1
            append(b)
        elif type(t) is BackRef:
            d = t.distance
            # Checked per byte: a rotation mid-copy can shrink the
            # reachable history when d exceeds the capacity.
            for _ in range(t.length):
                if d <= fc:
                    b = explist_index(front, d - 1)
                elif d <= fc + bc:
                    b = explist_index(back, d - fc - 1)
                else:
                    raise DistanceTooFar(
                        f"distance {d} exceeds the {fc + bc} bytes of available history"
                    )
                if fc == cap:
                    back, bc = front, fc
                    front, fc = ENIL, 0
                front = explist_cons(b, front)
                fc += 1
                append(b)
        # EndOfBlock produces nothing.
    return bytes(out), QueueOfDoom(cap, front, fc, back, bc)
