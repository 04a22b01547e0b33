"""Back-history for resolving LZ77 backreferences.

A backreference <length, distance> copies ``length`` bytes starting
``distance`` bytes back from the end of the output produced so far.
Copying is byte-at-a-time, so a length may exceed its distance: the
bytes written by the copy become sources for its own later bytes,
which is how short periodic runs are spelled.

Distances never exceed 32768, so a resolver needs at most that much
history.  Two windows are provided:

* ``RingWindow``: every byte decoded so far in one buffer, the output
  that ``inflate`` builds and its own history, as in zlib's
  ``inflate_fast``.  Its resolver copies slices with the same
  byte-at-a-time semantics: a backreference no longer than its
  distance is one slice, and a longer one repeats the period of its
  last ``distance`` bytes.
* ``QueueOfDoom``: two persistent ExpLists, the paper's model of the
  window.  New bytes are pushed onto the front list; when the front
  reaches capacity it becomes the back list wholesale and the previous
  back is dropped (doomed).  Lookups beyond the front fall through to
  the back, so between W and 2W bytes are reachable once warm.

QueueOfDoom is a reference model, not a production path: nothing in the
package decodes with it.  The tests (acceptance criterion 6 among them)
check the ring's resolver against the queue's, which copies one byte
at a time.
"""

from __future__ import annotations

from typing import Union

from .errors import DistanceTooFar, IndexOutOfRange, ValueOutOfRange

WINDOW_SIZE = 32768


# -- token vocabulary ---------------------------------------------------
#
# Plain __slots__ classes rather than dataclasses: tokens are minted in
# the innermost codec loops, where construction cost is visible.  Treat
# instances as immutable values.


class Literal:
    """A single plain byte."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if not 0 <= value <= 255:
            raise ValueOutOfRange(f"literal byte {value} not in 0..255")
        self.value = value

    def __eq__(self, other):
        return type(other) is Literal and other.value == self.value

    def __hash__(self):
        return hash((Literal, self.value))

    def __repr__(self):
        return f"Literal({self.value})"


# One shared token per byte value, so a literal costs no construction.
LITERALS = tuple(Literal(v) for v in range(256))


class BackRef:
    """Copy ``length`` bytes from ``distance`` bytes back."""

    __slots__ = ("length", "distance")

    def __init__(self, length: int, distance: int):
        if not 3 <= length <= 258:
            raise ValueOutOfRange(f"match length {length} not in 3..258")
        if not 1 <= distance <= WINDOW_SIZE:
            raise ValueOutOfRange(f"distance {distance} not in 1..{WINDOW_SIZE}")
        self.length = length
        self.distance = distance

    def __eq__(self, other):
        return (
            type(other) is BackRef
            and other.length == self.length
            and other.distance == self.distance
        )

    def __hash__(self):
        return hash((BackRef, self.length, self.distance))

    def __repr__(self):
        return f"BackRef({self.length}, {self.distance})"


class EndOfBlock:
    """Marks the end of one compressed block; produces no bytes."""

    __slots__ = ()

    def __repr__(self):
        return "EndOfBlock()"


END_OF_BLOCK = EndOfBlock()


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


# -- the two window shapes ----------------------------------------------


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


class RingWindow:
    """Every byte of output so far, oldest first, in one buffer.

    The output is its own history: a backreference reaches at most
    32768 bytes back, into ``buf``.  The class keeps its ring-era name
    because ``bench/traced.py`` wraps its push_bytes.
    """

    __slots__ = ("buf",)

    def __init__(self):
        self.buf = bytearray()

    def push_bytes(self, data) -> None:
        """Append data to the output."""
        self.buf += data


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


def resolve_tokens_ring(tokens, window: RingWindow) -> tuple[bytes, RingWindow]:
    """Resolve tokens against a RingWindow; same contract as resolve_tokens.

    The batch is resolved in place at the end of ``window.buf``, and
    every backreference is a slice copy: one slice when the length is at
    most the distance, else the last ``distance`` bytes repeated, which
    is what a byte-at-a-time copy writes.  A distance past the output
    raises DistanceTooFar and leaves the window as it was.  The window
    object is updated in place and returned with the batch's bytes.
    """
    out = window.buf
    start = len(out)
    append = out.append
    for t in tokens:
        if type(t) is Literal:
            append(t.value)
        elif type(t) is BackRef:
            d = t.distance
            if d > len(out):
                message = f"distance {d} exceeds the {len(out)} bytes of available history"
                del out[start:]
                raise DistanceTooFar(message)
            n = t.length
            if n <= d:
                src = len(out) - d
                out += out[src : src + n]
            else:
                out += (out[-d:] * (n // d + 1))[:n]
    return bytes(out[start:]), window
