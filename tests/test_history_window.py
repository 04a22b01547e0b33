"""History windows and backreference resolution.

A plain Python list ordered newest-first serves as the oracle for the
ExpList structure, and the two windows are checked against each other
wherever their contracts coincide (distances within the queue's
capacity; the ring holds the whole output).
"""

import random

import pytest

from deflatekit.errors import DistanceTooFar, ValueOutOfRange
from deflatekit.history_window import (
    ENIL,
    IndexOutOfRange,
    QueueOfDoom,
    explist_cons,
    explist_index,
    resolve_tokens,
)
from deflatekit.inflate import RingWindow, resolve_tokens_ring
from deflatekit.reference import explist_iter, explist_len
from deflatekit.symbol_tables import END_OF_BLOCK, WINDOW_SIZE, BackRef, EndOfBlock, Literal

from conftest import GOLDEN_PLAINTEXT


# -- token values -------------------------------------------------------


def test_literal_value_semantics():
    assert Literal(65) == Literal(65)
    assert Literal(65) != Literal(66)
    assert hash(Literal(65)) == hash(Literal(65))
    assert repr(Literal(65)) == "Literal(65)"
    with pytest.raises(ValueOutOfRange):
        Literal(256)
    with pytest.raises(ValueOutOfRange):
        Literal(-1)


def test_backref_value_semantics():
    assert BackRef(3, 1) == BackRef(3, 1)
    assert BackRef(3, 1) != BackRef(3, 2)
    assert BackRef(3, 1) != Literal(3)
    assert hash(BackRef(5, 8)) == hash(BackRef(5, 8))
    for length, distance in ((2, 1), (259, 1), (3, 0), (3, WINDOW_SIZE + 1)):
        with pytest.raises(ValueOutOfRange):
            BackRef(length, distance)
    BackRef(258, WINDOW_SIZE)  # the extremes are legal


def test_end_of_block_is_a_singleton_marker():
    assert isinstance(END_OF_BLOCK, EndOfBlock)
    assert repr(END_OF_BLOCK) == "EndOfBlock()"


# -- ExpList vs list oracle ----------------------------------------------


def test_explist_matches_a_prepend_only_list():
    rng = random.Random(21)
    e = ENIL
    oracle = []
    for step in range(300):
        x = rng.randrange(1000)
        e = explist_cons(x, e)
        oracle.insert(0, x)
        assert explist_len(e) == len(oracle)
        assert list(explist_iter(e)) == oracle
        for i in (0, len(oracle) - 1, rng.randrange(len(oracle))):
            assert explist_index(e, i) == oracle[i]


def test_explist_is_persistent():
    e1 = explist_cons(1, ENIL)
    e2 = explist_cons(2, e1)
    e3 = explist_cons(3, e2)
    assert list(explist_iter(e3)) == [3, 2, 1]
    assert list(explist_iter(e2)) == [2, 1]  # older versions unchanged
    assert list(explist_iter(e1)) == [1]
    assert list(explist_iter(ENIL)) == []
    assert explist_len(ENIL) == 0


def test_explist_index_errors():
    e = explist_cons(7, explist_cons(8, ENIL))
    with pytest.raises(IndexOutOfRange):
        explist_index(e, 2)
    with pytest.raises(IndexOutOfRange):
        explist_index(e, -1)
    with pytest.raises(IndexOutOfRange):
        explist_index(ENIL, 0)


# -- QueueOfDoom --------------------------------------------------------


def test_capacity_three_eviction_trace():
    # Pushing 1..7 through capacity 3, checking both lists after each
    # push.  The seventh push dooms 3,2,1 wholesale.
    expected = [
        ([1], []),
        ([2, 1], []),
        ([3, 2, 1], []),
        ([4], [3, 2, 1]),
        ([5, 4], [3, 2, 1]),
        ([6, 5, 4], [3, 2, 1]),
        ([7], [6, 5, 4]),
    ]
    q = QueueOfDoom(3)
    for value, (front, back) in zip(range(1, 8), expected):
        q = q.push(value)
        assert list(explist_iter(q.front)) == front
        assert list(explist_iter(q.back)) == back
        assert q.front_count == len(front) and q.back_count == len(back)
        assert q.history == len(front) + len(back)


def test_push_is_persistent():
    q1 = QueueOfDoom(2).push(1)
    q2 = q1.push(2)
    q3 = q2.push(3)
    assert (q1.front_count, q1.back_count) == (1, 0)
    assert (q2.front_count, q2.back_count) == (2, 0)
    assert (q3.front_count, q3.back_count) == (1, 2)
    assert q1.lookback(1) == 1  # untouched by later pushes


def test_queue_capacity_validation():
    with pytest.raises(ValueOutOfRange):
        QueueOfDoom(0)
    assert QueueOfDoom().capacity == WINDOW_SIZE


def test_push_bytes_equals_repeated_push():
    rng = random.Random(23)
    data = rng.randbytes(50)
    stepwise = QueueOfDoom(8)
    for b in data:
        stepwise = stepwise.push(b)
    bulk = QueueOfDoom(8).push_bytes(data)
    assert (bulk.front_count, bulk.back_count) == (stepwise.front_count, stepwise.back_count)
    for d in range(1, bulk.history + 1):
        assert bulk.lookback(d) == stepwise.lookback(d)


def test_queue_lookback_against_pushed_history():
    rng = random.Random(24)
    cap = 11
    q = QueueOfDoom(cap)
    pushed = []
    for _ in range(200):
        b = rng.randrange(256)
        q = q.push(b)
        pushed.append(b)
        assert cap <= q.history <= 2 * cap or q.history == len(pushed)
        for d in range(1, q.history + 1):
            assert q.lookback(d) == pushed[-d]
        with pytest.raises(DistanceTooFar):
            q.lookback(q.history + 1)
        with pytest.raises(DistanceTooFar):
            q.lookback(0)


# -- RingWindow ----------------------------------------------------------


def test_ring_lookback_against_pushed_history():
    # The window keeps every byte pushed, past 32 KiB too.
    rng = random.Random(25)
    ring = RingWindow()
    pushed = bytearray()
    for _ in range(200):
        b = rng.randrange(256)
        ring.push_bytes(bytes([b]))
        pushed.append(b)
        assert ring == pushed
    far = rng.randbytes(WINDOW_SIZE + 1)
    ring.push_bytes(far)
    assert ring == pushed + far


def test_ring_push_bytes_paths():
    rng = random.Random(26)
    for size in (0, 3, 7, 8, 9, 20, 100):
        data = rng.randbytes(size)
        ring = RingWindow()
        ring.push_bytes(b"seed")
        ring.push_bytes(data)
        assert ring == b"seed" + data


# -- resolution ---------------------------------------------------------


def tokens_of(text: str):
    """Tiny builder: 'ab<5,8>c' becomes literals and backrefs."""
    out = []
    i = 0
    while i < len(text):
        if text[i] == "<":
            j = text.index(">", i)
            length, distance = text[i + 1 : j].split(",")
            out.append(BackRef(int(length), int(distance)))
            i = j + 1
        else:
            out.append(Literal(ord(text[i])))
            i += 1
    return out


def both_resolvers(tokens):
    queue_bytes, _ = resolve_tokens(tokens, QueueOfDoom())
    ring = RingWindow()
    resolve_tokens_ring(tokens, ring)
    assert queue_bytes == ring
    return queue_bytes


def test_backref_resolution_examples():
    assert both_resolvers(tokens_of("ananas_b<5,8><3,7>tata")) == GOLDEN_PLAINTEXT
    assert both_resolvers(tokens_of("an<3,2>s_b<5,8><3,7>t<3,2>")) == GOLDEN_PLAINTEXT
    assert both_resolvers(tokens_of("a<7,1>rgh!")) == b"aaaaaaaargh!"


def test_overlapping_copies_lengthen_runs():
    assert both_resolvers(tokens_of("ab<6,2>")) == b"abababab"
    assert both_resolvers(tokens_of("x<258,1>")) == b"x" * 259
    assert both_resolvers(tokens_of("abc<255,3>")) == (b"abc" * 86)


def test_end_of_block_produces_nothing():
    out, _ = resolve_tokens([Literal(65), END_OF_BLOCK, Literal(66)], QueueOfDoom())
    assert out == b"AB"
    ring = RingWindow()
    assert resolve_tokens_ring([END_OF_BLOCK], ring) is None  # it grows ring in place
    assert ring == b""


def test_distance_beyond_history_raises():
    for resolve, window in (
        (resolve_tokens, QueueOfDoom()),
        (resolve_tokens_ring, RingWindow()),
    ):
        with pytest.raises(DistanceTooFar):
            resolve([Literal(97), Literal(98), BackRef(3, 5)], window)


def test_queue_rotation_can_cut_off_a_long_reach_mid_copy():
    # Capacity 4, six pushes: the queue holds 6 bytes (front 2, back 4).
    # A backref at distance 6 works for three bytes, then the rotation
    # dooms the old back and the fourth byte is out of reach.
    q = QueueOfDoom(4).push_bytes(b"abcdef")
    assert q.history == 6
    out, q2 = resolve_tokens([BackRef(3, 6)], q)
    assert out == b"abc"
    with pytest.raises(DistanceTooFar):
        resolve_tokens([BackRef(4, 6)], q)


def test_resolution_is_splittable():
    # Resolving a stream in two calls through the window equals one
    # call: the window carries the whole state.
    tokens = tokens_of("ananas_b<5,8><3,7>tata<20,20><3,1>")
    whole, _ = resolve_tokens(tokens, QueueOfDoom())
    for cut in range(len(tokens) + 1):
        first, q = resolve_tokens(tokens[:cut], QueueOfDoom())
        second, _ = resolve_tokens(tokens[cut:], q)
        assert first + second == whole
        ring = RingWindow()
        resolve_tokens_ring(tokens[:cut], ring)
        assert ring == first
        resolve_tokens_ring(tokens[cut:], ring)
        assert ring == whole


def random_token_stream(rng: random.Random, count: int, max_length: int = 30):
    """Tokens that are always resolvable: distances stay within the
    produced history and the window size."""
    tokens = []
    produced = 0
    while len(tokens) < count:
        if produced >= 3 and rng.random() < 0.2:
            length = rng.randint(3, max_length)
            distance = rng.randint(1, min(produced, WINDOW_SIZE))
            tokens.append(BackRef(length, distance))
            produced += length
        else:
            tokens.append(Literal(rng.randrange(256)))
            produced += 1
    return tokens


def test_window_shapes_agree_on_random_streams():
    rng = random.Random(27)
    queue, ring = QueueOfDoom(), RingWindow()
    for _ in range(30):
        tokens = random_token_stream(rng, 400)
        queue_bytes, queue = resolve_tokens(tokens, queue)
        start = len(ring)
        resolve_tokens_ring(tokens, ring)
        assert queue_bytes == ring[start:]


def test_window_shapes_agree_past_the_window_boundary():
    # Enough output that distances wrap the ring and rotate the queue.
    rng = random.Random(28)
    tokens = []
    produced = 0
    while produced < 3 * WINDOW_SIZE:
        if produced > WINDOW_SIZE and rng.random() < 0.5:
            tokens.append(BackRef(258, rng.randint(WINDOW_SIZE // 2, WINDOW_SIZE)))
            produced += 258
        else:
            run = rng.randrange(1, 64)
            tokens.extend(Literal(rng.randrange(256)) for _ in range(run))
            produced += run
    assert both_resolvers(tokens)


def history_message(distance: int, history: int) -> str:
    return f"distance {distance} exceeds the {history} bytes of available history"


def test_slice_copies_match_the_queue_across_batches():
    # Each batch reaches back into the ones before it, repeats periods
    # 1..8 up to length 258 and copies from exactly the whole history;
    # one byte further fails with the ring's reach in the message.
    cap = WINDOW_SIZE
    rng = random.Random(cap)
    ring, queue = RingWindow(), QueueOfDoom(cap)
    produced = 0
    for batch in range(12):
        tokens = []
        total = produced  # output once this batch's tokens so far are resolved
        if batch == 1:
            for period in range(1, min(8, cap) + 1):
                for length in (3, 4, 5, 8, 9, 16, 17, 100, 255, 256, 257, 258):
                    if length > period:
                        tokens.append(BackRef(length, period))
                        total += length
        for _ in range(rng.randrange(1, 40)):
            reach = min(total, cap)
            pick = rng.random()
            if reach == 0 or pick < 0.3:
                tokens.append(Literal(rng.randrange(256)))
                total += 1
                continue
            if pick < 0.5:
                distance = reach
            elif pick < 0.75:
                distance = rng.randint(1, min(8, reach))
            else:
                distance = rng.randint(1, reach)
            length = rng.choice((3, 7, 100, 258, rng.randint(3, 258)))
            tokens.append(BackRef(length, distance))
            total += length
        if batch % 3 == 2:
            tokens.append(END_OF_BLOCK)
        start = len(ring)
        resolve_tokens_ring(tokens, ring)
        queue_bytes, queue = resolve_tokens(tokens, queue)
        assert ring[start:] == queue_bytes
        produced = total
        history, kept = min(len(ring), cap), bytes(ring)
        assert history == min(produced, cap)
        if history + 2 > WINDOW_SIZE:
            continue
        with pytest.raises(DistanceTooFar) as err:
            resolve_tokens_ring([BackRef(3, history + 1)], ring)
        assert str(err.value) == history_message(history + 1, history)
        if produced < cap:
            with pytest.raises(DistanceTooFar) as err:
                resolve_tokens([BackRef(3, history + 1)], queue)
            assert str(err.value) == history_message(history + 1, history)
        # The reach counts the batch's own bytes, up to the capacity.
        reach = min(history + 1, cap)
        with pytest.raises(DistanceTooFar) as err:
            resolve_tokens_ring([Literal(0), BackRef(3, reach + 1)], ring)
        assert str(err.value) == history_message(reach + 1, reach)
        assert ring == kept  # a failed batch leaves the window as it was
