"""The canonical writer against its loop reference.

``jsonio.dumps`` dispatches on the exact type of each value and sends
everything else through one normalizing branch; ``helpers.loop_dumps``
normalizes every value first.  Both must print the same text for every
value, and fail with the same exception and message."""

import enum

import numpy as np
import pytest

from elicit.jsonio import dumps
from helpers import loop_dumps

TRIALS = 400

#: characters that are escaped, or not, in keys and values
ALPHABET = list("abcXYZ09 _-/") + ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                                   "é", "€", " ", "\U0001d11e", "\ud800"]
FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1,
          1 / 3, 2.5e-8, 123456789.0, float("-inf"), 1e16, 1e17, -2.0]
INTS = [0, -1, 7, 2**53 + 1, 2**63, -(2**63) - 1, 2**64 + 5, 10**30]


class Shout(str):
    """A str subclass whose str() differs from its value."""

    def __str__(self):
        return self.upper()


class Half(float):
    pass


class Rows(list):
    pass


class Color(enum.IntEnum):
    RED = 1


class Table(dict):
    pass


def random_text(rng, max_len=6):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.integers(0, max_len + 1)))


def random_key(rng):
    kind = rng.integers(0, 10)
    if kind == 0:
        return int(rng.choice(INTS[:4]))
    if kind == 1:
        return np.int64(rng.integers(-3, 4))
    if kind == 2:
        return Shout(random_text(rng, 3))
    if kind == 3:
        return str(rng.integers(-3, 4))  # may equal an int key's text
    return random_text(rng, 4)


def random_scalar(rng):
    kind = rng.integers(0, 17)
    if kind == 0:
        return float(rng.choice(FLOATS))
    if kind < 4:
        return float(rng.normal() * 10.0 ** rng.integers(-30, 30))
    if kind < 6:
        return int(rng.choice(INTS)) * (1 if kind == 4 else -1)
    if kind < 8:
        return random_text(rng)
    return [
        None,
        bool(rng.integers(0, 2)),
        np.float32(rng.normal()),
        np.float64(rng.choice(FLOATS)),
        np.int64(rng.integers(-(2**62), 2**62)),
        np.bool_(rng.integers(0, 2)),
        np.str_(random_text(rng)),
        Half(rng.choice(FLOATS)),
        Color.RED,
    ][kind - 8]


def random_array(rng):
    shape = tuple(rng.integers(0, 4, size=rng.integers(0, 3)))
    kind = rng.integers(0, 4)
    if kind == 0:
        arr = rng.normal(size=shape).astype(np.float32)
    elif kind == 1:
        arr = rng.choice(np.array(FLOATS), size=shape)
    elif kind == 2:
        arr = rng.integers(-(2**62), 2**62, size=shape)
    else:
        arr = rng.integers(0, 2, size=shape).astype(bool)
    return arr


def random_tree(rng, depth=0):
    kind = rng.integers(0, 8) if depth < 4 else 0
    if kind <= 2:
        return random_scalar(rng)
    if kind == 3:
        return random_array(rng)
    items = [random_tree(rng, depth + 1) for _ in range(rng.integers(0, 5))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items) if rng.integers(0, 2) else Rows(items)
    # dicts: all-str keys most of the time, from a small pool so that
    # the same key sets recur in different insertion orders
    if rng.integers(0, 3):
        keys = list(rng.choice(["slack", "kind", "indices", "detail", "é", 'a"b', ""],
                               size=rng.integers(0, 5), replace=False))
        rng.shuffle(keys)
        keys = [str(k) for k in keys]
    else:
        keys = [random_key(rng) for _ in range(rng.integers(0, 5))]
    obj = {k: random_tree(rng, depth + 1) for k in keys}
    return Table(obj) if rng.integers(0, 5) == 0 else obj


def outcome(fn, obj):
    try:
        return fn(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def test_random_trees_print_as_the_loop_prints():
    rng = np.random.default_rng(2012)
    for _ in range(TRIALS):
        tree = random_tree(rng)
        assert outcome(dumps, tree) == outcome(loop_dumps, tree)


@pytest.mark.parametrize(
    "value,text",
    [
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (1e308, "1e+308"),
        (0.1, "0.10000000000000001"),
        (float("-inf"), '"-inf"'),
        (np.float64("-inf"), '"-inf"'),
        (np.float32(0.1), "0.10000000149011612"),
        (2**64, "18446744073709551616"),
        (np.int64(-(2**63)), "-9223372036854775808"),
        (True, "true"),
        (np.bool_(False), "false"),
        (None, "null"),
        ((), "[]"),
        ([], "[]"),
        ({}, "{}"),
        (np.zeros((2, 0)), "[[],[]]"),
        ("é\"\\\n\x00\U0001d11e", '"\\u00e9\\"\\\\\\n\\u0000\\ud834\\udd1e"'),
        ({"b": 1, "a": [True, None]}, '{"a":[true,null],"b":1}'),
        ({2: "x", "10": "y", 1: "z"}, '{"1":"z","10":"y","2":"x"}'),
        ({1: "int", "1": "str"}, '{"1":"str","1":"str"}'),
        ({Shout("a"): 1, "b": 2}, '{"A":1,"b":2}'),
    ],
)
def test_fixed_values(value, text):
    assert dumps(value) == loop_dumps(value) == text


def test_a_key_set_seen_before_keeps_its_own_values():
    doc = [{"b": 1, "a": 2}, {"a": 3, "b": 4}, {Shout("a"): 5, "b": 6}, {"a": 7}]
    text = '[{"a":2,"b":1},{"a":3,"b":4},{"A":5,"b":6},{"a":7}]'
    assert dumps(doc) == loop_dumps(doc) == text


@pytest.mark.parametrize(
    "value,error,message",
    [
        (float("nan"), ValueError, "cannot serialize nan"),
        (float("inf"), ValueError, "cannot serialize inf"),
        ({"a": [1.0, float("inf")]}, ValueError, "cannot serialize inf"),
        (np.array([0.5, np.nan]), ValueError, "cannot serialize nan"),
        (np.float32("inf"), ValueError, "cannot serialize inf"),
        (Half("nan"), ValueError, "cannot serialize nan"),
        ({1, 2}, TypeError, "cannot serialize set"),
        ({"a": [{"b": frozenset()}]}, TypeError, "cannot serialize frozenset"),
        ({1: object()}, TypeError, "cannot serialize object"),
        (1j, TypeError, "cannot serialize complex"),
        (np.complex128(1j), TypeError, "cannot serialize complex128"),
    ],
)
def test_errors_match_the_loop(value, error, message):
    for fn in (dumps, loop_dumps):
        with pytest.raises(error) as info:
            fn(value)
        assert str(info.value) == message
