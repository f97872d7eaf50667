"""The canonical writer against its loop reference.

``jsonio.dumps`` dispatches on the exact type of each value and sends
everything else through one normalizing branch; ``helpers.loop_dumps``
normalizes every value first.  Both must print the same text for every
value, and fail with the same exception and message.  Witnesses, which
``dumps`` writes straight from their columns (a block of at least
``jsonio._VECTOR_MIN`` as byte matrices, a smaller one by templates),
must print as the dicts of ``Witness.to_obj`` print
(``helpers.report_text``)."""

import enum
import math

import numpy as np
import pytest

from elicit import CheckReport, Witness, WitnessColumns
from elicit.jsonio import _LIST_MIN, _TEXT_CHUNK, _VECTOR_MIN, dumps
from helpers import loop_dumps, report_text

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
        (-0.0, "0"),
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


# ---------------------------------------------------------------------------
# int lists written by one template, and the float arrays of the same
# numbers written from the array


INF = math.inf
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e17, 0.1, -1 / 3, 1e-300, 2.0]
EDGE_INTS = [2**63, -(2**63) - 1, 10**30, 0, -7, 2**53 + 1]


def cycled(values, n):
    return [values[k % len(values)] for k in range(n)]


@pytest.fixture
def array_calls(monkeypatch):
    """The sizes of the arrays written from the array, by ``_array_text``."""
    import elicit.jsonio as jsonio

    calls = []
    real = jsonio._array_text

    def spy(a):
        calls.append(a.size)
        return real(a)

    monkeypatch.setattr(jsonio, "_array_text", spy)
    return calls


@pytest.mark.parametrize("n", [_LIST_MIN - 1, _LIST_MIN, _LIST_MIN + 1, 40])
@pytest.mark.parametrize(
    "make,floats",
    [
        pytest.param(lambda n: cycled(EDGE_FLOATS, n), True, id="floats"),
        pytest.param(lambda n: cycled(EDGE_INTS, n), False, id="ints"),
        pytest.param(lambda n: tuple(cycled(EDGE_FLOATS[::-1], n)), True, id="tuple"),
        pytest.param(lambda n: [cycled(EDGE_FLOATS, k + 3)[k:] for k in range(n)], True, id="rows-of-3"),
        pytest.param(lambda n: [cycled(EDGE_FLOATS, k + 11)[k:] for k in range(n)], True, id="rows-of-11"),
        pytest.param(
            lambda n: {"rows": [cycled(EDGE_FLOATS, k + n)[k:] for k in range(2)], "ints": cycled(EDGE_INTS, n)},
            False,
            id="nested",
        ),
    ],
)
def test_number_lists_print_as_the_loop_prints(array_calls, make, floats, n):
    value = make(n)
    assert dumps(value) == loop_dumps(value)
    assert array_calls == []
    if floats:  # the same numbers as an array, written from the array from _LIST_MIN numbers on
        a = np.array(value)
        assert dumps(a) == loop_dumps(value)
        assert array_calls == ([a.size] if a.size >= _LIST_MIN else [])


FALLBACKS = {
    "bool among ints": [1] * _LIST_MIN + [True],
    "Half among floats": [0.5] * _LIST_MIN + [Half(0.25)],
    "np.float64 item": [0.5] * _LIST_MIN + [np.float64(0.1)],
    "int among floats": [0.5] * _LIST_MIN + [1],
    "ragged rows": [[0.5, 1.0]] * _LIST_MIN + [[0.5]],
    "empty rows": [[]] * _LIST_MIN,
    "-inf inside a row": [[0.5, 1.0]] * _LIST_MIN + [[0.5, -INF]],
    "-inf in a list": [-0.0] * _LIST_MIN + [-INF],
    "int inside a row": [[0.5, 1.0]] * _LIST_MIN + [[0.5, 1]],
    "tuple rows": [(0.5, 1.0)] * _LIST_MIN,
    "rows of ints": [[1, 2]] * _LIST_MIN,
    "sum overflows": [1e308] * _LIST_MIN,
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_other_lists_fall_back_to_the_loop_and_print_as_it_does(name):
    value = FALLBACKS[name]
    assert dumps(value) == loop_dumps(value)


@pytest.mark.parametrize(
    "bad,message",
    [(math.nan, "cannot serialize nan"), (INF, "cannot serialize inf")],
)
@pytest.mark.parametrize("where", ["list", "row"])
def test_nan_or_inf_in_the_second_list_raises_as_the_loop_does(bad, message, where):
    first = [0.5] * _LIST_MIN
    second = [0.25] * _LIST_MIN + [bad, -INF, math.nan]
    if where == "row":
        first, second = [first] * _LIST_MIN, [first] * 3 + [second[-4:] + [0.5] * 4]
    doc = {"a": first, "b": second}
    for fn in (dumps, loop_dumps):
        with pytest.raises(ValueError) as info:
            fn(doc)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# float64 arrays of _LIST_MIN or more finite numbers, written from the
# array: as byte matrices from _VECTOR_MIN numbers on


#: values each array of these tests cycles through: -0.0, the smallest
#: subnormal, the edges of fixed notation (1e-4 and 1e17) and their
#: neighbours, exponent notation, 17-digit fractions and whole numbers
ARRAY_FLOATS = np.array(EDGE_FLOATS + [1e-4, 1e-5, 9.9999999999999991e-5, 1e-4 * (1 + 2**-52),
                                       99999999999999984.0, 1.2345e-20, 6.02e23, 1e308, 12.5, 7.0])


def float_array(size, seed):
    """``size`` float64 values: the edge values and random ones of every
    magnitude, each sign, in a random order."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=size) * 10.0 ** rng.integers(-12, 20, size=size)
    values[::3] = rng.choice(ARRAY_FLOATS, size=len(values[::3]))
    values[1::5] = np.round(values[1::5])
    return values * rng.choice([-1.0, 1.0], size=size)


def array_shapes():
    """1-D and 2-D shapes of widths 1, 3 and 11: just below, at and just
    above _VECTOR_MIN numbers, and a few thousand (more than a chunk)."""
    for width in (None, 1, 3, 11):
        rows = -(-_VECTOR_MIN // (width or 1))  # the fewest rows that reach _VECTOR_MIN
        for n in (rows - 1, rows, rows + 1, 4 * _TEXT_CHUNK // (width or 1) + 7):
            yield (n,) if width is None else (n, width)


@pytest.fixture
def matrix_calls(monkeypatch):
    """The sizes of the arrays written by the byte-matrix writer."""
    import elicit.jsonio as jsonio

    calls = []
    real = jsonio._matrix_text

    def spy(plan, n):
        calls.append(n)
        return real(plan, n)

    monkeypatch.setattr(jsonio, "_matrix_text", spy)
    return calls


@pytest.mark.parametrize("shape", list(array_shapes()), ids=str)
def test_float_arrays_print_as_their_lists(shape, matrix_calls):
    a = float_array(int(np.prod(shape)), seed=sum(shape)).reshape(shape)
    assert dumps(a) == loop_dumps(a.tolist())
    assert dumps({"x": [a, a[:1]]}) == loop_dumps({"x": [a.tolist(), a[:1].tolist()]})
    # the matrix writes an array from _VECTOR_MIN numbers on, and none below
    big = [a.size] if a.size >= _VECTOR_MIN else []
    assert matrix_calls == big * 2


def test_the_matrix_takes_an_array_from_vector_min_numbers_on(matrix_calls):
    for n in (1, _VECTOR_MIN - 1):
        dumps(np.full(n, 0.5))
    assert matrix_calls == []
    dumps(np.full(_VECTOR_MIN, 0.5))
    dumps(np.full((_VECTOR_MIN, 1), 0.5))
    assert matrix_calls == [_VECTOR_MIN, _VECTOR_MIN]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_array_values_print_as_format_17g(sign):
    values = sign * np.tile(ARRAY_FLOATS, _VECTOR_MIN // len(ARRAY_FLOATS) + 1)
    text = dumps(values)
    assert text == "[" + ",".join("0" if x == 0 else format(x, ".17g") for x in values.tolist()) + "]"
    assert "e-" in text and "e+" in text and ",0," in text and "-0," not in text


OTHER_ARRAYS = {
    "-inf": np.concatenate([np.full(_VECTOR_MIN, 0.5), [-INF]]),
    "float32": np.linspace(-3, 3, 2 * _VECTOR_MIN, dtype=np.float32) ** 3,
    "big-endian float64": float_array(2 * _VECTOR_MIN, 1).astype(">f8"),
    "int64": np.arange(-_VECTOR_MIN, _VECTOR_MIN) * 2**40,
    "bool": np.arange(2 * _VECTOR_MIN) % 3 == 0,
    "3-D": float_array(8 * _VECTOR_MIN, 2).reshape(4, -1, 2),
    "no columns": np.zeros((2 * _VECTOR_MIN, 0)),
    "no rows": np.zeros((0, _VECTOR_MIN)),
    "0-D": np.array(0.5),
    "masked": np.ma.masked_array(np.full(2 * _VECTOR_MIN, 0.5), mask=np.arange(2 * _VECTOR_MIN) == 7),
}


@pytest.mark.parametrize("name", sorted(OTHER_ARRAYS))
def test_other_arrays_keep_the_list_path(name, matrix_calls):
    a = OTHER_ARRAYS[name]
    assert dumps(a) == loop_dumps(a.tolist())
    assert matrix_calls == []
    if name == "-inf":
        assert dumps(a).endswith(',"-inf"]')
    if name == "masked":  # a subclass: its tolist() writes the masked item as null
        assert dumps(a).startswith("[0.5,0.5,0.5,0.5,0.5,0.5,0.5,null,0.5")


def random_arrays(seed, count):
    """``count`` float64 arrays, 1-D and 2-D, of widths 1 to 12 and 0 to
    900 numbers, half of them below ``3 * _LIST_MIN``, with the values of
    ``float_array``; more than half are strided views, and a quarter hold
    one -inf, +inf or nan."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        size = int(rng.integers(0, 901 if rng.integers(0, 2) else 3 * _LIST_MIN))
        width = int(rng.integers(1, 13))
        rows = -(-size // width)
        shape = (rows, width) if rng.integers(0, 2) else (size,)
        n = int(np.prod(shape))
        view = rng.integers(0, 4)
        base = float_array(2 * n if view == 0 else n, seed + k)
        if view == 0:  # every other item of a longer array, or of its rows
            a = base.reshape(shape[:-1] + (2 * shape[-1],))[..., ::2]
        elif view == 1:  # reversed
            a = base.reshape(shape)[::-1]
        elif view == 2 and len(shape) == 2:  # transposed
            a = base.reshape(shape[::-1]).T
        else:
            a = base.reshape(shape)
        if n and rng.integers(0, 4) == 0:
            a[np.unravel_index(rng.integers(n), shape)] = rng.choice([-INF, INF, math.nan])
        yield a


def test_random_arrays_print_as_their_lists():
    sizes = []
    for a in random_arrays(34, 200):
        assert outcome(dumps, a) == outcome(loop_dumps, a.tolist())
        assert outcome(dumps, {"a": a}) == outcome(loop_dumps, {"a": a.tolist()})
        if np.isfinite(a).all():
            sizes.append(a.size)
    # both thresholds are crossed, by arrays of finite numbers
    assert np.histogram(sizes, [0, _LIST_MIN, _VECTOR_MIN, 10**6])[0].min() >= 10


VIEWS = {
    "every other item": lambda a: a[::2],
    "reversed": lambda a: a[::-1],
    "transposed": lambda a: a.reshape(-1, 4).T,
    "a column": lambda a: a.reshape(-1, 3)[:, 1],
    "every other row, reversed columns": lambda a: a.reshape(-1, 6)[::2, ::-1],
    "Fortran order": lambda a: np.asfortranarray(a.reshape(-1, 3)),
}


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_strided_views_print_as_their_lists(name, matrix_calls):
    view = VIEWS[name](float_array(12 * _VECTOR_MIN, 3))
    assert view.size >= _VECTOR_MIN and matrix_calls == []
    assert dumps(view) == loop_dumps(view.tolist())
    assert matrix_calls == [view.size]


@pytest.mark.parametrize("bad,message", [(math.nan, "cannot serialize nan"), (INF, "cannot serialize inf")])
@pytest.mark.parametrize("shape", [(3 * _VECTOR_MIN,), (_VECTOR_MIN, 3)], ids=["1-D", "2-D"])
def test_nan_or_inf_in_an_array_raises_as_the_loop_does(bad, message, shape):
    # the first bad item raises; a -inf before it is written as usual
    a = np.full(3 * _VECTOR_MIN, 0.5)
    a[_VECTOR_MIN - 5] = -INF
    a[_VECTOR_MIN] = bad
    a[_VECTOR_MIN + 1 :: 7] = math.nan if bad == INF else INF
    a = a.reshape(shape)
    for fn, value in ((dumps, a), (loop_dumps, a.tolist())):
        with pytest.raises(ValueError) as info:
            fn({"a": value})
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# witnesses written from their columns


def block(kind, index, slack, detail):
    """A block of ``WitnessColumns`` from plain (n, k) and n lists."""
    return (kind, np.array(index, dtype=int), np.array(slack, dtype=float), detail)


def text(template, *args, choice=None):
    """A text of a block: ``template`` filled from the columns ``args``,
    or, with ``choice``, the options ``template`` picked per witness."""
    if choice is not None:
        template = (template, np.array(choice))
    return template, tuple(map(np.array, args))


def fill(text, j):
    """Witness j's kind or detail, filled in by hand."""
    if isinstance(text, str):
        return text
    template, args = text
    if not isinstance(template, str):
        options, choice = template
        template = options[int(choice[j])]
    return template % tuple(arg[j] for arg in args)


def plain_witnesses(blocks):
    """The witnesses of ``blocks``, one ``Witness`` each, built in a loop."""
    out = []
    for kind, index, slack, detail in blocks:
        for j in range(len(slack)):
            out.append(
                Witness(
                    fill(kind, j),
                    tuple(int(i) for i in index[j]),
                    float(slack[j]),
                    fill(detail, j),
                )
            )
    return out


BLOCKS = {
    "one index, fixed detail": [block("target", [[3], [0]], [0.5, 2.0], "surplus [0, 1]")],
    "two indices, per-witness detail": [
        block("deviation", [[1, 0], [0, 2]], [1 / 3, 5e-324], text("type %d to %d", [1, 0], [0, 2]))
    ],
    "three indices": [block("sandwich", [[0, 5, 2], [7, 1, 9]], [0.1, -0.0], "between")],
    "no hits": [block("pair", np.zeros((0, 2)), [], "never written")],
    "non-ASCII and % in fixed texts": [
        block("é %d", [[0, 1]], [1e308], 'é € \U0001d11e 100% "q" \\ %s')
    ],
    "non-ASCII per witness": [
        block(
            text(("tie", "€"), choice=[0, 1]),
            [[0], [1]],
            [2.0, 3.0],
            text(("\x00 %d\"", "%%%.0s é"), [5, -7], choice=[True, False]),
        )
    ],
    "-inf slack": [block("pair", [[0, 1], [1, 0], [2, 2]], [-INF, 1.5, -INF], "x")],
    "several blocks": [
        block("fenchel-young", [[0, 0]], [1.0], "a"),
        block("difference", np.zeros((0, 2)), [], "b"),
        block("cycle", [[0, 1, 2]], [-1e-17], text("c")),
        block(
            "target",
            [[4], [6], [8]],
            [2.5, -INF, 0.5],
            text("[%.6g, %.6g]", [-0.0, -INF, 1e16], [INF, 1e-7, 5e-324]),
        ),
    ],
}


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_columns_print_as_their_witness_dicts(name):
    blocks = BLOCKS[name]
    witnesses = plain_witnesses(blocks)
    columns = WitnessColumns(blocks)
    report = CheckReport(columns, {"tol": 1e-9, "name": name})
    reference = CheckReport(witnesses, {"tol": 1e-9, "name": name})
    assert dumps(report.to_obj()) == report_text(reference)
    assert dumps(columns) == loop_dumps([w.to_obj() for w in witnesses])
    # and columns act as the sequence of those witnesses
    assert len(columns) == len(witnesses) and list(columns) == witnesses
    assert [columns[i] for i in range(-len(columns), len(columns))] == witnesses * 2
    assert columns[1:] == witnesses[1:]
    with pytest.raises(IndexError):
        columns[len(witnesses)]


def test_columns_concatenate_and_unpack():
    first, second = (WitnessColumns([b]) for b in BLOCKS["several blocks"][:2])
    (only,) = first + second
    assert only == Witness("fenchel-young", (0, 0), 1.0, "a")
    assert not second and isinstance(first + second, WitnessColumns)


#: template args may be any float: a text holds "inf" or "nan" as it is
ARG_FLOATS = FLOATS + [math.inf, math.nan]
#: the int64 extremes, whose magnitude 2**63 is no int64, and -1
INT64 = [0, -1, 7, 2**53 + 1, 9999, 10**4, -(2**63), 2**63 - 1]


def random_index(rng, n, k):
    """An (n, k) index column block: int64 extremes, -1 and random ints."""
    index = rng.integers(-(2**63), 2**63 - 1, size=(n, k), endpoint=True)
    special = rng.integers(0, 2, size=(n, k)).astype(bool)
    index[special] = rng.choice(INT64, size=int(special.sum()))
    return index


def random_slack(rng):
    """A finite slack of any magnitude, a round one, an edge, or -inf."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return float(rng.choice(FLOATS))
    if kind == 1:  # round numbers, whose digits end in zeros
        return float(rng.integers(-(10**6), 10**6)) / 10.0 ** rng.integers(-8, 9)
    return float(rng.normal() * 10.0 ** rng.integers(-8, 20))


def random_witness_text(rng, n):
    """A random text of a block of n: fixed, or a template of random text
    and number fields over int and float columns, picked per witness or not."""
    if rng.integers(0, 3) == 0:
        return random_text(rng)
    fields = [str(rng.choice(["%d", "%.6g", "%.17g"])) for _ in range(rng.integers(0, 3))]
    args = [
        rng.choice(INT64, size=n) if field == "%d" else rng.choice(ARG_FLOATS, size=n)
        for field in fields
    ]

    def template():  # a field may be dropped: %.0s takes its argument and writes nothing
        pieces = [random_text(rng).replace("%", "%%")]
        for field in fields:
            pieces.append("%.0s" if rng.integers(0, 4) == 0 else field)
            pieces.append(random_text(rng).replace("%", "%%"))
        return "".join(pieces)

    if rng.integers(0, 2):
        return text(template(), *args)
    options = tuple(template() for _ in range(rng.integers(1, 4)))
    return text(options, *args, choice=rng.integers(0, len(options), size=n))


@pytest.mark.parametrize("vector_min", [0, _VECTOR_MIN])
@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_random_columns_print_as_their_witness_dicts(monkeypatch, vector_min, chunk):
    # vector_min 0 writes every block as byte matrices, of chunk rows each
    monkeypatch.setattr("elicit.jsonio._VECTOR_MIN", vector_min)
    monkeypatch.setattr("elicit.jsonio._TEXT_CHUNK", chunk)
    rng = np.random.default_rng([11, vector_min, chunk])
    for _ in range(200):
        blocks = []
        for _ in range(rng.integers(0, 4)):
            n = int(rng.integers(0, 4) if rng.integers(0, 4) else rng.integers(0, 20))
            k = int(rng.integers(0, 4))
            blocks.append(
                block(
                    random_witness_text(rng, n),
                    random_index(rng, n, k),
                    [random_slack(rng) for _ in range(n)],
                    random_witness_text(rng, n),
                )
            )
        witnesses = plain_witnesses(blocks)
        columns = WitnessColumns(blocks)
        assert dumps(columns) == loop_dumps([w.to_obj() for w in witnesses])
        assert list(columns) == witnesses
        assert [columns[i] for i in range(-len(columns), len(columns))] == witnesses * 2


@pytest.mark.parametrize(
    "slacks,message",
    [([1.0, INF], "cannot serialize inf"), ([math.nan], "cannot serialize nan"),
     ([-INF, math.nan, INF], "cannot serialize nan"), ([2.0, INF, math.nan], "cannot serialize inf"),
     # blocks long enough for the byte matrices
     ([0.5] * _VECTOR_MIN + [INF], "cannot serialize inf"),
     ([-INF] + [0.5] * _VECTOR_MIN + [math.nan, INF], "cannot serialize nan")],
)
def test_a_slack_of_inf_or_nan_raises_as_a_float_does(slacks, message):
    blocks = [block("pair", [[0, 1]], [0.5], "fine"), block("pair", [[1, 0]] * len(slacks), slacks, "x")]
    report = CheckReport(WitnessColumns(blocks), {"tol": 1e-9})
    reference = CheckReport(plain_witnesses(blocks), {"tol": 1e-9})
    for fn, arg in ((dumps, report.to_obj()), (report_text, reference)):
        with pytest.raises(ValueError) as info:
            fn(arg)
        assert str(info.value) == message


def choice_blocks(n):
    """Blocks of n witnesses for the template path: kinds and details
    picked per witness, and slacks with -inf among them."""
    rng = np.random.default_rng(n)
    slack = rng.choice([-INF, 0.5, -0.0, 5e-324, 1e17, 0.1], size=n)
    slack[n // 2] = -INF
    index = random_index(rng, n, 2)
    kind = text(("tie%.0s", "€ %d", "%%%.0s"), index[:, 0], choice=rng.integers(0, 3, size=n))
    detail = text(("type %d prefers %.17g", "\x00 %d \"%.6g\""), index[:, 1], slack,
                  choice=rng.integers(0, 2, size=n))
    return [block(kind, index, slack, detail), block("pair", index[:, :1], slack[::-1], "fixed %")]


@pytest.mark.parametrize("chunk", [1, 3, _TEXT_CHUNK])
@pytest.mark.parametrize("n", [1, 7, _VECTOR_MIN + 5])
def test_template_blocks_print_as_their_witness_dicts_in_chunks(monkeypatch, chunk, n):
    monkeypatch.setattr("elicit.jsonio._TEXT_CHUNK", chunk)
    blocks = choice_blocks(n)
    report = CheckReport(WitnessColumns(blocks), {"tol": 1e-9})
    reference = CheckReport(plain_witnesses(blocks), {"tol": 1e-9})
    assert dumps(report.to_obj()) == report_text(reference)


@pytest.mark.parametrize("chunk", [1, 3, _TEXT_CHUNK])
def test_the_first_inf_or_nan_in_witness_order_raises_in_every_chunk(monkeypatch, chunk):
    monkeypatch.setattr("elicit.jsonio._TEXT_CHUNK", chunk)
    for first, second, message in ((math.nan, INF, "cannot serialize nan"), (INF, math.nan, "cannot serialize inf")):
        for at in (0, 4, 9):
            (kind, index, slack, detail), _ = choice_blocks(12)
            slack = slack.copy()
            slack[at], slack[-1] = first, second
            blocks = [block("pair", [[0, 1]], [-INF], "fine"), (kind, index, slack, detail)]
            report = CheckReport(WitnessColumns(blocks), {"tol": 1e-9})
            reference = CheckReport(plain_witnesses(blocks), {"tol": 1e-9})
            for fn, arg in ((dumps, report.to_obj()), (report_text, reference)):
                with pytest.raises(ValueError) as info:
                    fn(arg)
                assert str(info.value) == message


def test_one_witness_blocks_print_as_their_dicts_and_a_plain_witness_is_not_written():
    # every certificate is a WitnessColumns; a lone Witness is a value
    # the writer does not know
    witnesses = [
        Witness("constraint", (3, 0, 1), -2.5, "point 3 labeled 0 conflicts against site 1"),
        Witness("uninformed", (-1,), 0.125),
        Witness("cycle", (np.int64(2), np.int64(0)), np.float64(-INF), "é"),
        Witness("none", (), 1e-300, "%s"),
    ]
    blocks = [block(w.kind, [w.indices], [w.slack], w.detail) for w in witnesses]
    for w, one in zip(witnesses, blocks):
        assert dumps(WitnessColumns([one])) == loop_dumps([w.to_obj()])
        assert list(WitnessColumns([one])) == [w]
    doc = {"feasible": False, "witnesses": WitnessColumns(blocks)}
    assert dumps(doc) == loop_dumps({**doc, "witnesses": [w.to_obj() for w in witnesses]})
    with pytest.raises(ValueError, match="cannot serialize nan"):
        dumps(WitnessColumns([block("pair", [[0, 1]], [math.nan], "")]))
    for value in (witnesses[0], {"witnesses": witnesses}):
        with pytest.raises(TypeError) as info:
            dumps(value)
        assert str(info.value) == "cannot serialize Witness"


def test_the_byte_matrices_write_each_slack_as_format_17g():
    # every slack of a long block is written as format(x, ".17g"), by the
    # matrices' own digits in fixed notation, by Python elsewhere
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64)
    fixed = np.ldexp(rng.uniform(1.0, 2.0, 2 * 10**5), rng.integers(-14, 57, 2 * 10**5))
    rounds = rng.integers(1, 10**6, 10**5) / 10.0 ** rng.integers(-10, 11, 10**5)
    edges = np.array([1e-4, 1e-5, 1e16, 1e17, 2.0**-25, 0.1, 0.0, 0.0001 * (1 - 2.0**-52), 1.0, 100.0])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, INF)])
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    signed = np.concatenate([fixed, rounds, edges, powers])
    slack = np.concatenate([bits[np.isfinite(bits)], signed, -signed])
    assert len(slack) >= _VECTOR_MIN
    text = dumps(WitnessColumns([("", np.zeros((len(slack), 0), int), slack, "")]))
    row = '{"detail":"","indices":[],"kind":"","slack":%s}'
    # -0.0 + 0.0 is 0.0, which dumps writes for -0.0
    assert text == "[" + ",".join(row % format(x + 0.0, ".17g") for x in slack.tolist()) + "]"


def _witness_rows(slacks):
    """The text of witnesses ("pair", (0, 1), slack, "x"), one per slack text."""
    row = '{"detail":"x","indices":[0,1],"kind":"pair","slack":%s}'
    return "[" + ",".join(row % s for s in slacks) + "]"


#: -0.0 on each path of the writer, and the text it gets there
NEGATIVE_ZEROS = {
    "float": (-0.0, "0"),
    "numpy scalars": ([np.float64(-0.0), np.float32(-0.0)], "[0,0]"),
    "number list": ([-0.0, 0.5, -0.0, 2.0, 3.0, 4.0, 5.0, -0.0], "[0,0.5,0,2,3,4,5,0]"),
    "number rows": ([[-0.0, 1.0], [1.0, -0.0]] * 4, "[" + ",".join(["[0,1],[1,0]"] * 4) + "]"),
    "small 1-D array": (np.array([-0.0, 0.5, -0.0, 2.0, 3.0, 4.0, 5.0, -0.0]), "[0,0.5,0,2,3,4,5,0]"),
    "small 2-D array": (np.array([[-0.0, 1.0], [1.0, -0.0]] * 4), "[" + ",".join(["[0,1],[1,0]"] * 4) + "]"),
    "template block": (
        WitnessColumns([block("pair", [[0, 1]] * 2, [-0.0, 1.0], "x")]),
        _witness_rows(["0", "1"]),
    ),
    "template block, non-finite slacks": (
        WitnessColumns([block("pair", [[0, 1]] * 2, [-0.0, -INF], "x")]),
        _witness_rows(["0", '"-inf"']),
    ),
    "byte matrix array": (
        np.array([[-0.0, -2.5]] * (_VECTOR_MIN // 2)),
        "[" + ",".join(["[0,-2.5]"] * (_VECTOR_MIN // 2)) + "]",
    ),
    "byte matrix block": (
        WitnessColumns([block("pair", [[0, 1]] * _VECTOR_MIN, [-0.0, -2.5] * (_VECTOR_MIN // 2), "x")]),
        _witness_rows(["0", "-2.5"] * (_VECTOR_MIN // 2)),
    ),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_ZEROS))
def test_negative_zero_is_written_0(name):
    """``%.17g`` writes -0.0 as ``-0``, which ``json`` reads back as the
    int 0; every path writes ``0`` instead, as for 0.0."""
    value, expected = NEGATIVE_ZEROS[name]
    assert dumps(value) == expected
    if not isinstance(value, WitnessColumns):
        assert loop_dumps(value) == expected
