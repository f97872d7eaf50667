"""JSON schemas and canonical serialization.

Documents are emitted with sorted keys and floats rendered at 17
significant digits so identical invocations are byte-identical
(golden-file friendly).  Negative infinity is encoded as the JSON
string "-inf"; +inf and nan are rejected; -0.0 is written ``0``, as 0.0
is.

The writer, :func:`dumps`, dispatches on the exact type of each value.
float, str, int, list, tuple and dicts whose keys are all exactly str
are rendered directly, and so is a :class:`WitnessColumns`, the witnesses
of every report (``CheckReport.witnesses``) and of an infeasible weight
fit; numpy scalars and arrays, bool and None are written as the value
they stand for.  Any other value raises ``TypeError``: a subclass of a
builtin type, such as an ``IntEnum``, and a dict with another key.

A list (or tuple) of at least ``_LIST_MIN`` items that are all ints,
each exactly an int, is written by one ``%d`` template, which gives the
bytes of ``int.__repr__``.  Every other list, and every shorter one, is
written item by item, so an error is raised by the same item, in the
same order, as ever.

A float64 ``np.ndarray`` (exactly that type) of 1 or 2 dimensions with
at least ``_LIST_MIN`` numbers, all finite, is written from the array by
:func:`_array_text`: below ``_VECTOR_MIN`` numbers by one ``%.17g``
template, which gives the bytes of ``format(x, ".17g")``; from there on
by the byte-matrix writer, one row per number in row-major order, its
brackets and comma a column next to its digits.  Any other array, with
-inf, +inf or nan, fewer numbers, another dtype or more dimensions, is
written as its ``tolist()``, so an error is raised as before.

A block of witnesses is written by one ``%``-template below
``_VECTOR_MIN`` witnesses, and from there on by the byte-matrix writer,
one row per witness, ``_TEXT_CHUNK`` rows at a time as one byte matrix, a
column of NUL-padded text per field, whose NUL bytes are then dropped:
canonical JSON text never holds a NUL byte, as a str's is written
``\u0000``.  Both ways give the same bytes.  A slack is a finite amount:
a block with a slack of -inf, +inf or nan raises ``ValueError``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from typing import Any

import numpy as np

from .core import (
    ConvexSpec,
    LinearFamily,
    MaxAffine,
    NegEntropy,
    ScoreTable,
    SquaredNorm,
    TypeSpace,
    WitnessColumns,
    _as_matrix,
    _fill,
    _text_columns,
    _whole_number,
)
from .properties import LabeledSample, PowerDiagramSpec
from .scoring import OutcomeScoreTable

__all__ = [
    "dumps",
    "require_object",
    "load_convex",
    "convex_to_obj",
    "load_typespace",
    "typespace_to_obj",
    "load_family_file",
    "load_score_table",
    "score_table_to_obj",
    "load_outcome_table",
    "outcome_table_to_obj",
    "load_diagram",
    "diagram_to_obj",
    "load_sample",
    "load_points",
]


# ---------------------------------------------------------------------------
# canonical writer


#: The string encoder ``json.dumps(str)`` calls: ASCII output, every
#: other character escaped.
_encode_str = json.encoder.encode_basestring_ascii
#: Key types of the dicts the writer renders directly: exactly str.
_STR_ONLY = frozenset([str])


def _format_float(x: float) -> str:
    """A float that is not finite: -inf as ``"-inf"``; +inf and nan raise."""
    if x == -math.inf:
        return '"-inf"'
    raise ValueError(f"cannot serialize {x}")


#: Blocks of at least this many witnesses are written as byte matrices,
#: smaller ones by one ``%``-template per witness.  On a 2-CPU x86-64 VM
#: (Python 3.11, numpy 2.4) a matrix block took about 130 us plus 0.45 us
#: a witness, a template about 0.95 us a witness (0.65-1.1 us of which is
#: its ``%.17g``): they cross near 260 witnesses, and the matrices were
#: faster in every block of 384 or more.  A template with a ``%d`` detail
#: took 0.87-0.95 us a witness at 128 to 1024 witnesses, and a matrix
#: 0.59-0.68 us a witness at 384, 0.78-0.82 at 256.  Float64 arrays of at
#: least this many finite numbers are written as byte matrices too: on
#: the same VM, random normal rows of 3 took 0.29-0.30 us a number as a
#: matrix at 384 numbers and 0.16-0.17 at 1800, against 0.51-0.55 for
#: ``tolist()`` and a template at every size; they cross near 220 numbers.
_VECTOR_MIN = 384
#: Rows (witnesses, or numbers of an array) per byte matrix, so that its
#: memory does not grow with the block (about 150 bytes a witness); 4096
#: wrote blocks of 12 382 and 23 727 witnesses faster than 1024 or 2048,
#: and as fast as 8192.
_TEXT_CHUNK = 4096


def _witness_text(kind, index, slack, detail) -> str:
    """The text of a block of :class:`WitnessColumns`: what writing each
    witness's ``to_obj()`` dict would give, joined by commas.  A block of
    ``_VECTOR_MIN`` or more witnesses is written by :func:`_matrix_text`,
    one row per witness; a smaller one by one ``%``-template per witness,
    repeated and filled by one ``%``.  A slack of -0.0 is written ``0``;
    the first slack that is not finite raises ``ValueError``."""
    if not np.isfinite(slack).all():
        raise ValueError(f"cannot serialize {float(slack[~np.isfinite(slack)][0])}")
    slack = slack + 0.0  # -0.0 + 0.0 is 0.0
    if len(slack) >= _VECTOR_MIN:
        slack = slack.astype(np.float64, copy=False)
        plan = ['{"detail":', *_text_plan(detail), ',"indices":[']
        for j in range(index.shape[1]):
            plan += [","] * (j > 0) + [lambda rows, c, col=index[:, j]: _int_words(col[rows])]
        plan += ['],"kind":', *_text_plan(kind), ',"slack":']
        plan += [lambda rows, c: _float_words(slack[rows]), "},"]
        return _matrix_text(plan, len(slack))
    columns = []

    def field(text) -> str:  # the text's JSON string into the template, in field order
        if isinstance(text, str):
            return _encode_str(text).replace("%", "%%")
        template, args = text
        if not isinstance(template, str):  # picked per witness: each filled in and escaped
            columns.append(map(_encode_str, _fill(text, len(slack))))
            return "%s"
        # the args are numbers, which need no escaping in a JSON string
        columns.extend(arg.tolist() for arg in args)
        return _encode_str(template)

    template = '{"detail":' + field(detail) + ',"indices":[' + ",".join(["%d"] * index.shape[1])
    columns += index.T.tolist()
    template += '],"kind":' + field(kind) + ',"slack":%.17g}'
    columns.append(slack.tolist())
    return ",".join([template] * len(slack)) % tuple(itertools.chain.from_iterable(zip(*columns)))


def _array_text(a: np.ndarray) -> str:
    """The text of a float64 array of 1 or 2 dimensions, at least one
    number and only finite ones, ``format(x, ".17g")`` of each but -0.0
    written ``0``: below ``_VECTOR_MIN`` numbers by one ``%.17g``
    template, from there on by :func:`_matrix_text`, one row per number
    in row-major order: a "[" before the first number of an array row,
    the number, and "]," after the last, "," after the others.  A 1-D
    array is one array row; a 2-D array's rows are put in brackets."""
    numbers = a.reshape(-1) + 0.0  # -0.0 + 0.0 is 0.0
    width = a.shape[-1]
    if len(numbers) < _VECTOR_MIN:
        row = "[" + ",".join(["%.17g"] * width) + "]"
        text = ",".join([row] * (len(numbers) // width)) % tuple(numbers.tolist())
    else:
        column = np.arange(len(numbers)) % width
        opens = _OPENS.take(column == 0)[None]
        closes = _CLOSES.take(column == width - 1)[None]
        plan = [
            lambda rows, c: opens[:, rows],
            lambda rows, c: _float_words(numbers[rows]),
            lambda rows, c: closes[:, rows],
        ]
        text = _matrix_text(plan, len(numbers))
    return text if a.ndim == 1 else "[" + text + "]"


def _matrix_text(plan: list, n: int) -> str:
    """The text of n rows, each of which ends with a comma, joined, but
    the last row's comma; the plan gives each row's text as a sequence of
    literals, the same in every row, and columns ``f(rows, c)``, the
    uint32 words of the texts of the c rows ``rows`` (a slice), one row
    of words per word of text.  It is written ``_TEXT_CHUNK`` rows at a
    time as a byte matrix, one row of bytes per row of text, and each text
    may be padded with NUL bytes anywhere in its row.  The matrix is built
    as words, a part's words stacked over the rows, and turned row-major
    at the end; then its NULs are dropped, which leaves exactly the rows'
    text: canonical JSON text holds no NUL byte (a str's is written
    ``\\u0000``)."""
    parts = []  # adjacent literals joined
    for part in plan:
        if isinstance(part, str) and parts and isinstance(parts[-1], str):
            parts[-1] += part
        else:
            parts.append(part)
    parts = [_words(p.encode())[:, None] if isinstance(p, str) else p for p in parts]
    text = bytearray()
    for lo in range(0, n, _TEXT_CHUNK):
        rows = slice(lo, min(lo + _TEXT_CHUNK, n))
        c = rows.stop - lo
        words = [np.broadcast_to(p, (len(p), c)) if isinstance(p, np.ndarray) else p(rows, c) for p in parts]
        words = np.concatenate(words)
        chunk = bytearray(words.nbytes)
        np.copyto(np.frombuffer(chunk, np.uint32).reshape(c, -1), words.T)
        text += chunk.translate(None, b"\0")
    del text[-1]  # the last row's comma
    return text.decode("ascii")


def _words(text: bytes) -> np.ndarray:
    """ASCII text as uint32 words, NUL-padded."""
    return np.frombuffer(text + bytes(-len(text) % 4), np.uint32)


def _text_plan(text) -> list:
    """A text's JSON string for :func:`_matrix_text`: literals, and
    columns ``f(rows, c)``, the words of the rows' texts, one row of
    words per word of text.  A template of ``%d`` fields over int columns
    is written field by field; any other text is filled in by
    ``core._fill`` and packed."""
    if isinstance(text, str):
        return [_encode_str(text)]
    template, args = text
    if isinstance(template, str):
        pieces = re.split("(%%|%d)", _encode_str(template))  # the fields written here
        if (
            "%" not in "".join(pieces[::2])
            and pieces[1::2].count("%d") == len(args)
            and all(arg.dtype.kind in "biu" for arg in args)
        ):
            columns = iter(args)
            for k in range(1, len(pieces), 2):
                if pieces[k] == "%%":
                    pieces[k] = "%"
                else:
                    pieces[k] = lambda rows, c, col=next(columns): _int_words(col[rows])
            return pieces
    return [lambda rows, c: _pack(map(_encode_str, _fill(_text_columns(text, lambda col: col[rows]), c)))]


def _pack(texts) -> np.ndarray:
    """ASCII texts as words, one column per text, NUL-padded."""
    packed = np.array(list(texts), dtype=bytes)
    packed = packed.astype(f"S{-(-packed.itemsize // 4) * 4}")
    return packed.view(np.uint32).reshape(len(packed), -1).T


@functools.cache
def _tables():
    """The lookup tables of the matrix writer, built on first use:

    - ``quads``: the 4 ASCII digits, as one uint32 word, of q < 10**4 at
      ``q``, zero-filled; at ``10**4 + q``, with leading zeros as NULs
      (0 all NUL); at ``2 * 10**4 + q``, the same but 0 written ``0``;
    - ``trailing[q]``: the trailing zeros of q as 4 digits, 4 for 0;
    - ``hi[s] + lo[s]``: 10**s for s <= 20, exact as a double, split into
      halves of 26 bits for Dekker's product;
    - ``layout[:, 17 * (k + 4) + last]``: which bytes of the words of
      :func:`_float_words` its text keeps, for the decimal exponent
      -4 <= k <= 16 and the last digit written, 0 to 16."""
    # built by slices, not by division, as a fresh process pays for it
    padded = np.empty((10, 10, 10, 10, 4), np.uint8)
    for j in range(4):  # the digit of 10**(3 - j) along axis j
        padded[..., j] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
    padded = padded.reshape(10**4, 4)
    lead = padded.copy()
    for j in range(4):  # q < 10**(3 - j) has a leading zero at byte j
        lead[: 10 ** (3 - j), j] = 0
    last = lead.copy()
    last[0, 3] = 48
    quads = np.concatenate([padded, lead, last]).view(np.uint32).ravel()
    trailing = np.zeros(10**4, np.intp)
    for j in range(1, 5):  # one for each power of 10 that divides q
        trailing[:: 10**j] += 1
    hi, lo = _halves(np.array([float(10**s) for s in range(21)]))
    k, last = np.divmod(np.arange(21 * 17), 17)
    k, last = k[:, None] - 4, last[:, None]
    j = np.arange(-3, 17)  # the digit in each byte of the digits' words, or none
    keep = [
        np.ones((len(k), 4), bool),  # the sign
        k <= np.array([-1, -1, -2, -3, -4, -5, -5, -5]),  # "0." and the zeros of a fraction below 0.1
        (j >= 0) & (j <= k),
        (k >= 0) & (last > k) & (np.arange(4) == 0),  # the point, in a word of its own
        (j >= 0) & (j > k) & (j <= last),
    ]
    layout = (np.concatenate(keep, axis=1) * np.uint8(255)).view(np.uint32).T.copy()
    for table in (quads, trailing, hi, lo, layout):
        table.setflags(write=False)
    return quads, trailing, hi, lo, layout


def _halves(a: np.ndarray):
    """Veltkamp's split of each double into two of 26 bits that sum to it."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _quads(values: np.ndarray, n: int) -> np.ndarray:
    """The last n groups of 4 decimal digits of nonnegative ints, one row
    each, the most significant first."""
    groups = np.empty((n, len(values)), np.intp)
    for g in range(n - 1, 0, -1):
        higher = values // 10**4
        np.subtract(values, higher * 10**4, out=groups[g])
        values = higher
    groups[0] = values
    return groups


_MINUS, _POINT = _words(b"-"), _words(b".")
#: The words of "[" (or none) before, and of "," or "]," after, each
#: number of an array row, by whether it is the row's first or last.
_OPENS, _CLOSES = np.array([0, *_words(b"[")], np.uint32), np.concatenate([_words(b","), _words(b"],")])


def _int_words(values: np.ndarray) -> np.ndarray:
    """``"%d" % v`` of each v of an int or bool array: the words of the
    digits, after a word of the sign if any v is negative."""
    negative = values < 0
    magnitude = values.astype(np.uint64)  # modulo 2**64, so -2**63 is 2**63
    np.negative(magnitude, out=magnitude, where=negative)
    n = -(-len(str(magnitude.max())) // 4)
    if n == 1:  # no leading zeros but a 0's last
        index = (magnitude + 2 * 10**4)[None]
    else:  # zero-filled after a group with a digit, else leading zeros dropped
        index = _quads(magnitude, n)
        index[1:] += 10**4 * np.logical_and.accumulate(index[:-1] == 0)
        index[0] += 10**4
        index[-1] += 10**4 * (magnitude < 10**4)
    digits = _tables()[0].take(index)
    if not negative.any():
        return digits
    return np.concatenate([(negative * _MINUS)[None], digits])


#: The words of "0.000", which a text in fixed notation below 1 keeps
#: the first two to five bytes of.
_LEADING = _words(b"0.000")


def _float_words(x: np.ndarray) -> np.ndarray:
    """``format(v, ".17g")`` of each finite double v of x, exactly, as
    words.  For |v| in [1e-4, 1e17), where the text is in fixed notation,
    with k = floor(log10 |v|): |v| * 10**(16 - k) is formed exactly as a
    double-double (Dekker's product) and rounded to the 17-digit integer
    of the text's digits.  The words hold the sign, "0.000", the digits, a
    point and the digits again, and ``layout`` keeps the bytes of the
    text, by k and the last digit written; words no v keeps are left out.
    Rows are formatted by Python instead where that product is not in
    [10**16, 10**17) once rounded (log10 was one off) or is within 1e-6
    of a tie, and for every other v: zero, subnormals and exponent
    notation."""
    quads, trailing, hi10, lo10, layout = _tables()
    c = len(x)
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    a[~fixed] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp).clip(-4, 16)
    # a * 10**s is p + e exactly, for 10**s = bh + bl exact
    bh, bl = hi10.take(16 - k), lo10.take(16 - k)
    p = a * (bh + bl)
    ah, al = _halves(a)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    # p is an integer wherever p + e >= 1e16 > 2**53, and |e| <= 64
    floor_e = np.floor(e)
    below = p.astype(np.int64) + floor_e.astype(np.int64)
    fraction = e - floor_e
    digits = below + (fraction > 0.5)
    exact = fixed & (below >= 10**16) & (digits < 10**17) & (abs(fraction - 0.5) >= 1e-6)
    groups = _quads(digits, 5)
    zeros = trailing.take(groups[4])  # the digits' trailing zeros, dropped from a fraction
    for g in (3, 2, 1):
        more = np.flatnonzero(zeros == 16 - 4 * g)
        if not len(more):
            break
        zeros[more] += trailing.take(groups[g, more])
    last = np.maximum(k, 16 - zeros)
    groups[0] += 10**4  # "\0\0\0" and the first digit
    words = np.empty((14, c), np.uint32)  # the sign, "0.000", the digits, a point, the digits
    words[0] = np.signbit(x) * _MINUS
    words[1:3] = _LEADING[:, None]
    quads.take(groups, out=words[3:8], mode="clip")  # in range: "clip" takes unbuffered
    words[8] = _POINT
    words[9:] = words[3:8]
    words &= layout.take((k + 4) * 17 + last, axis=1)
    rest = np.flatnonzero(~exact)
    words[:, rest] = 0
    words = words[words.any(axis=1)]
    if len(rest):
        other = _pack(format(v, ".17g") for v in x[rest].tolist())
        if len(other) > len(words):
            words = np.concatenate([words, np.zeros((len(other) - len(words), c), np.uint32)])
        words[: len(other), rest] = other
    return words


#: Int lists and float arrays of at least this many items get one
#: template; below it the per-item path is faster, as on 3-vectors.
_LIST_MIN = 8
_INT_ONLY = frozenset([int])


def _write(obj: Any, emit, plans: dict) -> None:
    """Emit ``obj`` as canonical JSON text; ``plans`` maps the key tuple of
    each dict seen so far in this document to its key order."""
    kind = type(obj)
    if kind is float:
        # x - x is 0.0 for a finite float, nan for inf and nan; -0.0 + 0.0 is 0.0
        emit(format(obj + 0.0, ".17g") if obj - obj == 0.0 else _format_float(obj))
    elif kind is str:
        emit(_encode_str(obj))
    elif kind is int:
        emit(int.__repr__(obj))
    elif kind is list or kind is tuple:
        if len(obj) >= _LIST_MIN and set(map(type, obj)) == _INT_ONLY:
            # "%d" % n is int.__repr__(n)
            emit("[" + ",".join(["%d"] * len(obj)) % tuple(obj) + "]")
            return
        emit("[")
        first = True
        for item in obj:
            if not first:
                emit(",")
            first = False
            _write(item, emit, plans)
        emit("]")
    elif kind is dict and set(map(type, obj)) <= _STR_ONLY:
        keys = tuple(obj)
        plan = plans.get(keys)
        if plan is None:
            # sorted keys, each with its encoded text, colon and separator
            plan = plans[keys] = [
                (key, ("," if k else "{") + _encode_str(key) + ":")
                for k, key in enumerate(sorted(keys))
            ]
        for key, prefix in plan:
            emit(prefix)
            _write(obj[key], emit, plans)
        emit("}" if plan else "{}")
    elif kind is WitnessColumns:
        emit("[" + ",".join(_witness_text(*block) for block in obj.blocks) + "]")
    else:
        _write_other(obj, emit, plans)


def _write_other(obj: Any, emit, plans: dict) -> None:
    """Numpy arrays and scalars, bool and None; every other value raises
    ``TypeError``, a subclass of a builtin type and a dict with a key
    that is not exactly a str included."""
    if isinstance(obj, np.ndarray):
        if (
            obj.size >= _LIST_MIN
            and obj.ndim <= 2
            and obj.dtype == np.float64
            and type(obj) is np.ndarray
            and np.isfinite(obj).all()
        ):
            emit(_array_text(obj))
        else:
            _write(obj.tolist(), emit, plans)
    elif isinstance(obj, np.floating):
        _write(float(obj), emit, plans)
    elif isinstance(obj, np.integer):
        _write(int(obj), emit, plans)
    elif isinstance(obj, (bool, np.bool_)):
        emit("true" if obj else "false")
    elif obj is None:
        emit("null")
    elif type(obj) is dict:
        key = next(key for key in obj if type(key) is not str)
        raise TypeError(f"cannot serialize {type(key).__name__} key")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Canonical single-document JSON text (no trailing newline).

    Accepted values and their text:

    - a finite float (numpy floating included): 17 significant digits,
      ``format(x, ".17g")``, but -0.0 is written ``0``, as 0.0 is, since
      ``-0`` reads back as an int; -inf: the string ``"-inf"``; +inf and
      nan raise ``ValueError("cannot serialize inf")`` (or ``nan``);
    - an int (numpy integer included): its decimal digits, any size;
    - True/False (numpy bool included): ``true``/``false``; None: ``null``;
    - a str: ASCII text with every other character escaped, as
      ``json.dumps`` writes it;
    - a list, tuple or numpy array: an array of its items; a list or
      tuple of ``_LIST_MIN`` or more exact ints by one ``%d`` template,
      a 1-D or 2-D float64 array of ``_LIST_MIN`` or more finite numbers
      from the array, by one ``%.17g`` template below ``_VECTOR_MIN``
      numbers and as byte matrices from there on, any other item by item
      (see the module docstring), with the same text either way;
    - a ``WitnessColumns``, which ``report.witnesses`` always is: the
      array of its witnesses' ``Witness.to_obj()`` dicts, written straight
      from the columns, a block of ``_VECTOR_MIN`` or more witnesses as
      byte matrices (see the module docstring); a slack of -inf, +inf or
      nan raises ``ValueError("cannot serialize -inf")`` (or ``inf``, ``nan``);
    - a dict whose keys are all exactly str: an object, keys sorted.

    Anything else raises ``TypeError("cannot serialize <type name>")``,
    a subclass of a builtin type included; a dict with a key of another
    type, ``TypeError("cannot serialize <key's type name> key")``.
    """
    out: list = []
    _write(obj, out.append, {})
    return "".join(out)


# ---------------------------------------------------------------------------
# objects


def require_object(obj: Any, what: str) -> dict:
    """Return ``obj`` if it is a JSON object; raise ValueError otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    return obj


# ---------------------------------------------------------------------------
# convex functions


def load_convex(obj: dict) -> ConvexSpec:
    """{"maxAffine": [{"a": [...], "b": ...}, ...]} or
    {"analytic": "squaredNorm" | "negEntropy"}."""
    require_object(obj, "convex spec")
    if "maxAffine" in obj:
        pieces = obj["maxAffine"]
        if not isinstance(pieces, list) or not pieces:
            raise ValueError("maxAffine must be a nonempty list of pieces")
        pieces = [require_object(p, f"maxAffine piece {k}") for k, p in enumerate(pieces)]
        return MaxAffine(slopes=[p["a"] for p in pieces], intercepts=[p["b"] for p in pieces])
    if "analytic" in obj:
        kind = obj["analytic"]
        if kind == "squaredNorm":
            return SquaredNorm()
        if kind == "negEntropy":
            return NegEntropy()
        raise ValueError(f"unknown analytic form {kind!r}")
    raise ValueError("convex spec needs 'maxAffine' or 'analytic'")


def convex_to_obj(g: ConvexSpec) -> dict:
    if isinstance(g, MaxAffine):
        return {
            "maxAffine": [
                {"a": a, "b": float(b)}
                for a, b in zip(g.slopes, g.intercepts)
            ]
        }
    if isinstance(g, SquaredNorm):
        return {"analytic": "squaredNorm"}
    if isinstance(g, NegEntropy):
        return {"analytic": "negEntropy"}
    raise TypeError(f"unknown convex spec {type(g).__name__}")


# ---------------------------------------------------------------------------
# type spaces and families


def load_typespace(obj: dict) -> TypeSpace:
    """{"dim": n, "points": [[...], ...]}"""
    require_object(obj, "type space")
    ts = TypeSpace(obj["points"])
    if "dim" in obj and _whole_number(obj["dim"], "declared dim") != ts.dim:
        raise ValueError(f"declared dim {obj['dim']} != actual {ts.dim}")
    return ts


def typespace_to_obj(ts: TypeSpace) -> dict:
    return {"dim": ts.dim, "points": ts.points}


def load_family_file(obj: dict) -> tuple:
    """{"typeSpace": {...}, "family": [[...], ...]} -> (ts, fam)."""
    require_object(obj, "family file")
    ts = load_typespace(obj["typeSpace"])
    fam = LinearFamily(obj["family"])
    fam.check_aligned(ts)
    return ts, fam


# ---------------------------------------------------------------------------
# score tables


def load_score_table(obj: dict) -> ScoreTable:
    """{"reports": [...], "linear": [[...]], "constant": [...]}, a constant "-inf" or a number"""
    require_object(obj, "score table")
    return ScoreTable(reports=obj["reports"], linear=obj["linear"], constant=obj["constant"])


def score_table_to_obj(score: ScoreTable) -> dict:
    return {
        "reports": list(score.reports),
        "linear": score.linear,
        "constant": score.constant,
    }


def load_outcome_table(obj: dict) -> OutcomeScoreTable:
    """{"nOutcomes": n, "reports": [[...]], "payoffs": [[...]]}, a payoff "-inf" or a number"""
    require_object(obj, "outcome table")
    table = OutcomeScoreTable(reports=obj["reports"], payoffs=obj["payoffs"])
    declared = obj.get("nOutcomes", table.n_outcomes)
    if _whole_number(declared, "declared nOutcomes") != table.n_outcomes:
        raise ValueError("declared nOutcomes does not match reports")
    return table


def outcome_table_to_obj(table: OutcomeScoreTable) -> dict:
    return {
        "nOutcomes": table.n_outcomes,
        "reports": table.reports,
        "payoffs": table.payoffs,
    }


# ---------------------------------------------------------------------------
# diagrams and samples


def load_diagram(obj: dict) -> PowerDiagramSpec:
    """{"sites": [[...]], "weights": [...]}"""
    require_object(obj, "diagram")
    return PowerDiagramSpec(sites=obj["sites"], weights=obj["weights"])


def diagram_to_obj(diag: PowerDiagramSpec) -> dict:
    return {"sites": diag.sites, "weights": diag.weights}


def load_sample(obj: dict) -> LabeledSample:
    """{"points": [[...]], "labels": [...]}"""
    require_object(obj, "sample")
    return LabeledSample(points=obj["points"], labels=obj["labels"])


def load_points(obj: dict) -> np.ndarray:
    """{"points": [[...]]}"""
    return _as_matrix(require_object(obj, "points file")["points"], "points")
