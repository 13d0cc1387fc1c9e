import contextlib
import dataclasses
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab import serialize
from fblab.cli import dispatch
from fblab.serialize import _default, dumps, dumps_line


def _reference_encode(value):
    """The former two-walk encoder: copy the result into plain dicts and lists first."""
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _reference_encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {_reference_key(k): _reference_encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, frozenset, set)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_reference_encode(v) for v in items]
    raise TypeError(f"cannot encode {type(value).__name__} for JSON output")


def _reference_key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)):
        return str(k)
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    raise TypeError(f"cannot encode mapping key {k!r}")


@dataclasses.dataclass(frozen=True)
class _Pair:
    first: object
    second: object


_TEXT = st.text(max_size=8) | st.sampled_from(["ε", "P_e*", "Ω→∞", "日本"])
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | _TEXT
    | st.fractions()
    | st.sets(st.integers(), max_size=3)
    | st.frozensets(_TEXT, max_size=3)
)


def _containers(children):
    # one key type per dict: a dict holding both 1 and "1" is not a result
    # fblab emits, and the reference collapsed such keys into one
    return (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=3)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.builds(_Pair, children, children)
    )


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=8)


# equal (or, for lists and tuples, item-for-item equal) values whose texts differ
_EQUAL_LEAVES = [1, True, 1.0, Fraction(1), [1], (1,), [1, 1], (1, 1), [True], [1.0], "1",
                 Fraction(1, 2), [1, 2], Fraction(-1)]

# tables: two or more rows over a few shared keys, whose values repeat across rows
_CELLS = st.sampled_from(_EQUAL_LEAVES) | _VALUES
_TABLES = st.lists(
    st.dictionaries(st.sampled_from(["a", "b", 'c"%s']), _CELLS, max_size=3)
    | st.dictionaries(st.sampled_from([0, 1, True, 1.0, None]), _CELLS, max_size=2),
    min_size=2, max_size=6,
)


def _stdlib(value):
    """The reference: ``json``'s own indented encoder, with fblab's default hook."""
    return json.dumps(value, indent=2, ensure_ascii=False, default=_default) + "\n"


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_emitter_matches_reference_tree(value):
    tree = _reference_encode(value)
    assert dumps(value) == _stdlib(value)
    assert dumps(value) == json.dumps(tree, indent=2, ensure_ascii=False) + "\n"
    assert dumps_line(value) == json.dumps(tree, separators=(",", ":"), ensure_ascii=False) + "\n"


@settings(max_examples=300, deadline=None)
@given(_TABLES | st.lists(_TABLES, min_size=1, max_size=2).map(lambda ts: [{"rows": t} for t in ts]))
def test_emitter_matches_stdlib_on_tables(value):
    assert dumps(value) == _stdlib(value)


@pytest.mark.parametrize(
    "value",
    [object(), {"a": [1, object()]}, _Pair(1, {2: object()}), {(1, 2): 3},
     np.int64(1), [1, {"a": np.int64(2)}], {"a": {frozenset(): 1}},
     [{"a": 1}, {"a": object()}], [{(1, 2): 3}, {(1, 2): 4}]],
    ids=["object", "nested-object", "object-in-dataclass", "tuple-key",
         "numpy-int64", "nested-numpy-int64", "frozenset-key",
         "object-in-table", "tuple-key-in-table"],
)
def test_unsupported_value_raises_type_error(value):
    with pytest.raises(TypeError):
        _stdlib(value)
    with pytest.raises(TypeError):
        dumps(value)
    with pytest.raises(TypeError):
        dumps_line(value)


# every JSON-emitting subcommand at a small n, then one job per error exit code
_CLI_JOBS = [
    (["bounds", "--p", "1/10", "--n", "6"], 0),
    (["bounds", "--p", "1/10,1/5", "--n", "6", "--format", "csv", "--out", "b.csv"], 0),
    (["exact", "--p", "1/10", "--n", "6"], 0),
    (["exact", "--p", "1/5", "--n", "5", "--strategy", "round-robin"], 0),
    (["bellman", "--p", "1/5", "--n", "6"], 0),
    (["verify-theorem2", "--p", "1/5", "--n", "6", "--detail"], 0),
    (["octopus", "--p", "1/10", "--depth", "3", "--verify"], 0),
    (["paths", "--p", "1/10", "--n", "6"], 0),
    (["paths", "--p", "1/10", "--n", "6", "--series", "basic", "--variant", "closed-form"], 0),
    (["simplex", "--p", "1/10", "--n", "6"], 0),
    (["sweep", "--p", "1/10", "--n-max", "6", "--out", "c.csv"], 0),
    (["exact", "--p", "2", "--n", "3"], 2),
    (["bellman", "--p", "1/10", "--n", "30", "--state-cap", "10"], 4),
]
_CLI_CASES = [
    (argv + ["--mode", mode], code) for argv, code in _CLI_JOBS for mode in ("rational", "float")
] + [
    (["simulate", "--p", "0.1", "--n", "6", "--trials", "200",
      "--dump-trajectories", "d.jsonl", "--dump-count", "3"], 0),
    (["paths", "--p", "1e-400", "--n", "3", "--variant", "closed-form"], 3),
    (["verify-theorem2", "--p", "5e-324", "--n", "4", "--mode", "float"], 3),
]


@pytest.mark.parametrize("argv, code", _CLI_CASES, ids=[" ".join(a) for a, _ in _CLI_CASES])
def test_emitter_matches_stdlib_on_every_cli_result(tmp_path, monkeypatch, argv, code):
    emitted = []

    def record(value):
        emitted.append((value, dumps(value)))
        return emitted[-1][1]

    monkeypatch.setattr(serialize, "dumps", record)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert dispatch(argv) == code
    assert emitted
    for value, text in emitted:
        assert text == _stdlib(value)


class _Dict(dict):
    pass


class _List(list):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Ratio(Fraction):
    pass


def _nested(depth):
    value = 1
    for level in range(depth):
        value = [value, level] if level % 2 else {"d": value, "e": []}
    return value


_EDGES = {
    "nested-200": _nested(200),
    "numpy-float64": [np.float64(0.1), np.float64(1e300), {"x": np.float64(-2.5)}],
    "subclasses": _Dict(a=_List([_Int(3), _Float(0.25), _Ratio(1, 3)]), b=_List()),
    "non-str-keys": {True: 1, False: 2, None: 3, 1.5: 4, math.nan: 5, _Int(7): 6, 2: [7]},
    "non-finite": [math.nan, math.inf, -math.inf, {"v": -math.inf}, _Float(math.nan)],
    "empty": [{}, [], (), {"a": {}, "b": []}, _Dict(), _List()],
    "strings": {"\x00\x1f\"\\/\x7f": ["\n\t\r\b\f", "\U0001f600", "  ", "\ud800"]},
    "scalars": [None, True, False, 0, -(10**40), 1e-320, "", Fraction(-7, 3), Fraction(0)],
    "top-level-scalar": Fraction(5, 2),
    "set-and-dataclass": _Pair({3, 1, 2}, frozenset({"b", "a"})),
    # lists of plain dicts are written as tables: one template per key tuple and
    # memoised leaf texts, so equal values of different types must keep their own text
    "table-key-orders": [{"a": 1, "b": [2]}, {"b": [2], "a": 1}, {"a": 3, "b": [2]}],
    "table-equal-leaves": [{"v": v} for v in _EQUAL_LEAVES * 2],
    "table-quoted-keys": [{'%s': 1, 'a"b%%': [2]}, {'%s': Fraction(1, 3), 'a"b%%': [2]}],
    "table-empty-rows": [{}, {"a": Fraction(0)}, {}, {"a": Fraction(0)}],
    "table-dict-subclass": [[{"a": (1, 2)}, _Dict(a=(1, 2))], [_Dict(a=1), _Dict(a=1)]],
    "table-non-str-keys": [{1: [3], False: "x", None: 0.5}, {1: [3], False: "y", None: 1.5}],
    # a non-str key found partway: the rows already written are dropped, json writes the list
    "table-int-key-in-third-row": [{"a": 1, "b": [2]}, {"a": 3, "b": [2]}, {"a": 4, 5: [2]}],
    # a bool is no plain int: (1, True) is written by json, not joined as ints
    "int-tuple-with-bool": {"s": (1, True), "rows": [{"s": (1, True)}, {"s": (True, 1)}]},
    "table-equal-keys": [{1: 0}, {True: 0}, {1.0: 0}, {_Int(1): 0}, {"1": 0}, {1: 0}],
    "table-nested": [
        {"f": Fraction(1, 3), "rows": [{"f": Fraction(1, 3), "s": (0, 1)}, {"f": [1]}]},
        {"f": Fraction(1, 3), "rows": [], "s": (0, 1)},
    ],
    "table-tuple-of-dicts": ({"a": [1, 2]}, {"a": [1, 2]}),
    "table-other-values": [
        {"p": _Pair(1, [2]), "s": {3, 1}, "x": np.float64(0.5), "n": None, "f": math.nan,
         "l": [1, "1"], "e": [], "d": {"k": [1]}, "i": _Int(4), "r": _Ratio(1, 3)},
    ] * 2,
}


@pytest.mark.parametrize("value", list(_EDGES.values()), ids=list(_EDGES))
def test_emitter_matches_stdlib_on_edge_cases(value):
    assert dumps(value) == _stdlib(value)


def test_table_memo_is_per_object_and_per_call():
    # a table writes each value object's text once: rows that share one list, tuple
    # and Fraction keep their texts apart from equal values of other types, and a
    # shared list mutated between two calls is written anew
    shared_list, shared_tuple, shared_ratio = [1], (1,), Fraction(1)
    rows = [
        {"l": shared_list, "t": shared_tuple, "f": shared_ratio},
        {"l": [True], "t": [1], "f": 1},
        {"l": shared_list, "t": shared_tuple, "f": shared_ratio},
        {"l": (1,), "t": (True,), "f": Fraction(1)},
        {"l": shared_list, "t": shared_tuple, "f": 1.0},
    ]
    first = dumps(rows)
    assert first == _stdlib(rows)
    shared_list[0] = Fraction(1, 2)
    shared_list.append([True])
    assert dumps(rows) == _stdlib(rows) != first
