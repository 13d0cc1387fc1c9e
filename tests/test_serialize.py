import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab.serialize import dumps, dumps_line


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


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_emitter_matches_reference_tree(value):
    tree = _reference_encode(value)
    assert dumps(value) == json.dumps(tree, indent=2, ensure_ascii=False) + "\n"
    assert dumps_line(value) == json.dumps(tree, separators=(",", ":"), ensure_ascii=False) + "\n"


@pytest.mark.parametrize(
    "value",
    [object(), {"a": [1, object()]}, _Pair(1, {2: object()}), {(1, 2): 3}],
    ids=["object", "nested-object", "object-in-dataclass", "tuple-key"],
)
def test_unsupported_value_raises_type_error(value):
    with pytest.raises(TypeError):
        dumps(value)
    with pytest.raises(TypeError):
        dumps_line(value)
