import math
from fractions import Fraction

import numpy as np
import pytest

from fblab.channel import ChannelParams, make_channel
from fblab.montecarlo import _batch_outputs, counter_hash
from fblab.strategy import StrategyRule

P_GRID = ["1/20", "1/10", "1/5", "3/10", "2/5"]


def test_make_channel_rational_example():
    ch = make_channel("1/10")
    assert ch.p == Fraction(1, 10)
    assert ch.q == Fraction(9, 10)
    assert ch.z == Fraction(1, 9)
    assert ch.exact and not ch.degenerate


def test_make_channel_degenerate_boundary():
    ch = make_channel("1/2")
    assert ch.z == 1 and ch.degenerate


@pytest.mark.parametrize("bad", ["0.6", "0", "-1/10", "abc", "3/5"])
def test_make_channel_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        make_channel(bad)


def test_float_mode_parses_fraction_literals():
    ch = make_channel("1/10", "float")
    assert isinstance(ch.p, float) and ch.p == 0.1
    assert not ch.exact


@pytest.mark.parametrize("lit", P_GRID + ["1/2", "1/7", "0.123"])
def test_complement_identity(lit):
    ch = make_channel(lit)
    assert ch.p + ch.q == 1
    assert ch.z == ch.p / ch.q
    assert ch.z <= 1
    assert (ch.z == 1) == ch.degenerate
    chf = make_channel(lit, "float")
    assert abs(chf.p + chf.q - 1.0) <= math.ulp(1.0)


def test_counter_hash_pinned_vectors():
    # frozen generator contract; changing these breaks stored results
    assert counter_hash(0, 0, 1, 0) == 0x48218226FF3CD4BF
    assert counter_hash(1, 2, 3, 4) == 0xBA49F845AA81CCC0
    assert counter_hash(20220301, 999, 1, 17) == 0x7DDB41342B1DA2E5
    assert counter_hash(2**64 - 1, 2**32, 4, 10**6) == 0x4C5BD4D685B0A0A2


@pytest.mark.parametrize("p", [0.1, 0.5])
def test_empirical_flip_rate(p):
    # 10**6 channel uses from the batch engine's per-step outputs; always
    # querying message 1 sends x = (true != 1), so the flip is y ^ x
    ch = make_channel(str(p), "float")
    steps, trials = 100, 10**4
    rule = StrategyRule(kind="fixed", fixed_query=1)
    batches = _batch_outputs(steps, ch, rule, 2024, trials, return_arrays=True)
    flips = np.concatenate([out["ys"] ^ (out["true"] != 1) for out in batches], axis=1)
    assert flips.shape == (steps, trials)
    n = steps * trials
    assert abs(flips.mean() - p) <= 4.0 * math.sqrt(p * (1 - p) / n)


def test_channel_params_is_immutable():
    ch = make_channel("1/10")
    with pytest.raises(Exception):
        ch.p = Fraction(1, 3)  # type: ignore[misc]
    assert isinstance(ch, ChannelParams)
