import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmine import LabelVector, empirical_quality


def lv(bits):
    return LabelVector(np.asarray(bits, dtype=np.uint8))


def test_empirical_quality_example():
    labels = lv([1, 0, 1])
    cover = np.array([1, 0, 1], dtype=bool)
    stat = empirical_quality(cover, labels, 2 / 3)
    assert stat.value == (2 - 2 * (2 / 3)) / 3
    assert stat.positives == 2
    assert stat.frequency == 2 / 3


def test_empty_cover_is_zero():
    labels = lv([1, 0, 1, 1])
    for center in (0.0, 0.3, 1.0):
        assert empirical_quality(np.zeros(4, dtype=bool), labels, center).value == 0.0


@pytest.mark.parametrize(
    "cover",
    [0b101, np.array([1, 0, 1]), np.array([True, False])],
    ids=["int", "0/1 int array", "wrong length"],
)
def test_refuses_what_is_not_a_bool_cover(cover):
    # numpy would read the 0/1 array as indices and the int as a scalar
    with pytest.raises(ValueError, match="bool array of length 3"):
        empirical_quality(cover, lv([1, 0, 1]), 0.5)


def test_full_cover_at_mean_centers_to_zero():
    labels = lv([1, 0, 1])
    stat = empirical_quality(np.ones(3, dtype=bool), labels, labels.mean())
    assert abs(stat.value) < 1e-15


def test_center_linearity_exact_on_dyadic_m():
    labels = lv([1, 0, 1, 1, 0, 0, 1, 0])  # m = 8, divisions exact
    cover = np.array([1, 0, 1, 1, 0, 1, 0, 0], dtype=bool)
    c1, c2 = 0.25, 0.75
    v1 = empirical_quality(cover, labels, c1).value
    v2 = empirical_quality(cover, labels, c2).value
    f = empirical_quality(cover, labels, c1).frequency
    assert v1 - v2 == f * (c2 - c1)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**31 - 1), st.floats(0, 1), st.floats(0, 1))
def test_center_linearity_and_value_bound(m, seed, c1, c2):
    rng = np.random.default_rng(seed)
    labels = lv((rng.random(m) < 0.5).astype(np.uint8))
    cover = rng.random(m) < 0.6
    s1 = empirical_quality(cover, labels, c1)
    s2 = empirical_quality(cover, labels, c2)
    assert s1.value - s2.value == pytest.approx(s1.frequency * (c2 - c1), abs=1e-12)
    assert abs(s1.value) <= s1.frequency * max(c1, 1 - c1) + 1e-12
