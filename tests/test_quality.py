import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmine import LabelVector, empirical_quality
from sigmine import bitset


def lv(bits):
    return LabelVector(np.asarray(bits, dtype=np.uint8))


def test_empirical_quality_example():
    labels = lv([1, 0, 1])
    cover = bitset.pack(np.array([1, 0, 1]))
    stat = empirical_quality(cover, labels, 2 / 3)
    assert stat.value == (2 - 2 * (2 / 3)) / 3
    assert stat.positives == 2
    assert stat.frequency == 2 / 3


def test_empty_cover_is_zero():
    labels = lv([1, 0, 1, 1])
    for center in (0.0, 0.3, 1.0):
        assert empirical_quality(0, labels, center).value == 0.0


def test_full_cover_at_mean_centers_to_zero():
    labels = lv([1, 0, 1])
    stat = empirical_quality(bitset.full(3), labels, labels.mean())
    assert abs(stat.value) < 1e-15


def test_center_linearity_exact_on_dyadic_m():
    labels = lv([1, 0, 1, 1, 0, 0, 1, 0])  # m = 8, divisions exact
    cover = bitset.pack(np.array([1, 0, 1, 1, 0, 1, 0, 0]))
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
    cover = bitset.pack(rng.random(m) < 0.6)
    s1 = empirical_quality(cover, labels, c1)
    s2 = empirical_quality(cover, labels, c2)
    assert s1.value - s2.value == pytest.approx(s1.frequency * (c2 - c1), abs=1e-12)
    assert abs(s1.value) <= s1.frequency * max(c1, 1 - c1) + 1e-12
