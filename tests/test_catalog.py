import math

import numpy as np
import pytest

from ueigen import PureState, norm
from ueigen.catalog import (
    CATALOG,
    build,
    example_4_1,
    example_4_2,
    example_4_3,
    example_4_6,
    example_4_7,
    get,
    ids,
    random_state,
    trig_prenormalization,
    trig_tensor,
)


def test_all_states_unit_norm():
    for entry in CATALOG.values():
        if "15" in entry.id or "20" in entry.id:
            continue  # slow builders are cheap too, but keep the loop tight
        built = build(entry.id)
        tensor = built.tensor if isinstance(built, PureState) else built
        assert norm(tensor) == pytest.approx(1.0, abs=1e-12), entry.id
        assert tensor.dims == entry.dims


def test_example_4_1_entries():
    data = example_4_1().tensor.data
    assert data[0, 0, 1] == pytest.approx(math.sqrt(1 / 3), abs=1e-15)
    assert data[1, 0, 0] == pytest.approx(math.sqrt(2 / 3), abs=1e-15)


def test_example_4_2_entries():
    data = example_4_2().tensor.data
    assert np.count_nonzero(data) == 6
    value = math.sqrt(1 / 6)
    for idx in [(1, 1, 1), (2, 1, 2), (1, 2, 3), (2, 2, 1), (1, 3, 2), (2, 3, 3)]:
        assert data[tuple(i - 1 for i in idx)] == pytest.approx(value, abs=1e-15)


def test_example_4_3_entries_and_signs():
    data = example_4_3().tensor.data
    assert data.shape == (2,) * 5
    assert np.count_nonzero(data) == 8
    c = 1 / (2 * math.sqrt(2))
    assert data[0, 1, 1, 1, 1] == pytest.approx(-c)  # the |01111> amplitude
    assert data[1, 0, 1, 0, 1] == pytest.approx(-c)  # the |10101> amplitude
    assert data[0, 0, 0, 0, 0] == pytest.approx(c)
    assert float(np.sum(data > 0)) == 6 and float(np.sum(data < 0)) == 2


def test_example_4_6_entries():
    data = example_4_6().tensor.data
    assert data.shape == (3, 3, 3, 3, 3, 2)
    assert np.count_nonzero(data) == 18
    values = data[data != 0]
    np.testing.assert_allclose(values, 1 / (3 * math.sqrt(2)), atol=1e-15)


def test_example_4_7_entries():
    T = example_4_7()
    data = T.data
    assert data.shape == (10, 8, 5, 7)
    assert data[7, 6, 1, 5] == pytest.approx(math.sqrt(1 / 6))
    assert data[8, 4, 3, 2] == pytest.approx(math.sqrt(1 / 3))
    assert data[0, 1, 1, 0] == pytest.approx(1j * math.sqrt(1 / 6))
    assert data[2, 7, 0, 1] == pytest.approx(-math.sqrt(1 / 3))
    # 1/6 + 1/3 + 1/6 + 1/3 = 1
    assert norm(T) == pytest.approx(1.0, abs=1e-12)


class TestTrig:
    def test_formula_matches_direct_loop(self):
        n = 3
        state = trig_tensor(n)
        raw = np.zeros((n, n, n), dtype=complex)
        for i1 in range(1, n + 1):
            for i2 in range(1, n + 1):
                for i3 in range(1, n + 1):
                    raw[i1 - 1, i2 - 1, i3 - 1] = (
                        math.cos(i1 - i2 + i3) + 1j * math.sin(i1 + i2 - i3)
                    ) / math.sqrt(n**3)
        raw /= np.linalg.norm(raw.ravel())
        np.testing.assert_allclose(state.tensor.data, raw, atol=1e-14)

    def test_prenormalization_already_unit(self):
        # the cos^2/sin^2 cross terms cancel exactly: sum cos(2(i1-i2+i3))
        # and sum cos(2(i1+i2-i3)) both equal Re(|S|^2 S) for S = sum e^(2ik),
        # so the raw 1/sqrt(n^3) scaling is already unit norm; the builder's
        # renormalization only absorbs float rounding
        for n in (2, 5, 10):
            assert trig_prenormalization(n) == pytest.approx(1.0, abs=1e-12)

    def test_smallest_case(self):
        state = trig_tensor(1)
        assert state.tensor.dims == (1, 1, 1)
        assert abs(state.tensor.data[0, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            trig_tensor(0)


class TestRandomState:
    def test_same_seed_identical(self):
        a = random_state((3, 3, 3), seed=5)
        b = random_state((3, 3, 3), seed=5)
        assert np.array_equal(a.tensor.data, b.tensor.data)

    def test_different_seeds_differ(self):
        a = random_state((3, 3), seed=1)
        b = random_state((3, 3), seed=2)
        assert not np.array_equal(a.tensor.data, b.tensor.data)

    def test_unit_norm(self):
        state = random_state((2, 5, 3), seed=9)
        assert norm(state.tensor) == pytest.approx(1.0, abs=1e-12)

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            random_state((), seed=0)


def test_registry_lookup():
    assert "example_4_1" in ids()
    entry = get("example_4_1")
    assert entry.expected_lambda == pytest.approx(0.8165)
    with pytest.raises(KeyError, match="valid ids"):
        get("missing")
