"""Tests for the Counts histogram type."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulator.counts import Counts


class TestConstruction:
    def test_from_dict(self):
        c = Counts({"00": 30, "11": 70})
        assert c.shots == 100
        assert c["11"] == 70
        assert c["01"] == 0  # absent keys read as zero

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(SimulationError):
            Counts({"0": 1, "00": 2})

    def test_invalid_characters_rejected(self):
        with pytest.raises(SimulationError):
            Counts({"0x": 1})

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            Counts({"0": -1})

    def test_empty_needs_width(self):
        with pytest.raises(SimulationError):
            Counts({})
        c = Counts({}, num_bits=3)
        assert c.shots == 0

    def test_zero_entries_dropped(self):
        c = Counts({"00": 0, "11": 5})
        assert "00" not in c

    def test_from_bit_array(self):
        bits = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.uint8)
        c = Counts.from_bit_array(bits)
        # column 0 = bit 0 (rightmost); [0,1] → "10"
        assert c["10"] == 2
        assert c["01"] == 1

    def test_from_bit_array_wrong_ndim(self):
        with pytest.raises(SimulationError):
            Counts.from_bit_array(np.zeros(4, dtype=np.uint8))

    def test_from_probabilities(self):
        c = Counts.from_probabilities({"0": 0.25, "1": 0.75}, shots=400)
        assert c["1"] == 300


class TestStatistics:
    def test_probabilities_sum_to_one(self):
        c = Counts({"00": 1, "01": 2, "10": 3, "11": 4})
        assert sum(c.probabilities().values()) == pytest.approx(1.0)

    def test_most_frequent(self):
        assert Counts({"00": 5, "11": 9}).most_frequent() == "11"

    def test_most_frequent_empty_raises(self):
        with pytest.raises(SimulationError):
            Counts({}, num_bits=2).most_frequent()

    def test_bit_value_little_endian(self):
        c = Counts({"10": 1})
        assert c.bit_value("10", 0) == 0
        assert c.bit_value("10", 1) == 1


class TestTransformations:
    def test_marginal(self):
        c = Counts({"011": 4, "110": 6})
        m = c.marginal([0, 2])  # new bit0 = old bit0, new bit1 = old bit2
        assert m["01"] == 4  # "011": bit0=1 bit2=0 → "01"
        assert m["10"] == 6  # "110": bit0=0 bit2=1 → "10"

    def test_marginal_out_of_range(self):
        with pytest.raises(SimulationError):
            Counts({"00": 1}).marginal([2])

    def test_merged(self):
        a = Counts({"0": 5})
        b = Counts({"0": 3, "1": 2})
        m = a.merged(b)
        assert m["0"] == 8 and m.shots == 10

    def test_merged_width_mismatch(self):
        with pytest.raises(SimulationError):
            Counts({"0": 1}).merged(Counts({"00": 1}))

    def test_add_operator_is_merged(self):
        a = Counts({"01": 5, "10": 1})
        b = Counts({"01": 3, "11": 2})
        s = a + b
        assert s.to_dict() == {"01": 8, "10": 1, "11": 2}
        assert s.shots == a.shots + b.shots

    def test_add_non_counts_is_not_implemented(self):
        with pytest.raises(TypeError):
            Counts({"0": 1}) + {"0": 1}


class TestDistances:
    def test_tvd_identical_zero(self):
        c = Counts({"00": 10, "11": 10})
        assert c.total_variation_distance(c) == pytest.approx(0.0)

    def test_tvd_disjoint_one(self):
        a, b = Counts({"00": 10}), Counts({"11": 10})
        assert a.total_variation_distance(b) == pytest.approx(1.0)

    def test_hellinger_identical_one(self):
        c = Counts({"00": 3, "11": 7})
        assert c.hellinger_fidelity(c) == pytest.approx(1.0)

    def test_hellinger_disjoint_zero(self):
        assert Counts({"0": 5}).hellinger_fidelity(Counts({"1": 5})) == 0.0

    @given(
        st.dictionaries(
            st.sampled_from(["00", "01", "10", "11"]),
            st.integers(1, 100),
            min_size=1,
        ),
        st.dictionaries(
            st.sampled_from(["00", "01", "10", "11"]),
            st.integers(1, 100),
            min_size=1,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_tvd_is_metric_like(self, d1, d2):
        a, b = Counts(d1), Counts(d2)
        tvd = a.total_variation_distance(b)
        assert 0.0 <= tvd <= 1.0 + 1e-12
        assert tvd == pytest.approx(b.total_variation_distance(a))


class TestObservables:
    def test_expectation_z_all_zeros(self):
        assert Counts({"000": 10}).expectation_z() == pytest.approx(1.0)

    def test_expectation_z_single_one(self):
        assert Counts({"001": 10}).expectation_z() == pytest.approx(-1.0)

    def test_expectation_z_subset(self):
        c = Counts({"01": 10})  # bit0=1, bit1=0
        assert c.expectation_z([0]) == pytest.approx(-1.0)
        assert c.expectation_z([1]) == pytest.approx(1.0)

    def test_expectation_z_mixed(self):
        c = Counts({"0": 75, "1": 25})
        assert c.expectation_z() == pytest.approx(0.5)

    def test_ghz_fidelity_estimate(self):
        c = Counts({"000": 45, "111": 45, "010": 10})
        assert c.ghz_fidelity_estimate() == pytest.approx(0.9)

    def test_expectation_empty_raises(self):
        with pytest.raises(SimulationError):
            Counts({}, num_bits=1).expectation_z()
