import random

import pytest

from tritune.equal import generate_et
from tritune.errors import TuningError
from tritune.weber import MAX_STIMULI, perception_increments, uniform_stimuli


class TestPerceptionIncrements:
    def test_geometric_series_feels_uniform(self):
        assert perception_increments([1, 2, 4, 8], k=1) == [1.0, 1.0, 1.0]

    def test_direct_substitution(self):
        # dP_j = k (S_{j+1} - S_j) / S_j by hand: (2-1)/1 = 1, (3-2)/2 = 0.5
        assert perception_increments([1, 2, 3], k=1) == [1.0, 0.5]

    def test_no_change_no_percept(self):
        assert perception_increments([3.7, 3.7], k=2.5) == [0.0]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            perception_increments([1, -2, 3], k=1)
        with pytest.raises(ValueError):
            perception_increments([1], k=1)
        with pytest.raises(ValueError):
            perception_increments([1, 2], k=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(TuningError):
            perception_increments([1, bad], k=1)
        with pytest.raises(TuningError):
            perception_increments([1, 2], k=bad)

    def test_increment_leaving_the_float_range_rejected(self):
        with pytest.raises(TuningError):
            perception_increments([1, 1e308], k=1e10)


class TestUniformStimuli:
    def test_doubling_series(self):
        assert uniform_stimuli(1, c=1, k=1, n=4) == [1, 2, 4, 8]

    def test_zero_increment_is_constant(self):
        assert uniform_stimuli(1, c=0, k=1, n=3) == [1, 1, 1]

    def test_ratio_must_stay_positive(self):
        with pytest.raises(ValueError):
            uniform_stimuli(1, c=-2, k=1, n=3)
        with pytest.raises(ValueError):
            uniform_stimuli(0, c=1, k=1, n=3)

    @pytest.mark.parametrize("k", [0, -0.5])
    def test_the_context_constant_must_be_positive(self, k):
        with pytest.raises(TuningError, match="^the context constant k must be positive$"):
            uniform_stimuli(1, 1, k, 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_rejected(self, bad):
        for s1, c, k in [(bad, 1, 1), (1, bad, 1), (1, 1, bad)]:
            with pytest.raises(TuningError):
                uniform_stimuli(s1, c=c, k=k, n=3)

    def test_length_is_capped(self):
        assert len(uniform_stimuli(1, c=0, k=1, n=MAX_STIMULI)) == MAX_STIMULI
        with pytest.raises(TuningError):
            uniform_stimuli(1, c=0, k=1, n=MAX_STIMULI + 1)

    def test_series_leaving_the_float_range_rejected(self):
        for c in (1.0, -0.9):  # ratio**j overflows, or underflows to zero
            with pytest.raises(TuningError):
                uniform_stimuli(1, c=c, k=1, n=2000)
        with pytest.raises(TuningError):  # each factor finite, the product not
            uniform_stimuli(1e300, c=1e10, k=1, n=2)

    def test_increments_recover_the_constant(self):
        for c, k in [(0.3, 1.0), (2.0, 5.0), (-0.1, 0.4)]:
            series = uniform_stimuli(2.0, c=c, k=k, n=10)
            for dp in perception_increments(series, k=k):
                assert dp == pytest.approx(c, rel=1e-12)


class TestEquivalence:
    def test_semitone_increment_reproduces_the_equal_scale(self):
        ratio_minus_one = 2 ** (1 / 12) - 1
        series = uniform_stimuli(1.0, c=ratio_minus_one, k=1.0, n=13)
        scale = generate_et(12)
        assert len(series) == len(scale.pitches)
        for s, p in zip(series, scale.pitches):
            assert s == pytest.approx(float(p), rel=1e-9)

    def test_constant_increments_iff_geometric(self):
        rng = random.Random(20260810)
        for _ in range(200):
            s1 = rng.uniform(0.1, 10)
            ratio = rng.uniform(0.2, 3)
            n = rng.randint(3, 12)
            k = rng.uniform(0.1, 5)
            geometric = [s1 * ratio ** j for j in range(n)]
            increments = perception_increments(geometric, k=k)
            spread = max(increments) - min(increments)
            assert spread <= 1e-12 * max(1.0, max(abs(i) for i in increments))

            # perturb one interior element: increments must stop being constant
            bent = list(geometric)
            bent[n // 2] *= 1.01
            increments = perception_increments(bent, k=k)
            assert max(increments) - min(increments) > 1e-6

    def test_constant_increments_imply_constant_ratio(self):
        rng = random.Random(7)
        for _ in range(100):
            values = [rng.uniform(0.5, 2)]
            c = rng.uniform(-0.3, 1.0)
            k = rng.uniform(0.5, 2)
            for _ in range(6):
                values.append(values[-1] * (1 + c / k))
            ratios = [b / a for a, b in zip(values, values[1:])]
            assert max(ratios) - min(ratios) <= 1e-12 * max(map(abs, ratios))
