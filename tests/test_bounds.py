"""Closed-form bound evaluation: probability inequalities and thresholds."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from cfl.bounds import (_delta_denominator_bits, alpha_profile, chi_cr,
                        degree_thresholds, drc_condition, fkg_lower_bound,
                        janson_bound, janson_delta_exact, komlos_threshold,
                        log_binomial)


def brute_delta(a_size: int, ell: int, p: Fraction) -> Fraction:
    """Ordered-pair correlation sum over ell-subsets sharing >= 2 vertices,
    straight from the definition."""
    subs = list(combinations(range(a_size), ell))
    total = Fraction(0)
    for s1 in subs:
        for s2 in subs:
            if s1 == s2 or len(set(s1) & set(s2)) < 2:
                continue
            edges = set()
            for sub in (s1, s2):
                for i in range(ell):
                    for j in range(i + 1, ell):
                        edges.add((sub[i], sub[j]))
            total += p ** len(edges)
    return total


def janson_expected_exact(a_size: int, ell: int, p: Fraction) -> Fraction:
    """E(X), the expected K_ell count in an a_size-set, as an exact rational."""
    return math.comb(a_size, ell) * p ** math.comb(ell, 2)


# -- product lower bound ---------------------------------------------------------

def test_fkg_worked_example():
    got = fkg_lower_bound(5, 2, 0.5)
    assert got == pytest.approx(10 * math.log(1 - 0.5 ** 3))
    assert math.exp(got) == pytest.approx(0.26307, abs=1e-5)
    assert got == pytest.approx(-1.3354, abs=1e-4)


def test_fkg_edge_cases():
    assert fkg_lower_bound(10, 2, 0.0) == 0.0
    assert fkg_lower_bound(2, 2, 0.7) == 0.0          # no (ell+1)-sets
    assert fkg_lower_bound(10, 2, 1.0) == -math.inf
    with pytest.raises(ValueError):
        fkg_lower_bound(5, 2, 1.5)


# -- exponential upper bound ------------------------------------------------------

def test_janson_worked_example():
    rep = janson_bound(5, 3, 0.5)
    assert rep.expected_x == pytest.approx(1.25, rel=1e-12)
    assert rep.delta == pytest.approx(float(janson_delta_exact(5, 3, 0.5)),
                                      rel=1e-12)


def test_janson_ell2_has_no_correlation_term():
    rep = janson_bound(8, 2, 0.3)
    assert rep.delta == 0.0
    assert rep.upper_bound == pytest.approx(math.exp(-math.comb(8, 2) * 0.3),
                                            rel=1e-12)


def test_janson_single_set_at_p1():
    rep = janson_bound(3, 3, 1.0)
    assert rep.expected_x == pytest.approx(1.0)
    assert rep.delta == 0.0
    assert rep.upper_bound == pytest.approx(math.exp(-1.0))


def test_janson_bound_clamped_to_probability():
    rep = janson_bound(9, 3, 0.9)       # exponent goes positive
    assert rep.log_upper_bound <= 0.0
    assert 0.0 <= rep.upper_bound <= 1.0
    assert -rep.expected_x + rep.delta / 2 > rep.log_upper_bound


def test_delta_matches_brute_force_exactly():
    for a_size in range(3, 10):
        for ell in range(2, min(a_size, 5) + 1):
            for p in (Fraction(1, 2), Fraction(3, 10), Fraction(0.2)):
                assert janson_delta_exact(a_size, ell, p) == \
                    brute_delta(a_size, ell, p)


def test_delta_denominator_bits_match_the_exact_sums():
    decided = 0
    for a_size in range(3, 26):
        for ell in range(3, min(a_size, 8) + 1):
            for p in (0.3, 0.5, 0.7, 0.123456789, Fraction(3, 8), Fraction(3, 10)):
                bits = _delta_denominator_bits(a_size, ell, Fraction(p))
                if bits is None:
                    continue
                decided += 1
                assert janson_delta_exact(a_size, ell, p).denominator == 1 << bits
    assert decided > 500


def test_expected_reference_matches_the_subset_sum():
    # E(X) summed over the ell-subsets, each a K_ell with probability
    # p^C(ell, 2)
    for a_size in range(2, 8):
        for ell in range(2, a_size + 1):
            for p in (Fraction(1, 2), Fraction(3, 10), Fraction(1)):
                direct = sum(p ** math.comb(ell, 2)
                             for _ in combinations(range(a_size), ell))
                assert janson_expected_exact(a_size, ell, p) == direct


def test_janson_float_tracks_exact():
    for a_size in (6, 9, 12):
        for p in (0.2, 0.3, 0.5):
            rep = janson_bound(a_size, 3, p)
            # float p enters the exact path at its decimal reading; compare
            # against the binary-exact evaluation instead
            exact = brute_delta(a_size, 3, Fraction(p))
            assert rep.delta == pytest.approx(float(exact), rel=1e-9)
            assert rep.expected_x == pytest.approx(
                float(janson_expected_exact(a_size, 3, Fraction(p))), rel=1e-12)


# -- selector feasibility ---------------------------------------------------------

def test_drc_condition_worked_example():
    slack = drc_condition(100, 50, 2, 2, 5, 12)
    assert slack == pytest.approx(25 - 12.375 - 12, rel=1e-9)
    assert slack >= 0


def test_drc_condition_m_equals_n_is_hopeless():
    slack = drc_condition(100, 50, 2, 2, 100, 12)
    assert slack == pytest.approx(25 - math.comb(100, 2) - 12, rel=1e-9)
    assert slack < 0


def test_drc_condition_t1_specialization():
    slack = drc_condition(100, 50, 1, 2, 5, 12)
    assert slack == pytest.approx(50 - math.comb(100, 2) * 0.05 - 12, rel=1e-9)


def test_drc_condition_log_safe_overflow():
    # d > n makes the first term explode; a huge binomial the second
    assert drc_condition(2, 10, 500, 2, 1, 10) == math.inf
    assert drc_condition(10 ** 6, 2, 1, 300, 10 ** 6, 10) == -math.inf
    # and within-range parameters never overflow: d^t/n^(t-1) <= d
    assert math.isfinite(drc_condition(10 ** 6, 10 ** 5, 100, 2, 1, 10))


# -- critical chromatic number and thresholds -----------------------------------

def test_chi_cr_examples():
    assert chi_cr([1, 2, 2]) == Fraction(5, 2)
    assert chi_cr([1, 1, 1, 1]) == 4
    assert chi_cr([3, 3, 3]) == 3
    assert chi_cr([5]) == 0                    # degenerate single part
    with pytest.raises(ValueError):
        chi_cr([])
    with pytest.raises(ValueError):
        chi_cr([0, 2])


def test_chi_cr_balanced_family_value():
    # parts [y, ell, ..., ell] with x blocks of ell: value r/ell, r = x*ell + y
    for ell in range(2, 7):
        for x in range(1, 5):
            for y in range(1, ell + 1):
                r = x * ell + y
                if r > 12:
                    continue
                parts = [y] + [ell] * x
                assert chi_cr(parts) == Fraction(r, ell)


def test_komlos_threshold_examples():
    assert komlos_threshold([1, 1, 1]) == Fraction(2, 3)
    assert komlos_threshold([1, 2, 2]) == Fraction(3, 5)
    assert komlos_threshold([2, 2]) == Fraction(1, 2)
    with pytest.raises(ValueError):
        komlos_threshold([4])


def test_degree_thresholds():
    dt = degree_thresholds(100, 4, 3, 0)
    assert dt.tiling_term == Fraction(1, 4)
    assert dt.cover_term == Fraction(1, 2)
    assert dt.threshold == Fraction(1, 2)
    assert dt.scaled == 50
    # r = ell + 1: the tiling term 1/r always loses to 1/2
    for ell in (2, 3, 5):
        dt = degree_thresholds(10, ell + 1, ell, 0)
        assert dt.threshold == Fraction(1, 2)
    dt2 = degree_thresholds(10, 5, 2, Fraction(1, 3))
    assert dt2.cover_term == Fraction(3, 5)
    with pytest.raises(ValueError):
        degree_thresholds(10, 4, 2, 1)
    with pytest.raises(ValueError):
        degree_thresholds(10, 4, 2, Fraction(999, 1000) + Fraction(1, 1000))


def test_alpha_profile_between_powers():
    n = 10 ** 4
    v = alpha_profile(n, 3, 2, 1.0)
    assert n ** 0.5 < v < n / math.log(n) * math.log(n)  # sanity: below n
    assert v < n
    assert alpha_profile(n, 3, 2, 2.0) < v                # larger c, smaller bound


# -- log-space consistency ---------------------------------------------------------

def test_log_binomial_matches_exact():
    for n in (5, 20, 100, 400):
        for k in (0, 1, 3, n // 2, n):
            got = log_binomial(n, k)
            want = math.log(math.comb(n, k))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert log_binomial(5, 9) == -math.inf


def test_log_space_matches_direct_space():
    for n in (6, 10, 16):
        for ell in (2, 3):
            for p in (0.1, 0.35, 0.8):
                direct = math.comb(n, ell + 1) * math.log(1 - p ** math.comb(ell + 1, 2))
                assert fkg_lower_bound(n, ell, p) == pytest.approx(direct, rel=1e-12)
                rep = janson_bound(n, ell, p)
                direct_e = math.comb(n, ell) * p ** math.comb(ell, 2)
                assert rep.expected_x == pytest.approx(direct_e, rel=1e-12)
