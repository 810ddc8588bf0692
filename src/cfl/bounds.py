"""Log-space evaluation of the closed-form probability bounds and tiling
thresholds.

Everything that can overflow (binomials, powers of tiny probabilities) is
evaluated through log-gamma and compensated summation; exact rational
versions are provided where downstream tests demand bit-exact comparisons.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from .graphs import ParameterError
from .records import Record

if TYPE_CHECKING:
    from fractions import Fraction


def log_binomial(n: int, k: int) -> float:
    """log C(n, k); -inf when the coefficient is zero."""
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fkg_lower_bound(n: int, ell: int, p: float) -> float:
    """Log of the product lower bound on P[G(n,p) has no K_{ell+1}]:
    C(n, ell+1) * log(1 - p^C(ell+1, 2)).

    Correlation (Harris/FKG) makes the product over (ell+1)-sets a valid
    lower bound.  Returns 0.0 when there are no (ell+1)-sets and -inf when
    p = 1 and at least one set exists.
    """
    ParameterError.at_least("n", n, 1)
    ParameterError.at_least("ell", ell, 1)
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p", f"expected a probability in [0, 1], got {p}")
    if n < ell + 1:
        return 0.0
    nsets = math.comb(n, ell + 1)
    epairs = math.comb(ell + 1, 2)
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return -math.inf
    return nsets * math.log1p(-(p ** epairs))


class JansonReport(Record):
    """Upper bound on P[an a_size-set spans no K_ell] in G(., p):
    exp(-E(X) + Delta/2), with X the K_ell count in the set and Delta the
    ordered-pair correlation sum over ell-subsets sharing >= 2 vertices."""
    a_size: int
    ell: int
    p: float
    expected_x: float
    delta: float
    log_upper_bound: float        # min(0, -E(X) + Delta/2); bound clamped to 1
    upper_bound: float            # exp(log_upper_bound)


def _delta_terms_log(a_size: int, ell: int, p: float) -> List[float]:
    """Per-intersection-size log terms of the exact pairwise sum."""
    if p == 0.0:
        return []
    lp = math.log(p)
    epairs = math.comb(ell, 2)
    out = []
    for s in range(2, ell):
        lt = (log_binomial(a_size, ell) + log_binomial(ell, s)
              + log_binomial(a_size - ell, ell - s)
              + (2 * epairs - math.comb(s, 2)) * lp)
        if lt > -math.inf:
            out.append(lt)
    return out


def janson_bound(a_size: int, ell: int, p: float) -> JansonReport:
    """Evaluate the exponential upper bound in log space.

    The correlation sum is computed exactly by intersection-size casework:
    ordered pairs of distinct ell-subsets with |S & S'| = s contribute
    C(a, ell) C(ell, s) C(a-ell, ell-s) p^(2 C(ell,2) - C(s,2)); only
    s in [2, ell-1] carries shared edges.  ell = 2 therefore has Delta = 0.
    """
    ParameterError.at_least("ell", ell, 2)
    ParameterError.at_least("a_size", a_size, ell)
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p", f"expected a probability in [0, 1], got {p}")
    epairs = math.comb(ell, 2)
    if p == 0.0:
        expected = 0.0
    else:
        expected = math.exp(log_binomial(a_size, ell) + epairs * math.log(p))
    delta = math.fsum(math.exp(t) for t in _delta_terms_log(a_size, ell, p))
    log_ub = min(0.0, -expected + delta / 2.0)
    return JansonReport(a_size=a_size, ell=ell, p=p, expected_x=expected,
                        delta=delta, log_upper_bound=log_ub,
                        upper_bound=math.exp(log_ub))


def _delta_denominator_bits(a_size: int, ell: int,
                            q: Fraction) -> Optional[int]:
    """Bit count B of the reduced denominator 2^B of janson_delta_exact
    when ``q`` = m / 2^k (k >= 1, m odd), or None when this shortcut does
    not decide it.

    Over the common denominator 2^(k e), with e the largest exponent among
    the terms whose coefficient c is nonzero, the numerator is c m^e plus
    terms divisible by 2^(k gap), gap being the drop to the next exponent.
    So when v = v_2(c) < k gap, the numerator has 2-adic valuation v and
    B = k e - v.  A lone term (s = ell - 1) reduces to B = max(0, k e - v)."""
    den = q.denominator
    k = den.bit_length() - 1
    if k == 0 or den != 1 << k:
        return None
    s = max(2, 2 * ell - a_size)       # smallest s with C(a-ell, ell-s) > 0
    if s >= ell:
        return None
    c = (math.comb(a_size, ell) * math.comb(ell, s)
         * math.comb(a_size - ell, ell - s))
    v = (c & -c).bit_length() - 1
    gap = s                             # C(s+1, 2) - C(s, 2)
    if s + 1 < ell and v >= k * gap:
        return None
    return max(0, k * (2 * math.comb(ell, 2) - math.comb(s, 2)) - v)


def janson_delta_exact(a_size: int, ell: int, p) -> Fraction:
    """Exact rational correlation sum (same casework as janson_bound).
    ``p`` is converted to an exact Fraction, so binary floats are taken at
    their exact value.

    Raises ValueError, before summing, when the result's denominator would
    have more decimal digits than Python's int-to-str limit allows: such a
    sum can run for minutes and could not be printed anyway."""
    from fractions import Fraction
    q = p if isinstance(p, Fraction) else Fraction(p)
    # the limit exists from Python 3.10.7 on; 0 means none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = _delta_denominator_bits(a_size, ell, q) if limit else None
    if bits is not None and bits * math.log10(2) >= limit:
        raise ValueError(f"the exact Delta's denominator 2^{bits} has more "
                         f"than {limit} decimal digits")
    epairs = math.comb(ell, 2)
    total = Fraction(0)
    for s in range(2, ell):
        total += (math.comb(a_size, ell) * math.comb(ell, s)
                  * math.comb(a_size - ell, ell - s)
                  * q ** (2 * epairs - math.comb(s, 2)))
    return total


def drc_condition(n: int, avg_degree: float, t: int, r: int, m: float,
                  a: float) -> float:
    """Slack of the selector feasibility inequality:
    d^t / n^(t-1) - C(n, r) (m/n)^t - a.

    Nonnegative slack means a certified selection of at least ``a`` vertices
    is achievable in expectation.  Both terms are evaluated in log space and
    only exponentiated if representable; otherwise the sign of the dominant
    term decides.
    """
    ParameterError.at_least("n", n, 1)
    if not avg_degree >= 0:
        raise ParameterError("avg_degree", f"expected a number >= 0, got {avg_degree}")
    ParameterError.at_least("t", t, 1)
    ParameterError.at_least("r", r, 1)
    if not m >= 0:
        raise ParameterError("m", f"expected a number >= 0, got {m}")
    lt1 = -math.inf if avg_degree == 0 else t * math.log(avg_degree) - (t - 1) * math.log(n)
    lt2 = -math.inf if m == 0 else log_binomial(n, r) + t * (math.log(m) - math.log(n))
    big = 700.0
    if lt1 > big or lt2 > big:
        if abs(lt1 - lt2) < 1e-9:
            return 0.0 - a
        return math.inf if lt1 > lt2 else -math.inf
    return math.exp(lt1) - math.exp(lt2) - a


def chi_cr(part_sizes: Sequence[int]) -> Fraction:
    """Critical chromatic number of a complete multipartite graph:
    (k-1) r / (r - sigma) with k parts, r vertices, sigma the smallest part.

    A single part is degenerate (the formula is 0/0); by convention the
    value 0 is returned and callers treat it as undefined.
    """
    if not part_sizes or min(part_sizes) < 1:
        raise ParameterError("parts", "expected one or more positive part "
                             f"sizes, got {list(part_sizes)}")
    from fractions import Fraction
    k = len(part_sizes)
    if k == 1:
        return Fraction(0)
    r = sum(part_sizes)
    sigma = min(part_sizes)
    return Fraction((k - 1) * r, r - sigma)


def komlos_threshold(part_sizes: Sequence[int]) -> Fraction:
    """Minimum-degree fraction 1 - 1/chi_cr above which near-perfect tilings
    by the given complete multipartite graph are guaranteed (asymptotically).
    """
    c = chi_cr(part_sizes)
    if c == 0:
        raise ValueError("degenerate critical chromatic number (single part)")
    return 1 - 1 / c


class DegreeThresholds(Record):
    """The two minimum-degree terms competing in the factor threshold:
    the tiling term (r-l)/r and the cover term 1/(2 - rho_star); the
    threshold is the larger, and ``scaled`` is the threshold times n."""
    rho_star: Fraction
    tiling_term: Fraction
    cover_term: Fraction
    threshold: Fraction
    scaled: Fraction


def degree_thresholds(n: int, r: int, ell: int, rho_star) -> DegreeThresholds:
    ParameterError.at_least("ell", ell, 2)
    ParameterError.at_least("r", r, ell + 1)
    ParameterError.at_least("n", n, 1)
    from fractions import Fraction
    rho = rho_star if isinstance(rho_star, Fraction) else Fraction(rho_star)
    if not 0 <= rho < 1:
        raise ParameterError("rho_star", f"expected a rational in [0, 1), got {rho}")
    tiling_term = Fraction(r - ell, r)
    cover_term = Fraction(1) / (2 - rho)
    threshold = max(tiling_term, cover_term)
    return DegreeThresholds(rho_star=rho, tiling_term=tiling_term,
                            cover_term=cover_term, threshold=threshold,
                            scaled=threshold * n)


def alpha_profile(n: int, r: int, ell: int, c: float) -> float:
    """Evaluate the sublinear independence profile n^(1 - c * (ln n)^(-lam))
    with lam = 1 / floor(r/l + 1).

    A finite-n stand-in for "almost linear but not quite": the profile sits
    between n^(1-eps) and n / log n for every fixed eps as n grows.
    """
    ParameterError.at_least("n", n, 2)
    if not r > ell >= 2:
        raise ValueError(f"need r > ell >= 2, got r={r}, ell={ell}")
    lam = 1.0 / (r // ell + 1)
    return n ** (1.0 - c * math.log(n) ** (-lam))
