import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mdplab import diophantine
from mdplab.diophantine import (
    Convergent,
    IrrationalSpec,
    PrecisionError,
    badly_approximable_audit,
    bis_series_circle,
    cf_expand,
    convergents,
    dist_to_integers,
    dist_to_integers_array,
    golden_spec,
    liouville_literal,
    paroux_sum,
    sqrt2m1_spec,
)

# the full Fibonacci numbers F with F <= 2584
FIBS = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584]


def test_golden_quotients_all_ones():
    assert cf_expand(golden_spec(), 40) == [0] + [1] * 40


def test_sqrt2_quotients():
    assert cf_expand(sqrt2m1_spec(), 20) == [0] + [2] * 20


def test_golden_convergents_are_fibonacci_ratios():
    convs = convergents(cf_expand(golden_spec(), 15), spec=golden_spec())
    fib = [1, 1]
    while len(fib) < 20:
        fib.append(fib[-1] + fib[-2])
    # p_k / q_k = F_k / F_{k+1}
    for c in convs[1:]:
        assert c.p == fib[c.k - 1]
        assert c.q == fib[c.k]


def test_convergent_must_be_reduced():
    with pytest.raises(ValueError):
        Convergent(k=1, p=2, q=4)


def test_convergents_verify_against_interval():
    # the |q_k a - p_k| < 1/q_{k+1} certificate runs without raising
    convergents(cf_expand(sqrt2m1_spec(), 25), spec=sqrt2m1_spec())


def test_literal_expansion_exhausts_precision_loudly():
    spec = IrrationalSpec(kind="literal", literal="0.6180339887", radius=1e-10)
    with pytest.raises(PrecisionError):
        cf_expand(spec, 60)


def test_literal_shallow_expansion_matches_quadratic():
    spec = IrrationalSpec(kind="literal", literal="0.61803398874989484820",
                          radius=1e-20)
    assert cf_expand(spec, 12) == cf_expand(golden_spec(), 12)


def test_dist_to_integers_scalar_oracle():
    a = golden_spec()
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for k in (1, 2, 7, 12):
        d, err = dist_to_integers(k, a)
        frac = (k * g) % 1.0
        assert d == pytest.approx(min(frac, 1.0 - frac), abs=1e-12)
        assert err < d


def test_dist_array_agrees_with_scalar():
    a = sqrt2m1_spec()
    arr = dist_to_integers_array(a, 50)
    for k in (1, 10, 50):
        d, _ = dist_to_integers(k, a)
        assert arr[k - 1] == pytest.approx(d, abs=1e-12)


def test_golden_audit_hits_are_exactly_fibonacci():
    # d(k a, Z) < k^(-1.1) holds precisely at Fibonacci k while k^0.1 < sqrt(5),
    # i.e. for every Fibonacci number below 3125; this list is frozen as the
    # true finite-range answer for K = 10^4
    hits = badly_approximable_audit(golden_spec(), 0.1, 10_000)
    assert hits == FIBS


def test_audit_eps_zero_rejected():
    with pytest.raises(ValueError):
        badly_approximable_audit(golden_spec(), 0.0, 100)


def test_audit_precision_guard():
    coarse = IrrationalSpec(kind="literal", literal="0.618034", radius=1e-6)
    with pytest.raises(PrecisionError):
        badly_approximable_audit(coarse, 0.1, 10_000)


def test_liouville_audit_finds_deep_approximations():
    spec = liouville_literal()
    hits = badly_approximable_audit(spec, 0.1, 300)
    # denominators 10^(j!) resonate: k = 100, 200 are hits alongside small k
    assert 100 in hits and 200 in hits


def test_paroux_partial_sums_and_blocks():
    fhat = {1: 0.5}
    partial, blocks = paroux_sum(fhat, golden_spec(), 64)
    assert partial.shape == (64,)
    assert np.all(np.diff(partial) >= 0)
    # block subtotals re-sum to the final partial sum
    assert np.sum(blocks) == pytest.approx(partial[-1], rel=1e-12)


def test_bis_series_circle_dominated():
    diag = bis_series_circle({1: 0.5}, golden_spec(), 400)
    assert diag.verdict == "converging"
    assert diag.extra["dominated"]
    assert diag.extra["left_partials"][-1] <= diag.extra["right_bound"]


def test_quadratic_spec_validation():
    with pytest.raises(ValueError):
        IrrationalSpec(kind="quadratic", P=0, D=4, Q=1)  # perfect square
    with pytest.raises(ValueError):
        IrrationalSpec(kind="literal", literal="0.5", radius=0.0)


def test_interval_encloses_value():
    lo, hi = golden_spec().interval()
    g = Fraction(1, 2)  # golden is in (0.618..., 0.619)
    assert lo < hi
    assert float(hi - lo) < 1e-39
    assert lo > g and hi < Fraction(2, 3)


def reference_dist_array(a, K):
    """The per-k big-integer loop the limb kernel replaced, kept as its oracle."""
    S = 10**40
    A = a.scaled_int()
    out = np.empty(K)
    m = 0
    for k in range(1, K + 1):
        m = (m + A) % S
        out[k - 1] = min(m, S - m)
    return out / S


KERNEL_SPECS = {
    "golden": golden_spec(),
    "sqrt2m1": sqrt2m1_spec(),
    "negative": IrrationalSpec(kind="quadratic", P=-3, D=2),  # sqrt(2) - 3 < 0
    "above_one": IrrationalSpec(kind="quadratic", P=0, D=7919),  # sqrt(7919) = 88.99..
    "surd_over_5": IrrationalSpec(kind="quadratic", P=3, D=7919, Q=5),
    "liouville": liouville_literal(),
    # rational: k*A = 0 mod 10^40 at every k divisible by 4, so d = 0.0 there
    "quarter": IrrationalSpec(kind="literal", literal="0.25", radius=1e-50),
    # 4A = 10^40 + 40: limb sums overshoot 10^40 by less than the top limb's
    # unit, so only the borrow chain's sign tells that 10^40 must come off
    "quarter_plus": IrrationalSpec(kind="literal", literal="0.25" + "0" * 36 + "1",
                                   radius=1e-50),
    # A = 10^40/2 - 6e26: k = 1 sits below the fold point by less than the top
    # limb's unit, and folding it the wrong way moves d by about 2^11 ulps
    "below_half": IrrationalSpec(kind="literal", literal="0.49999999999994",
                                 radius=1e-50),
}


def _boundary_Ks():
    """K = 0..3, K +/-1 around 1024 (where the table width sqrt(K) grows), and
    K whose last k sits just before, on or just after the end of a kernel pass."""
    Ks = {0, 1, 2, 3, 1023, 1024, 1025}
    chunk = diophantine._KERNEL_CHUNK
    for K in range(chunk - 300, 4 * chunk + 300):
        width, _, rows_per_pass = diophantine._kernel_layout(K)
        if (K + 1) % (width * rows_per_pass) in (0, 1, width * rows_per_pass - 1):
            Ks.add(K)
    return sorted(Ks)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_dist_array_kernel_equals_reference_loop(name):
    a = KERNEL_SPECS[name]
    for K in _boundary_Ks():
        got, want = dist_to_integers_array(a, K), reference_dist_array(a, K)
        assert got.shape == want.shape == (K,)
        assert np.array_equal(got, want), (name, K)


@pytest.mark.parametrize("name", ["golden", "negative", "liouville"])
def test_dist_array_kernel_equals_reference_loop_at_1e5(name):
    a = KERNEL_SPECS[name]
    assert np.array_equal(dist_to_integers_array(a, 10**5), reference_dist_array(a, 10**5))


def test_dist_array_rational_literal_hits_zero():
    d = dist_to_integers_array(KERNEL_SPECS["quarter"], 12)
    assert d[3::4].tolist() == [0.0, 0.0, 0.0]
    assert d[:3].tolist() == [0.25, 0.5, 0.25]


def test_limbs_to_float_rounds_like_python_float():
    # halfway and just-off-halfway mantissas at every shift, across the limb
    # boundaries, plus all-ones runs that carry into the next power of two
    values = [0, 1, 2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63, 2**135 - 1]
    for shift in range(0, 135 - 54):
        for m in (2**53 + 1, 2**53 + 3, 2**54 - 1):
            base = m << shift
            values += [v for v in (base - 1, base, base + 1) if v < 2**135]
    # halfway above 2^108 plus one bit that only the middle limb holds: the
    # low limb is zero, so the middle limb's cut-off bits must reach the sticky bit
    for j in range(45, 90):
        half = (2**53 + 1) << 70
        values += [half + (1 << j), half - (1 << j)]
    rng = np.random.default_rng(7)
    values += [int(v) for v in rng.integers(0, 2**62, 2000)]
    values += [int.from_bytes(rng.bytes(17), "little") >> int(rng.integers(1, 135))
               for _ in range(4000)]
    got = diophantine._limbs_to_float(diophantine._limbs(values))
    assert got.tolist() == [float(v) for v in values]


def test_dist_array_transient_memory_is_bounded():
    K = 10**6
    dist_to_integers_array(golden_spec(), 1000)  # warm up imports and caches
    tracemalloc.start()
    try:
        dist_to_integers_array(golden_spec(), K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * K + 16 * 2**20


def test_dist_array_rejects_negative_K():
    with pytest.raises(ValueError, match="K must be >= 0"):
        dist_to_integers_array(golden_spec(), -1)
    assert dist_to_integers_array(golden_spec(), 0).shape == (0,)


def test_audit_rejects_empty_range():
    with pytest.raises(ValueError, match="K must be >= 1"):
        badly_approximable_audit(golden_spec(), 0.1, 0)
