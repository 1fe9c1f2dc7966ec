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


def test_convergents_past_the_verifiable_depth_are_a_precision_error():
    # golden's 10^-40 interval decides the certificate up to k = 95 only
    quotients = cf_expand(golden_spec(), 100)
    assert len(convergents(quotients[:97], spec=golden_spec())) == 97
    with pytest.raises(PrecisionError, match="unverifiable at k=96"):
        convergents(quotients[:98], spec=golden_spec())


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


@pytest.mark.parametrize("fhat", [
    {1: 0.5, -1: 0.5},
    {0: 1.0, 3: 0.25 - 0.5j, -3: 0.25 + 0.5j, 7.0: 2.0, 2.5: 9.0, 5000: 1.0, np.int64(12): -0.1},
    lambda k: 1.0 / (1 + k * k),
])
def test_fhat_values_equal_the_per_k_loop(fhat):
    K = 1000
    got = diophantine._fhat_values(fhat, K)
    # reference: one lookup per k = 1..K
    if isinstance(fhat, dict):
        want = np.array([abs(complex(fhat.get(int(k), 0.0))) for k in np.arange(1, K + 1)])
    else:
        want = np.array([abs(fhat(int(k))) for k in np.arange(1, K + 1)])
    assert np.array_equal(got, want)


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
    """The per-k big-integer loop at the kernel's modulus 2^128, its oracle."""
    S = 1 << 128
    A = a.scaled_int() % S
    out = np.empty(K)
    m = 0
    for k in range(1, K + 1):
        m = (m + A) % S
        out[k - 1] = float(min(m, S - m)) / S
    return out


def binary_literal(A):
    """The literal A / 2^128 for |A| < 2^128, written out exactly, so that
    scaled_int() is A."""
    digits = f"{abs(A) * 5**128:0128d}"  # A / 2^128 = A * 5^128 / 10^128
    return IrrationalSpec(kind="literal", literal=("-0." if A < 0 else "0.") + digits,
                          radius=1e-200)


KERNEL_SPECS = {
    "golden": golden_spec(),
    "sqrt2m1": sqrt2m1_spec(),
    "negative": IrrationalSpec(kind="quadratic", P=-3, D=2),  # sqrt(2) - 3 < 0
    "above_one": IrrationalSpec(kind="quadratic", P=0, D=7919),  # sqrt(7919) = 88.99..
    "surd_over_5": IrrationalSpec(kind="quadratic", P=3, D=7919, Q=5),
    "liouville": liouville_literal(),
    # rational: k*A = 0 mod 2^128 at every k divisible by 4, so d = 0.0 there
    "quarter": IrrationalSpec(kind="literal", literal="0.25", radius=1e-50),
    # k = 1 leaves m one below 2^127, which must not fold; k = 2 folds 2^128 - 2
    "below_half": binary_literal((1 << 127) - 1),
    # k = 1 leaves m one above 2^127, which folds to 2^127 - 1
    "above_half": binary_literal((1 << 127) + 1),
    # zero high word; 3 * 0x55555555 = 2^32 - 1, so k = 3 carries out of the low word
    "low_carry": binary_literal(0x55555555_FFFFFFFF),
    # m = 2^128 - 3k: every k folds to 3k, whose high word is zero
    "zero_high": binary_literal(-3),
    # m = 2^128 - k*2^64 has a zero low word, so the negate carries into the high word
    "zero_low": binary_literal(-(1 << 64)),
}


def _boundary_Ks():
    """K = 0..3 and K whose last k sits just before, on or just after the end
    of a kernel pass."""
    chunk = diophantine._KERNEL_CHUNK
    return [0, 1, 2, 3] + [j * chunk + d for j in (1, 2) for d in (-1, 0, 1)]


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_dist_array_kernel_equals_reference_loop(name):
    a = KERNEL_SPECS[name]
    Ks = _boundary_Ks()
    want = reference_dist_array(a, max(Ks))
    for K in Ks:
        got = dist_to_integers_array(a, K)
        assert got.shape == (K,)
        assert np.array_equal(got, want[:K]), (name, K)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_dist_array_kernel_equals_reference_loop_at_1e5(name):
    a = KERNEL_SPECS[name]
    assert np.array_equal(dist_to_integers_array(a, 10**5), reference_dist_array(a, 10**5))


def test_binary_edge_specs_hit_their_fixed_points():
    S = 1 << 128
    for name, A in (("below_half", S // 2 - 1), ("above_half", S // 2 + 1),
                    ("low_carry", 0x55555555_FFFFFFFF), ("zero_high", S - 3),
                    ("zero_low", S - (1 << 64))):
        assert KERNEL_SPECS[name].scaled_int() % S == A, name


def test_dist_array_rational_literal_hits_zero():
    d = dist_to_integers_array(KERNEL_SPECS["quarter"], 12)
    assert d[3::4].tolist() == [0.0, 0.0, 0.0]
    assert d[:3].tolist() == [0.25, 0.5, 0.25]


def test_unit_float_rounds_like_python_float():
    # halfway and just-off-halfway mantissas at every shift, across the word
    # boundary, plus all-ones runs that carry into the next power of two
    values = [0, 1, 2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64,
              2**127, 2**128 - 1]
    for shift in range(0, 128 - 54):
        for m in (2**53 + 1, 2**53 + 3, 2**54 - 1):
            base = m << shift
            values += [v for v in (base - 1, base, base + 1) if v < 2**128]
    # halfway plus or minus one bit below the window: in the low word while
    # the window spans both words, and in the high word's cut-off bits
    for top in (46, 74):
        half = (2**53 + 1) << top
        values += [half + (1 << j) for j in range(top)] + [half - (1 << j) for j in range(top)]
    rng = np.random.default_rng(7)
    values += [int(v) for v in rng.integers(0, 2**62, 2000)]
    values += [int.from_bytes(rng.bytes(16), "little") >> int(rng.integers(0, 128))
               for _ in range(4000)]
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & (2**64 - 1) for v in values], dtype=np.uint64)
    assert diophantine._unit_float(hi, lo).tolist() == [float(v) / 2**128 for v in values]


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


def test_audit_transient_memory_is_bounded():
    K = 10**6
    a = golden_spec()
    badly_approximable_audit(a, 0.01, 1000)  # warm up imports and caches
    tracemalloc.start()
    try:
        hits = badly_approximable_audit(a, 0.01, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * K + 4 * 2**20
    # the chunked comparison gives the one-shot comparison's hits
    k = np.arange(1, K + 1, dtype=float)
    assert hits == (np.nonzero(dist_to_integers_array(a, K) < k ** (-1.0 - 0.01))[0] + 1).tolist()


def test_dist_array_rejects_negative_K():
    with pytest.raises(ValueError, match="K must be >= 0"):
        dist_to_integers_array(golden_spec(), -1)
    assert dist_to_integers_array(golden_spec(), 0).shape == (0,)


def test_dist_array_refuses_K_from_2_32_before_allocating():
    # k < 2^32 keeps the kernel's three word products exact; past that the
    # refusal comes first, so a 32 GiB output is never requested
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="below 2\\^32"):
            dist_to_integers_array(golden_spec(), 2**32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_audit_rejects_empty_range():
    with pytest.raises(ValueError, match="K must be >= 1"):
        badly_approximable_audit(golden_spec(), 0.1, 0)
