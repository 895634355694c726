import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridlab import extfields, primefields
from gridlab.errors import (
    BudgetExceeded,
    CoefficientNotInPrimeField,
    DivisionByZero,
    MixedFields,
    UnsupportedParameters,
    WrongField,
)
from gridlab.extfields import ExtensionField, canonical_modulus, norm, pi_s
from gridlab.fields import GF, QQ, field_from_descriptor
from gridlab.primefields import FieldElem, is_prime, primitive_root
from gridlab.hypersurfaces import norm_poly


def test_rationals_arithmetic():
    a = QQ.elem(Fraction(2, 3))
    b = QQ.elem(5)
    assert (a + b).val == Fraction(17, 3)
    assert (a * b).val == Fraction(10, 3)
    assert (a / b).val == Fraction(2, 15)
    assert (-a).val == Fraction(-2, 3)
    assert a.inv().val == Fraction(3, 2)
    with pytest.raises(DivisionByZero):
        QQ.zero.inv()


def test_prime_field_arithmetic():
    F7 = GF(7)
    a, b = F7.elem(3), F7.elem(5)
    assert (a + b).val == 1
    assert (a * b).val == 1
    assert (a - b).val == 5
    assert a.inv().val == 5
    assert (a ** -1).val == 5
    assert F7.elem(-1).val == 6
    with pytest.raises(DivisionByZero):
        F7.zero.inv()


def test_prime_field_fermat():
    for p in (2, 3, 5, 7, 11, 13):
        F = GF(p)
        for a in range(1, p):
            assert F.elem(a) ** (p - 1) == F.one


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        GF(5).elem(1) + GF(7).elem(1)
    with pytest.raises(MixedFields):
        QQ.elem(1) + GF(7).elem(1)


def test_gf_requires_prime():
    from gridlab.errors import UnsupportedParameters

    with pytest.raises(UnsupportedParameters):
        GF(6)


def test_is_prime_matches_sieve():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for q in range(2, int(n**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(range(q * q, n, q))
    assert [k for k in range(-3, n) if is_prime(k)] == [
        k for k in range(n) if sieve[k]
    ]


def test_is_prime_rejects_strong_pseudoprime():
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(3215031751)
    assert is_prime(1000000000000000003)


def _cli(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "gridlab.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )


def test_large_prime_field_answers():
    res = _cli("construct", "--family", "1a", "--p", "1000000000000000003")
    assert res.returncode == 0
    assert '"p": 1000000000000000003' in res.stdout


def test_prime_beyond_proven_range_exit_2():
    res = _cli("construct", "--family", "1a", "--p", str(2**127 - 1))
    assert res.returncode == 2
    assert res.stderr.startswith("error: UnsupportedParameters")


def test_canonical_modulus_f9():
    # z^2 + 1 is the lex-smallest monic irreducible over F_3
    assert canonical_modulus(3, 2) == (1, 0, 1)


def test_canonical_modulus_is_irreducible():
    from gridlab.extfields import _is_irreducible

    for p, s in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)):
        m = canonical_modulus(p, s)
        assert len(m) == s + 1 and m[-1] == 1
        assert _is_irreducible(m, p)


def reference_is_irreducible(m: tuple, p: int) -> bool:
    """Trial division of m, of degree at least 2, by every monic polynomial
    of degree 1..deg(m)//2."""
    deg = len(m) - 1
    return all(
        reference_upoly_mod(m, tail + (1,), p)
        for d in range(1, deg // 2 + 1)
        for tail in product(range(p), repeat=d)
    )


# every monic polynomial of degree 2..6 over F_p, p <= 7, with at most 3125
# candidates per (p, degree): the rest (5^6, 7^5 and 7^6) take minutes,
# and the hypothesis test below samples them
EXHAUSTIVE = [(p, n) for p in (2, 3, 5, 7) for n in range(2, 7) if p**n <= 3125]


@pytest.mark.parametrize("p, n", EXHAUSTIVE)
def test_irreducibility_test_matches_trial_division_exhaustively(p, n):
    for tail in product(range(p), repeat=n):
        m = tail + (1,)
        assert extfields._is_irreducible(m, p) == reference_is_irreducible(m, p), m


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7, 11, 13, 101)), data=st.data())
def test_irreducibility_test_matches_trial_division(p, data):
    n = data.draw(st.integers(2, 6 if p <= 13 else 4))
    m = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))) + (1,)
    assert extfields._is_irreducible(m, p) == reference_is_irreducible(m, p)


def test_modulus_search_at_large_primes():
    # trial division took about 5 s at p = 1009 and would take minutes at
    # 9973; the candidates before each modulus are reducible
    sympy = pytest.importorskip("sympy")
    z = sympy.symbols("z")
    for p, want in ((1009, (1, 0, 0, 1, 1)), (9973, (1, 0, 0, 5, 1))):
        assert canonical_modulus(p, 4) == want
        for last in range(want[3] + 1):
            m = sympy.Poly(list(reversed((1, 0, 0, last, 1))), z, modulus=p)
            assert m.is_irreducible == (last == want[3])


def test_extension_field_f9():
    F9 = GF(3, 2)
    w = F9.generator
    assert (w * w).val == (2, 0)  # w^2 = -1
    assert len(list(F9.elements())) == 9
    # every nonzero element has order dividing 8
    for a in F9.elements():
        if not a.is_zero():
            assert a ** 8 == F9.one
            assert a * a.inv() == F9.one


def test_extension_field_f8():
    F8 = GF(2, 3)
    elems = [a for a in F8.elements() if not a.is_zero()]
    assert len(elems) == 7
    for a in elems:
        assert a ** 7 == F8.one


def test_norm_values_f9():
    F9 = GF(3, 2)
    w = F9.generator
    assert norm(w).val == 1  # w^4 = (w^2)^2 = 1
    assert norm(F9.zero).is_zero()
    # norm is multiplicative
    for a in F9.elements():
        for b in F9.elements():
            assert norm(a * b) == norm(a) * norm(b)


def test_norm_lands_in_prime_field():
    for p, s in ((3, 2), (5, 2), (2, 3)):
        K = GF(p, s)
        Fp = GF(p)
        for a in K.elements():
            assert norm(a).field == Fp
            if not a.is_zero():
                power = a ** ((p**s - 1) // (p - 1))
                assert power.val[1:] == (0,) * (s - 1)


def test_norm_wrong_field():
    with pytest.raises(WrongField):
        norm(QQ.elem(2))


def test_pi_s_roundtrip():
    K = GF(5, 2)
    Fp = GF(5)
    for a0 in range(5):
        for a1 in range(5):
            vec = (Fp.elem(a0), Fp.elem(a1))
            assert tuple(Fp.elem(c) for c in pi_s(K, vec).val) == vec


def test_pi_s_linear():
    K = GF(3, 3)
    Fp = GF(3)
    u = (Fp.elem(1), Fp.elem(2), Fp.elem(0))
    v = (Fp.elem(2), Fp.elem(2), Fp.elem(1))
    sum_vec = tuple(a + b for a, b in zip(u, v))
    assert pi_s(K, sum_vec) == pi_s(K, u) + pi_s(K, v)


def test_norm_poly_f9():
    np = norm_poly(3, 2)
    assert repr(np) in ("z1^2 + z2^2", "z2^2 + z1^2")
    assert np.degree() == 2


@pytest.mark.parametrize("p,s", [(3, 2), (5, 2), (3, 3), (2, 3)])
def test_norm_poly_pointwise(p, s):
    np = norm_poly(p, s)
    assert np.degree() <= s
    K = GF(p, s)
    Fp = GF(p)
    from itertools import product

    for coords in product(range(p), repeat=s):
        vec = tuple(Fp.elem(c) for c in coords)
        assert norm(pi_s(K, vec)) == np.evaluate(list(vec))


def test_descriptor_roundtrip():
    for field in (QQ, GF(7), GF(3, 2)):
        assert field_from_descriptor(field.descriptor()) == field


def test_coeff_str_roundtrip():
    F9 = GF(3, 2)
    w = F9.generator
    a = w * 2 + 1
    assert F9.coeff_from_str(F9.coeff_str(a.val)) == a.val
    assert QQ.coeff_from_str("-3/4") == Fraction(-3, 4)


# -- powers ------------------------------------------------------------------------


def _repeated_power(a, e):
    """a**e by |e| multiplications, then one inverse when e < 0."""
    result = a.field.one
    for _ in range(abs(e)):
        result = result * a
    return result.inv() if e < 0 else result


POW_FIELDS = (GF(2), GF(7), GF(101), GF(2, 3), GF(3, 2), GF(5, 2), QQ)


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(POW_FIELDS),
    raw=st.integers(-50, 50),
    den=st.integers(1, 9),
    e=st.integers(-40, 40),
)
def test_pow_matches_repeated_multiplication(field, raw, den, e):
    if field is QQ:
        a = QQ.elem(Fraction(raw, den))
    elif field.kind == "extension":
        a = field.elem([raw * (i + 1) + den * i for i in range(field.s)])
    else:
        a = field.elem(raw)
    if a.is_zero() and e < 0:
        with pytest.raises(DivisionByZero):
            a**e
        return
    got = a**e
    assert got.field is field
    assert got == _repeated_power(a, e)


@pytest.mark.parametrize("field", POW_FIELDS)
def test_pow_edge_exponents(field):
    zero, one = field.zero, field.one
    assert zero**0 == one and one**0 == one
    assert zero**1 == zero and zero**5 == zero
    with pytest.raises(DivisionByZero):
        zero**-1
    a = field.elem(3) if field.characteristic != 3 else field.elem(2)
    assert a**0 == one
    assert a**-1 == a.inv()
    assert a**-3 * a**3 == one


# -- norms and inverses through the Frobenius map -----------------------------------


def _raw_power(F, a, e):
    """a^e on raw values by square-and-multiply."""
    result = F._one()
    while e:
        if e & 1:
            result = F._mul(result, a)
        a = F._mul(a, a)
        e >>= 1
    return result


def reference_norm(F, a) -> int:
    """The norm of the raw value a by the power formula a^((p^s-1)/(p-1))."""
    val = _raw_power(F, a, (F.p**F.s - 1) // (F.p - 1))
    assert val[1:] == (0,) * (F.s - 1)
    return val[0]


def reference_inv(F, a) -> tuple:
    """Fermat's inverse a^(p^s-2) of a nonzero raw value a."""
    return _raw_power(F, a, F.p**F.s - 2)


NONCANONICAL_F25 = ExtensionField(5, 2, (3, 0, 1))  # z^2 + 3
FROBENIUS_FIELDS = (
    GF(2, 2), GF(2, 3), GF(2, 5), GF(3, 2), GF(5, 2), GF(7, 3), GF(101, 2),
    NONCANONICAL_F25,
)


def test_frobenius_fields_cover_the_edge_cases():
    assert NONCANONICAL_F25.modulus != canonical_modulus(5, 2)


def test_extension_field_of_degree_one_is_refused():
    # GF(7) is the prime field; an extension field needs s >= 2
    assert GF(7, 1) == GF(7)
    for s in (1, 0, -1):
        with pytest.raises(UnsupportedParameters):
            ExtensionField(7, s)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FROBENIUS_FIELDS), data=st.data())
def test_norm_and_inverse_match_power_formulas(field, data):
    a = tuple(data.draw(st.lists(st.integers(0, field.p - 1),
                                 min_size=field.s, max_size=field.s)))
    alpha = FieldElem(field, a)
    n = norm(alpha)
    assert n.field == GF(field.p)
    if not any(a):
        assert n.val == 0
        with pytest.raises(DivisionByZero):
            field._inv(a)
        return
    assert n.val == reference_norm(field, a)
    inv = field._inv(a)
    assert inv == reference_inv(field, a)
    assert field._mul(a, inv) == field._one()


@pytest.mark.parametrize("field", FROBENIUS_FIELDS)
def test_frobenius_matrix_is_the_p_th_power(field):
    # the first conjugate of a, from the matrix, is a^p, for every basis vector
    for j in range(field.s):
        b = tuple(int(i == j) for i in range(field.s))
        conj = tuple(field._frob[k][j] for k in range(field.s))
        assert conj == _raw_power(field, b, field.p)


@pytest.mark.parametrize("field", (GF(2, 3), GF(3, 2), NONCANONICAL_F25))
def test_norm_and_inverse_exhaustive(field):
    for alpha in field.elements():
        if alpha.is_zero():
            continue
        assert norm(alpha).val == reference_norm(field, alpha.val)
        assert alpha.inv().val == reference_inv(field, alpha.val)


def test_norm_outside_prime_subfield_raises():
    # a corrupted Frobenius matrix (the identity) gives a^2, not the norm,
    # and (1 + b)^2 = 2b in F_3[b]/(b^2 + 1)
    F = ExtensionField(3, 2)
    F._frob = ((1, 0), (0, 1))
    with pytest.raises(CoefficientNotInPrimeField):
        norm(F.elem((1, 1)))


@pytest.mark.parametrize("field", (QQ, GF(7), GF(101), GF(5, 2), GF(2, 3)))
def test_inverse_of_zero_is_a_typed_error(field):
    with pytest.raises(DivisionByZero):
        field._inv(field._zero())
    with pytest.raises(DivisionByZero):
        field.zero.inv()


# -- extension fields whose irreducibility tests exceed the budget ------------------


def test_oversized_extension_fields_are_refused_before_enumerating(monkeypatch):
    # Rabin's test of a degree-2 modulus over F_p makes 2 (bit_length(p) +
    # bit_count(p)) products of 2 * 2^2 coefficient multiplications: 1376
    # for p = 10^18 + 3.  A budget below one test refuses the search before
    # any candidate is decoded.  A given modulus is refused before it is
    # tested when its test and the tables of F_(p^2), 4 (3 * 2 + 2 * 46)
    # multiplications for p = 10^9 + 7, exceed the budget: 736 + 392
    def enumerate_anyway(*args, **kwargs):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(extfields, "base_digits", enumerate_anyway)
    monkeypatch.setenv("GRIDLAB_BUDGET", "1375")
    with pytest.raises(BudgetExceeded, match="F_1000000000000000003\\^2 needs 1376 coefficient"
                       " multiplications by candidate 1, over budget 1375"):
        canonical_modulus(10**18 + 3, 2)
    real = extfields._is_irreducible
    monkeypatch.setattr(extfields, "_is_irreducible", enumerate_anyway)
    monkeypatch.setenv("GRIDLAB_BUDGET", "1127")
    with pytest.raises(BudgetExceeded, match="F_1000000007\\^2 needs 1128 coefficient multiplications"
                       " for its tables and one irreducibility test"):
        ExtensionField(10**9 + 7, 2, (1, 0, 1))
    monkeypatch.setattr(extfields, "_is_irreducible", real)
    monkeypatch.setenv("GRIDLAB_BUDGET", "1128")
    assert ExtensionField(10**9 + 7, 2, (1, 0, 1)).modulus == (1, 0, 1)


def test_extension_field_budget_boundary(monkeypatch):
    # degree 3 over F_7: one irreducibility test makes 3 (3 + 3) products of
    # 2 * 3^2 coefficient multiplications, 324, and the search, which starts
    # at constant term 1, tests 1 + b^3 (reducible) and then 1 + b^2 + b^3:
    # 648.  The tables of F_(7^3) take 9 (3 * 3 + 2 * 6) = 189, charged with
    # one test: 513.  GF is cached, so the field is built directly
    canonical = canonical_modulus(7, 3)
    assert canonical == (1, 0, 1, 1)
    monkeypatch.setenv("GRIDLAB_BUDGET", "647")
    with pytest.raises(BudgetExceeded, match="needs 648 coefficient multiplications by candidate 2,"
                       " over budget 647"):
        canonical_modulus(7, 3)
    with pytest.raises(BudgetExceeded):
        ExtensionField(7, 3)
    monkeypatch.setenv("GRIDLAB_BUDGET", "512")
    with pytest.raises(BudgetExceeded, match="F_7\\^3 needs 513 coefficient multiplications"):
        ExtensionField(7, 3, canonical)
    monkeypatch.setenv("GRIDLAB_BUDGET", "513")
    assert ExtensionField(7, 3, canonical).modulus == canonical
    monkeypatch.setenv("GRIDLAB_BUDGET", "648")
    assert canonical_modulus(7, 3) == canonical
    assert ExtensionField(7, 3).modulus == canonical


def test_modulus_search_is_charged_per_candidate(monkeypatch):
    # F_10007^4 was refused for 10007 + 10007^2 trial divisions that
    # Rabin's test does not make; each of its tests makes 4 (14 + 8) = 88
    # products of 2 * 4^2 coefficient multiplications, 2816, and the search
    # is charged for the tests it runs
    monkeypatch.delenv("GRIDLAB_BUDGET", raising=False)
    tested, real = [], extfields._is_irreducible
    monkeypatch.setattr(extfields, "_is_irreducible", lambda m, p: tested.append(m) or real(m, p))
    m = canonical_modulus(10007, 4)
    n = len(tested)
    assert tested[-1] == m
    monkeypatch.setenv("GRIDLAB_BUDGET", str(2816 * n))
    assert canonical_modulus(10007, 4) == m
    monkeypatch.setenv("GRIDLAB_BUDGET", str(2816 * n - 1))
    with pytest.raises(BudgetExceeded, match=f"needs {2816 * n} coefficient multiplications by candidate {n},"):
        canonical_modulus(10007, 4)


def reference_canonical_modulus(p: int, s: int) -> tuple:
    """The search over every monic candidate, constant term 0 included."""
    for tail in product(range(p), repeat=s):
        m = tuple(tail) + (1,)
        if extfields._is_irreducible(m, p):
            return m


@pytest.mark.parametrize("p, s", ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)))
def test_modulus_search_skips_constant_term_0(p, s):
    assert canonical_modulus(p, s) == reference_canonical_modulus(p, s)


@pytest.mark.parametrize("p, s", ((2, 2), (2, 4), (3, 3), (5, 2), (7, 3)))
def test_residue_tuples_follow_the_order_of_product(p, s):
    # the one digit decoder: index k is the k-th tuple of itertools.product,
    # and the field's elements and the modulus candidates follow it
    want = list(product(range(p), repeat=s))
    assert [primefields.base_digits(k, p, s) for k in range(p**s)] == want
    assert [a.val for a in GF(p, s).elements()] == want
    first = p ** (s - 1)
    assert canonical_modulus(p, s)[:-1] == next(
        t for t in want[first:] if extfields._is_irreducible(t + (1,), p)
    )


def test_extension_field_enumeration_is_lazy():
    # itertools.product would first hold range(p) as a tuple of p ints,
    # about 36 MB here (and at p = 99999971 exhaust a 2 GB address space);
    # the base-p digits of an index cost nothing that grows with p
    p = 1000003
    tracemalloc.start()
    try:
        K = ExtensionField(p, 2, (1, 0, 1))
        first = [a.val for a in islice(K.elements(), 3)]
        modulus = canonical_modulus(p, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [(0, 0), (0, 1), (0, 2)]
    assert modulus == (1, 0, 1)  # p = 3 mod 4, so -1 is a non-square
    assert peak < 1 << 20


def test_modulus_search_needs_degree_2():
    for s in (1, 0):
        with pytest.raises(UnsupportedParameters):
            canonical_modulus(7, s)


# -- dense univariate division -------------------------------------------------------


def reference_upoly_mod(a: tuple, m: tuple, p: int) -> tuple:
    """The remainder of a by m over F_p on int tuples, low degree first."""
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        factor = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7, 101)), data=st.data())
def test_dense_division_matches_reference(p, data):
    # the lists have no trailing zero, as `DenseUnivariate` requires
    ring = primefields.DenseUnivariate(GF(p))
    coeffs = st.integers(0, p - 1)
    a = ring.trim(data.draw(st.lists(coeffs, max_size=9)))
    m = data.draw(st.lists(coeffs, max_size=5)) + [data.draw(st.integers(1, p - 1))]
    q, r = ring.divmod(a, m)
    assert tuple(r) == reference_upoly_mod(tuple(a), tuple(m), p)
    assert len(r) < len(m) and ring.plus(ring.product(q, m), r) == a


# -- primitive roots ---------------------------------------------------------------


def reference_primitive_root(p: int) -> int:
    """The smallest generator of F_p^*, with p - 1 factored by trial division."""
    m, factors, q = p - 1, [], 2
    while q * q <= m:
        if m % q == 0:
            factors.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        factors.append(m)
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def test_primitive_root_matches_trial_division():
    for p in range(2, 10**4):
        if is_prime(p):
            assert primitive_root(p) == reference_primitive_root(p)


def test_primitive_root_with_large_prime_factors():
    sympy = pytest.importorskip("sympy")
    # 1000000000000007243 - 1 = 2 * 500000000000003621, a prime; the factors
    # of the other p - 1 exceed trial division's reach too
    for p in (10**9 + 7, 10**18 + 3, 1000000000000007243, 2**61 - 1):
        assert primitive_root(p) == sympy.primitive_root(p)
    a, b = sympy.nextprime(2**20), sympy.nextprime(2**31)
    assert primefields._prime_factors(2 * 3 * a * a * b) == {2, 3, a, b}


def _assert_budget_refusal(res):
    assert res.returncode == 2
    assert res.stderr.startswith("error: BudgetExceeded")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_huge_field_1c_gridcheck_exits_2(tmp_path):
    # the 1c symmetry candidates need F_{p^2}, whose modulus search is refused
    h1c = tmp_path / "h1c5.json"
    assert _cli("construct", "--family", "1c", "--p", "5", "--s", "2", "--out", str(h1c)).returncode == 0
    _assert_budget_refusal(
        _cli("gridcheck", "--input", str(h1c), "--p", str(10**18 + 3), "--s", "2", "--t", "2")
    )


def test_huge_field_s1_classify_exits_2(tmp_path):
    form = tmp_path / "form.json"
    form.write_text(json.dumps({
        "field": {"kind": "extension", "p": 10**18 + 3, "s": 2, "modulus": [1, 0, 1]},
        "vars": ["x0", "x1", "y0", "y1"],
        "terms": [{"e": [1, 0, 1, 0], "c": "1,0"}],
    }))
    _assert_budget_refusal(_cli("s1", "classify", "--poly", str(form)))


SAFE_PRIME = 1000000000000007243  # p - 1 = 2 q with q prime


def test_safe_prime_1d_gridcheck_exits_2(tmp_path):
    # the 1d symmetry candidates need a primitive root mod p, found before
    # the chart is counted; trial division of p - 1 used to hang here
    h1d = tmp_path / "h1d5.json"
    assert _cli("construct", "--family", "1d", "--p", "5", "--s", "2", "--out", str(h1d)).returncode == 0
    res = _cli("gridcheck", "--input", str(h1d), "--p", str(SAFE_PRIME), "--s", "2", "--t", "2")
    _assert_budget_refusal(res)
    assert "the affine chart of P^2" in res.stderr


def test_safe_prime_sweep_finishes():
    # every check is refused by the budget, and a refusal is a counted skip
    res = _cli("sweep", "--primes", str(SAFE_PRIME))
    assert res.returncode == 0
    assert "Traceback" not in res.stderr
    report = json.loads(res.stdout)
    results = report["results"]
    assert results and all(r["pass"] and r["skipped"].startswith("budget: ") for r in results)
    assert report["skipped"] == len(results) == 7
