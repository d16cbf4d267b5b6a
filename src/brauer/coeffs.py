"""Exact scalar domains shared by every other module.

Four kinds of numbers appear throughout:

  * plain rationals -- stdlib ``Fraction``;
  * ``NPoly`` -- polynomials in the formal parameter N with rational
    coefficients, used while N is kept symbolic.  A coefficient is stored as
    an ``int`` when integral and as a ``Fraction`` only when it is not, and
    ``shift(q)`` multiplies by N^q by moving exponents;
  * ``SurdSum`` -- one term c * sqrt(r), c rational and r squarefree, the
    entry type of the orthogonal-form matrices that `repform` builds and
    prints.  Stored as ints num/den/rad in a unique reduced form, so equality
    of values is equality of fields.  ``*`` is closed; ``+`` adds terms on
    one radicand and raises on two;
  * truncated series in 1/u -- a monic series
    ``1 + c_1/u + ... + c_K/u^K`` is the tuple ``(c_1, ..., c_K)``, and
    ``monic_product`` multiplies two of them.

``Combination`` is the common base of the algebra elements built on these
scalars (diagram, affine and Hecke elements): a dict from basis key to
non-zero NPoly.  ``add_term`` is the one "add, and drop the entry if it
becomes zero" step that every sparse sum here uses.

All values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

Scalar = Union[int, Fraction, "NPoly"]


def as_fraction(x: int | Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _exact(x: int | Fraction) -> int | Fraction:
    """x in NPoly's coefficient normal form: an int when integral, else a Fraction."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def add_term(terms: dict, key, value) -> None:
    """``terms[key] += value``, storing no zero.

    The one rule of every sparse sum in the package; works for any value type
    whose truthiness is "non-zero" (Fraction, NPoly, SurdSum).
    """
    if key in terms:
        value = terms[key] + value
    if value:
        terms[key] = value
    else:
        terms.pop(key, None)


# ---------------------------------------------------------------------------
# polynomials in the formal parameter N


def _mul_into(out: dict, a: dict, b: dict, q: int = 0) -> None:
    """``out += a * b * N^q`` on NPoly coefficient maps, keeping ``out`` in
    NPoly's normal form: no zeros, an int for every integral coefficient.

    The one product rule of NPoly; ``multiply`` in B(n, N) sums a whole
    product's terms into one such map per output diagram and wraps it once.
    A unit ``b`` ({0: 1}) only adds ``a``, in the loop ``NPoly.__add__`` uses.
    """
    if b == {0: 1}:
        for e, c in a.items():
            e += q
            if e in out:
                c += out[e]
                if not c:
                    del out[e]
                    continue
                if c.__class__ is Fraction and c.denominator == 1:
                    c = c.numerator
            out[e] = c
        return
    for e1, c1 in a.items():
        e1 += q
        for e2, c2 in b.items():
            e = e1 + e2
            c = c1 * c2
            if e in out:
                c += out[e]
                if not c:
                    del out[e]
                    continue
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
            out[e] = c


class NPoly:
    """Polynomial in the formal symbol N over the rationals.

    Stored as a map exponent -> non-zero coefficient in one normal form: an
    ``int`` whenever the coefficient is integral, a ``Fraction`` only for a
    proper fraction such as the 1/2 of (N - 1)/2.  Since ints and Fractions
    compare and hash alike, equality, hashing and printing are those of the
    rational values.  Arithmetic accepts ints and Fractions on either side,
    so code generic over "Fraction or NPoly" scalars can mix them freely.

    ``__init__``, ``const`` and ``coerce`` validate; the
    ring operations build their results through the trusted ``_trusted``.
    ``shift(q)`` multiplies by N^q by moving exponents.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int | Fraction] | None = None):
        clean: dict[int, int | Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _exact(c)
                if c:
                    if e < 0:
                        raise ValueError("negative exponent in NPoly")
                    clean[e] = c
        self.coeffs = clean

    @staticmethod
    def _trusted(coeffs: dict[int, int | Fraction]) -> NPoly:
        """Wrap a map already in normal form: non-negative exponents, non-zero
        coefficients, ints for the integral ones."""
        p = NPoly.__new__(NPoly)
        p.coeffs = coeffs
        return p

    # -- constructors

    @staticmethod
    def one() -> NPoly:
        return NPoly._trusted({0: 1})

    @staticmethod
    def const(c: int | Fraction) -> NPoly:
        c = _exact(c)
        return NPoly._trusted({0: c} if c else {})

    @staticmethod
    def N() -> NPoly:
        return NPoly._trusted({1: 1})

    @staticmethod
    def coerce(x: Scalar) -> NPoly:
        if isinstance(x, NPoly):
            return x
        return NPoly.const(x)

    # -- queries

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations

    def __add__(self, other) -> NPoly:
        if other.__class__ is not NPoly:
            other = NPoly.coerce(other)
        out = dict(self.coeffs)
        _mul_into(out, other.coeffs, {0: 1})
        return NPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> NPoly:
        return NPoly._trusted({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> NPoly:
        return self + (-NPoly.coerce(other))

    def __rsub__(self, other) -> NPoly:
        return NPoly.coerce(other) + (-self)

    def __mul__(self, other) -> NPoly:
        if other.__class__ is not NPoly:
            other = NPoly.coerce(other)
        out: dict[int, int | Fraction] = {}
        _mul_into(out, self.coeffs, other.coeffs)
        return NPoly._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> NPoly:
        if k < 0:
            raise ValueError("negative power of an NPoly")
        result = NPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, q: int) -> NPoly:
        """self * N^q for q >= 0, by moving every exponent up by q."""
        if q == 0:
            return self
        if q < 0:
            raise ValueError("negative shift of an NPoly")
        return NPoly._trusted({e + q: c for e, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if other.__class__ is not NPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = NPoly.const(other)
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant equals its int or Fraction value, so it must hash like it
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(tuple(sorted(self.coeffs.items())))

    # -- specialization and printing

    def eval(self, value: int | Fraction) -> Fraction:
        """Specialize N to a rational value p/q.

        Horner's rule in integers: with every coefficient a_e/L over the lcm L
        of their denominators and d the degree, the value is
        sum_e a_e p^e q^(d-e) / (L q^d), and only that one Fraction is built.
        """
        v = as_fraction(value)
        coeffs = self.coeffs
        if not coeffs:
            return Fraction(0)
        p, q = v.numerator, v.denominator
        L = lcm(*(c.denominator for c in coeffs.values() if c.__class__ is Fraction))
        d = max(coeffs)
        total = 0
        q_power = 1
        for e in range(d, -1, -1):
            total *= p
            c = coeffs.get(e)
            if c is not None:
                a = c * L if c.__class__ is int else c.numerator * (L // c.denominator)
                total += a * q_power
            q_power *= q
        return Fraction(total, L * (q_power // q))

    def __repr__(self) -> str:
        return f"NPoly({self.to_string()!r})"

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if e == 0:
                body = format_rational(c)
            else:
                var = "N" if e == 1 else f"N^{e}"
                body = var if c == 1 else f"{format_rational(c)}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


HALF = Fraction(1, 2)


def n_minus_1_half() -> NPoly:
    """(N - 1)/2 as a symbolic polynomial; the constant term of every x_k."""
    return NPoly({1: HALF, 0: -HALF})


# ---------------------------------------------------------------------------
# sparse combinations over a basis


class Combination:
    """A finite NPoly-linear combination of basis keys of one size n.

    ``terms`` maps each basis key to its non-zero coefficient; every sum keeps
    it that way through ``add_term``.  The element classes of B(n, N),
    A(n, N) and H(n) derive from this and add only their constructors, their
    product and how a key prints (``_format_key``, and ``_sort_key`` where
    the keys' own order is not the printed order), plus a key check
    (``_check_key``) where the default one, "the key's own ``n`` is the
    element's", does not apply.
    Elements are immutable after construction: ``__init__`` validates keys
    and coefficients once, and code that already holds a clean map builds
    through ``_trusted``.  Arithmetic combines only elements of the same class
    and size (``_check_compatible``).
    """

    __slots__ = ("n", "terms")
    _sort_key = None

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        clean = {}
        if terms:
            for key, c in terms.items():
                self._check_key(key)
                c = NPoly.coerce(c)
                if c:
                    clean[key] = c
        self.terms = clean

    def _check_key(self, key) -> None:
        if key.n != self.n:
            raise ValueError(f"size-{key.n} basis element in a size-{self.n} {type(self).__name__}")

    @classmethod
    def _trusted(cls, n: int, terms: dict):
        """Wrap a map whose keys fit n and whose coefficients are non-zero NPolys."""
        element = cls.__new__(cls)
        element.n = n
        element.terms = terms
        return element

    @classmethod
    def zero(cls, n: int):
        return cls._trusted(n, {})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_compatible(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, int) and other == 0:  # the start value of sum()
            return self
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return self._trusted(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return self._trusted(self.n, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = NPoly.coerce(c)
        if not c:
            return self.zero(self.n)
        return self._trusted(self.n, {key: x * c for key, x in self.terms.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=self._sort_key)
        return " + ".join(f"({self.terms[k].to_string()})*{self._format_key(k)}" for k in keys)


# ---------------------------------------------------------------------------
# quadratic surds


@lru_cache(maxsize=4096)
def squarefree_decomposition(r: int) -> tuple[int, int]:
    """Write r = m^2 * s with s squarefree; returns (m, s).

    Trial division is plenty: radicands come from products of half-integers
    bounded at desk scale, and the few distinct ones are memoised (the
    acceptance sweep and every level-6 representation at N = 4, 7 meet 360).
    """
    if r <= 0:
        raise ValueError("radicand must be positive")
    m, s = 1, 1
    d = 2
    while d * d <= r:
        if r % d == 0:
            count = 0
            while r % d == 0:
                r //= d
                count += 1
            m *= d ** (count // 2)
            if count % 2:
                s *= d
        d += 1
    return m, s * r


class SurdSum:
    """Exact real number c*sqrt(r): one rational c times the square root of
    one squarefree integer r >= 1.

    Stored as the ints of ``num * sqrt(rad) / den``, with ``num/den`` in
    lowest terms, ``den > 0`` and ``rad`` squarefree; zero is 0/1 on radicand
    1.  The form is unique, so value equality is equality of the three
    fields, and a rational value (radicand 1) hashes like its ``Fraction``.
    ``SurdSum(c, r)`` validates c and reduces r to its squarefree part; the
    arithmetic builds its results through the trusted ``_reduced``.  ``*`` is
    closed; ``+`` takes a zero or a term on the same radicand and raises
    ``ValueError`` on two, which `repform` never meets.  Scaling by a
    rational q is the product with q.
    """

    __slots__ = ("num", "den", "rad")

    def __init__(self, c: int | Fraction = 0, r: int = 1):
        m, s = squarefree_decomposition(r)
        c = as_fraction(c) * m
        self.num, self.den = c.numerator, c.denominator
        self.rad = s if c else 1

    @staticmethod
    def _reduced(num: int, den: int, rad: int) -> SurdSum:
        """num*sqrt(rad)/den in normal form, for den > 0 and rad squarefree."""
        g = gcd(num, den)
        x = SurdSum.__new__(SurdSum)
        x.num, x.den, x.rad = num // g, den // g, rad if num else 1
        return x

    @staticmethod
    def zero() -> SurdSum:
        return SurdSum._reduced(0, 1, 1)

    @staticmethod
    def one() -> SurdSum:
        return SurdSum._reduced(1, 1, 1)

    @staticmethod
    def rational(q: int | Fraction) -> SurdSum:
        q = as_fraction(q)
        return SurdSum._reduced(q.numerator, q.denominator, 1)

    @staticmethod
    def coerce(x) -> SurdSum:
        return x if x.__class__ is SurdSum else SurdSum.rational(x)

    @property
    def terms(self) -> dict[int, Fraction]:
        """The value as radicand -> non-zero Fraction: no item, or one."""
        return {self.rad: Fraction(self.num, self.den)} if self.num else {}

    def __bool__(self) -> bool:
        return self.num != 0

    def is_rational(self) -> bool:
        return self.rad == 1

    def rational_value(self) -> Fraction:
        if self.rad != 1:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.num, self.den)

    def __add__(self, other) -> SurdSum:
        other = SurdSum.coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other
        if self.rad != other.rad:
            raise ValueError(f"({self}) + ({other}) has two radicands; a SurdSum holds one")
        return SurdSum._reduced(self.num * other.den + other.num * self.den, self.den * other.den, self.rad)

    __radd__ = __add__

    def __mul__(self, other) -> SurdSum:
        other = SurdSum.coerce(other)
        m, rad = squarefree_decomposition(self.rad * other.rad)
        return SurdSum._reduced(self.num * other.num * m, self.den * other.den, rad)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if other.__class__ is not SurdSum:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = SurdSum.rational(other)
        return self.num == other.num and self.den == other.den and self.rad == other.rad

    def __hash__(self) -> int:
        return hash(Fraction(self.num, self.den)) if self.rad == 1 else hash((self.num, self.den, self.rad))

    def __repr__(self) -> str:
        c = format_rational(Fraction(self.num, self.den))
        return c if self.rad == 1 else f"{c}*sqrt({self.rad})"


def sqrt_of_rational(q: int | Fraction) -> SurdSum:
    """The non-negative square root of q >= 0 as c*sqrt(r), r squarefree."""
    q = as_fraction(q)
    if q < 0:
        raise ValueError(f"sqrt of negative rational {q}")
    # sqrt(p/q) = sqrt(p*q)/q
    return SurdSum(Fraction(1, q.denominator), q.numerator * q.denominator) if q else SurdSum()


# ---------------------------------------------------------------------------
# truncated series in 1/u


def monic_product(a: tuple, b: tuple) -> tuple:
    """The tail of (1 + a_1/u + ...)(1 + b_1/u + ...), truncated at the shorter
    order: t_i = a_i + b_i + sum_{0<s<i} a_s b_{i-s}.

    A monic series 1 + c_1/u + ... + c_K/u^K is held as its tail
    (c_1, ..., c_K).  The leading 1 is never multiplied, so coefficients only
    need to add and multiply with each other (Fractions, NPolys or
    AffineElements)."""
    out = []
    for i in range(min(len(a), len(b))):
        acc = a[i] + b[i]
        for s in range(i):
            acc = acc + a[s] * b[i - 1 - s]
        out.append(acc)
    return tuple(out)


def linear_fraction_series(alpha, beta, order: int) -> tuple:
    """The tail of (u + alpha)/(u - beta) = 1 + (alpha+beta) * sum_{t>=1} beta^{t-1} u^{-t}."""
    tail = [alpha + beta]
    for _ in range(order - 1):
        tail.append(tail[-1] * beta)
    return tuple(tail[:order])


def box_factor(a, order: int, one=1) -> tuple:
    """The tail of ((u+a)^2 - 1)/((u-a)^2 - 1) * (u-a)^2/(u+a)^2 as linear
    fractions: one box of Q(mu, u) and Q_k(u), one strand of the cap-series
    recursion.  ``one`` is the unit of a's ring, used only to form a +- 1."""
    f = monic_product(
        linear_fraction_series(a + one, a + one, order), linear_fraction_series(a - one, a - one, order)
    )
    g = linear_fraction_series(-a, -a, order)
    return monic_product(monic_product(f, g), g)
