"""Small exact-arithmetic helpers: rational polynomials in one variable,
affine-linear functions of a parameter pair, and Gaussian elimination over Q.

Everything here works with fractions.Fraction; nothing imports numpy.
"""

from fractions import Fraction


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact number, got {type(x).__name__}")


class PolyQ:
    """Dense univariate polynomial over Q, coefficients ascending.

    >>> p = PolyQ([1, -2, 1])          # 1 - 2 t + t^2
    >>> p(Fraction(1))
    Fraction(0, 1)
    >>> p.root_multiplicity(Fraction(1))
    2
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def variable():
        return PolyQ([0, 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading(self):
        if not self.coeffs:
            raise AssertionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, PolyQ):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == PolyQ([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyQ([other])
        if not isinstance(other, PolyQ):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ(out)

    __radd__ = __add__

    def __neg__(self):
        return PolyQ([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, PolyQ) else PolyQ([-_as_fraction(other)]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyQ([c * other for c in self.coeffs])
        if not isinstance(other, PolyQ):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return PolyQ()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyQ(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not isinstance(other, PolyQ) or other.is_zero():
            raise AssertionError(f"cannot divide by {other!r}")
        rem = list(self.coeffs)
        den = other.coeffs
        if len(rem) < len(den):
            return PolyQ(), self
        quot = [Fraction(0)] * (len(rem) - len(den) + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + len(den) - 1] / den[-1]
            quot[i] = c
            if c:
                for j, d in enumerate(den):
                    rem[i + j] -= c * d
        return PolyQ(quot), PolyQ(rem)

    def divexact(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise AssertionError("division was not exact")
        return q

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        return PolyQ([c / lead for c in self.coeffs])

    def gcd(self, other):
        """Monic gcd by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, divmod(a, b)[1]
        return a.monic()

    def derivative(self, times=1):
        p = self
        for _ in range(times):
            p = PolyQ([i * c for i, c in enumerate(p.coeffs)][1:])
        return p

    def root_multiplicity(self, a):
        """Multiplicity of ``a`` as a root (0 when not a root)."""
        a = _as_fraction(a)
        if self.is_zero():
            raise ValueError("zero polynomial vanishes to infinite order")
        mult = 0
        p = self
        lin = PolyQ([-a, 1])
        while p(a) == 0:
            p = p.divexact(lin)
            mult += 1
        return mult

    def __call__(self, x):
        if isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + complex(float(c))
        return acc

    def text(self, var="t"):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                mono = str(abs(c))
            else:
                head = "" if abs(c) == 1 else f"{abs(c)}*"
                mono = f"{head}{var}" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + mono)
            else:
                parts.append(("- " if c < 0 else "+ ") + mono)
        return " ".join(parts)

    def __repr__(self):
        return f"PolyQ({self.text()})"


class Aff2:
    """Affine-linear function  const + c1*b1 + c2*b2  of a parameter pair.

    Used to carry starting exponents symbolically in both parameter
    coordinates.  Supports +, -, scalar * and /, and substitution of a line
    parameterization, which turns it into a PolyQ in the line parameter.
    """

    __slots__ = ("const", "c1", "c2")

    def __init__(self, const=0, c1=0, c2=0):
        self.const = _as_fraction(const)
        self.c1 = _as_fraction(c1)
        self.c2 = _as_fraction(c2)

    @staticmethod
    def coord1():
        return Aff2(0, 1, 0)

    @staticmethod
    def coord2():
        return Aff2(0, 0, 1)

    def is_constant(self):
        return self.c1 == 0 and self.c2 == 0

    def __eq__(self, other):
        if isinstance(other, Aff2):
            return (self.const, self.c1, self.c2) == (other.const, other.c1, other.c2)
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.const == other
        return NotImplemented

    def __hash__(self):
        return hash((self.const, self.c1, self.c2))

    def __add__(self, other):
        if isinstance(other, Aff2):
            return Aff2(self.const + other.const, self.c1 + other.c1, self.c2 + other.c2)
        return Aff2(self.const + _as_fraction(other), self.c1, self.c2)

    __radd__ = __add__

    def __neg__(self):
        return Aff2(-self.const, -self.c1, -self.c2)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Aff2) else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, s):
        s = _as_fraction(s)
        return Aff2(self.const * s, self.c1 * s, self.c2 * s)

    __rmul__ = __mul__

    def __truediv__(self, s):
        return self * (Fraction(1) / _as_fraction(s))

    def evaluate(self, b1, b2):
        if isinstance(b1, (int, Fraction)) and isinstance(b2, (int, Fraction)):
            return self.const + self.c1 * b1 + self.c2 * b2
        return complex(float(self.const)) + complex(float(self.c1)) * b1 + complex(float(self.c2)) * b2

    def on_line(self, k, facet, level):
        """Substitute the parameterization of a resonant line, giving a PolyQ.

        facet-0 lines are (lam, N); facet-k lines are (lam, k*lam - N).
        """
        level = _as_fraction(level)
        if facet == "facet-0":
            return PolyQ([self.const + self.c2 * level, self.c1])
        if facet == "facet-k":
            return PolyQ([self.const - self.c2 * level, self.c1 + self.c2 * k])
        raise ValueError(f"unknown facet {facet!r}")

    def text(self, names=("b1", "b2")):
        parts = []
        for coef, label in ((self.c1, names[0]), (self.c2, names[1])):
            if not coef:
                continue
            head = "" if abs(coef) == 1 else f"{abs(coef)}*"
            mono = f"{head}{label}"
            if not parts:
                parts.append(("-" if coef < 0 else "") + mono)
            else:
                parts.append(("- " if coef < 0 else "+ ") + mono)
        if self.const or not parts:
            c = self.const
            if not parts:
                parts.append(str(c))
            else:
                parts.append(("- " if c < 0 else "+ ") + str(abs(c)))
        return " ".join(parts)

    def __repr__(self):
        return f"Aff2({self.text()})"


def fraction_matrix_rank(rows):
    """Rank of a small matrix with Fraction entries, by Gaussian elimination."""
    mat = [[_as_fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        inv = Fraction(1) / prow[col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] * inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank
