"""Small exact-arithmetic helpers: affine-linear functions of a parameter
pair and Gaussian elimination over Q.

Everything here works with fractions.Fraction; nothing imports numpy.
"""

from fractions import Fraction


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact number, got {type(x).__name__}")


class Aff2:
    """Affine-linear function  const + c1*b1 + c2*b2  of a parameter pair.

    Used to carry starting exponents symbolically in both parameter
    coordinates.  Supports +, -, scalar * and /, and evaluation at a point.

    >>> b1, b2 = Aff2.coord1(), Aff2.coord2()
    >>> e = b1 - (b2 + 3) / 4
    >>> e
    Aff2(b1 - 1/4*b2 - 3/4)
    >>> e.evaluate(Fraction(1), Fraction(2))
    Fraction(-1, 4)
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
