"""Sparse multivariate Laurent polynomials with exact integer coefficients.

Terms are kept in a dict from integer exponent vectors (tuples, negatives
allowed) to coefficients; zero coefficients are pruned eagerly.
"""


class LaurentPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        if terms is None:
            self.terms = {}
        else:
            self.terms = {
                tuple(e): c for e, c in dict(terms).items() if c != 0
            }
            for e in self.terms:
                if len(e) != nvars:
                    raise ValueError(
                        f"exponent vector {e} has {len(e)} entries, expected {nvars}"
                    )

    @classmethod
    def constant(cls, nvars: int, value: int) -> "LaurentPoly":
        poly = cls(nvars)
        if value:
            poly.terms[(0,) * nvars] = value
        return poly

    @classmethod
    def monomial(cls, nvars: int, exponents, coeff: int = 1) -> "LaurentPoly":
        return cls(nvars, {tuple(exponents): coeff})

    def _check_compatible(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            new = out.get(e, 0) + c
            if new:
                out[e] = new
            else:
                out.pop(e, None)
        result = LaurentPoly(self.nvars)
        result.terms = out
        return result

    def __neg__(self) -> "LaurentPoly":
        result = LaurentPoly(self.nvars)
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        if len(self.terms) > len(other.terms):
            self, other = other, self
        out: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(key, 0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        result = LaurentPoly(self.nvars)
        result.terms = out
        return result

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def invert_variables(self) -> "LaurentPoly":
        """Substitute every variable by its reciprocal."""
        result = LaurentPoly(self.nvars)
        result.terms = {tuple(-x for x in e): c for e, c in self.terms.items()}
        return result

    def constant_term_of_product(self, other: "LaurentPoly") -> int:
        """Constant term of self * other without forming the product."""
        self._check_compatible(other)
        small, large = (
            (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        )
        total = 0
        for e, c in small.terms.items():
            mirror = tuple(-x for x in e)
            c2 = large.terms.get(mirror)
            if c2:
                total += c * c2
        return total

    def max_abs_exponent(self) -> int:
        return max((abs(x) for e in self.terms for x in e), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i}^{x}" for i, x in enumerate(e) if x
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "LaurentPoly(" + " + ".join(bits) + ")"
