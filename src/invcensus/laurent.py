"""Sparse multivariate Laurent polynomials with exact integer coefficients.

Terms are kept in a dict from integer exponent vectors (tuples, negatives
allowed) to coefficients; zero coefficients are pruned on construction.
No counting code uses it: the module stays only because the benchmark's
child process (bench/child.py) looks it up under --trace 1.
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

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def invert_variables(self) -> "LaurentPoly":
        """Substitute every variable by its reciprocal."""
        result = LaurentPoly(self.nvars)
        result.terms = {tuple(-x for x in e): c for e, c in self.terms.items()}
        return result

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
