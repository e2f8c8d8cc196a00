"""A placeholder: no counting code uses Laurent polynomials.

The benchmark's trace (bench/child.py --trace 1) looks up LaurentPoly, so the
name stays until ROADMAP items 1 and 2 drop that lookup and this module.
"""


class LaurentPoly:
    """Empty: it has no behaviour."""
