import math
import os
import pathlib
import random
from fractions import Fraction

from dworkgm import hypergeom


def package_env():
    """Environment for a child Python that imports dworkgm from where the
    tests import it, whether or not PYTHONPATH names that place."""
    src = str(pathlib.Path(hypergeom.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def random_hyp_data(count, seed, max_type=5, max_den=12):
    """Seeded irreducible hypergeometric data of type (k, k), k <= max_type,
    with rational parameters of denominator <= max_den."""
    rng = random.Random(seed)

    def rand_fraction():
        return Fraction(rng.randint(-2 * max_den, 2 * max_den),
                        rng.randint(1, max_den))

    out = []
    for _ in range(count):
        k = rng.randint(1, max_type)
        alpha = [rand_fraction() for _ in range(k)]
        taken = {a % 1 for a in alpha}  # the classes mod Z
        beta = []
        while len(beta) < k:
            b = rand_fraction()
            if b % 1 not in taken:
                beta.append(b)
        gamma = Fraction(0)
        while not gamma:
            gamma = rand_fraction()
        h = hypergeom.make_hyp(gamma, alpha, beta)
        assert hypergeom.is_irreducible(h)
        out.append(h)
    return out


def monic(f):
    """The monic Fraction coefficients of the ascending polynomial f."""
    return tuple(Fraction(c) / f[-1] for c in f)


def primitive_integer(f):
    """The primitive integer multiple, with positive leading coefficient,
    of the ascending rational polynomial f."""
    fs = [Fraction(c) for c in f]
    scale = math.lcm(*(c.denominator for c in fs))
    nums = [c.numerator * (scale // c.denominator) for c in fs]
    g = math.gcd(*nums) * (1 if nums[-1] > 0 else -1)
    return tuple(c // g for c in nums)


def sympy_root_split(coeffs):
    """sympy's answer to ``weyl._rational_root_split``: factor the whole
    polynomial over Q, read the linear factors as rational roots with
    multiplicity and list every other factor, as its primitive integer
    multiple with positive leading coefficient, once per multiplicity in
    sympy's order.  sympy is a test dependency only."""
    import sympy

    s = sympy.Symbol("s")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], s)
    roots, leftovers = {}, []
    for factor, mult in poly.factor_list()[1]:
        fc = [Fraction(int(c.p), int(c.q)) for c in reversed(factor.all_coeffs())]
        if len(fc) == 2:
            r = -fc[0] / fc[1]
            roots[r] = roots.get(r, 0) + mult
        else:
            leftovers.extend([primitive_integer(fc)] * mult)
    return tuple(sorted(roots.items())), leftovers


# Reference printers for ``weyl.format_terms`` and ``weyl.format_poly``:
# every coefficient a reduced Fraction, printed by ``str``.  The reference
# objects of the tests print with them.

def ref_format_terms(terms):
    """A sum of terms c * x^e * ... with Fraction (or int) coefficients."""
    parts = []
    for c, factors in terms:
        if not c:
            continue
        mono = [v if e == 1 else f"{v}^{e}" for v, e in factors if e]
        a = abs(c)
        if a != 1 or not mono:
            mono.insert(0, str(a))
        if parts:
            parts.append(" + " if c > 0 else " - ")
        elif c < 0:
            parts.append("-")
        parts.append("*".join(mono))
    return "".join(parts) or "0"


def ref_format_poly(coeffs, var):
    """A univariate polynomial, ascending Fraction coefficients."""
    cs = list(coeffs)
    return ref_format_terms((cs[e], [(var, e)]) for e in range(len(cs) - 1, -1, -1))
