"""Exact factorisation of a rational polynomial in one variable.

This is the factoriser behind the root oracle of ``weyl``
(``_rational_root_split``), and ``factor_over_q`` is its one entry point.
It uses the classical exact methods on integer polynomials:

1. Clear denominators to a primitive integer polynomial with positive
   leading coefficient.
2. Squarefree decomposition (Yun), with the heuristic gcd GCDHEU of Char,
   Geddes and Gonnet: the gcd of two values at a large integer xi, read back
   in base xi and confirmed by exact division.  It forms no remainder
   sequence, so no intermediate coefficients swell.
3. Rational roots of each squarefree part by p-adic expansion (Loos,
   SIAM J. Comput. 12, 1983): the roots modulo the smallest odd prime p
   that keeps the part squarefree and its degree, each Newton-lifted until
   p^k exceeds twice the Cauchy bound of lc * root, read back symmetrically
   and kept only if exact division confirms it.
4. A root-free rest of degree 2 or 3 is irreducible.  From degree 4 on,
   Zassenhaus (von zur Gathen and Gerhard, *Modern Computer Algebra*,
   ch. 14-16): distinct- and equal-degree factorisation modulo p, Hensel
   lifting of all the modular factors to the Mignotte bound, and
   recombination of subsets in order of size.

No step uses a float, and each answer is an exact division, so the result
is exact; randomness (a seeded ``random.Random`` of its own, in the
equal-degree step) changes only the running time.

A polynomial is a list of int coefficients, lowest degree first, with a
nonzero last entry.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

from .weyl import _clear_denominators, _primitive, _strip

Poly = list[int]  # lowest degree first, nonzero last entry; [] is zero


def factor_over_q(
    coeffs: Sequence[int | Fraction],
) -> tuple[dict[Fraction, int], list[tuple[Poly, int]]]:
    """Rational roots and nonlinear irreducible factors of a nonzero rational
    polynomial (coefficients lowest degree first).

    Returns the rational roots as a root -> multiplicity mapping, and the
    irreducible factors of degree >= 2 with multiplicity, each as a
    primitive integer polynomial with positive leading coefficient.  The
    factors are sorted by degree, then by multiplicity, then by their
    coefficients read from the highest degree.
    """
    f = _strip(_clear_denominators(coeffs)[0])
    if not f:
        raise ValueError("zero polynomial has no factorisation")
    roots: dict[Fraction, int] = {}
    factors: list[tuple[Poly, int]] = []
    for part, mult in _squarefree(_primitive(f)):
        if len(part) == 2:
            roots[Fraction(-part[0], part[1])] = mult
            continue
        p = _good_prime(part)
        found, rest = _rational_roots(part, p)
        roots.update(dict.fromkeys(found, mult))
        if len(rest) > 4:  # degree >= 4: may split without a root
            factors.extend((g, mult) for g in _zassenhaus(rest, p))
        elif len(rest) > 2:
            factors.append((rest, mult))
    factors.sort(key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))
    return roots, factors


# -- integer polynomials ----------------------------------------------------

def _derivative(f: Poly) -> Poly:
    return [i * f[i] for i in range(1, len(f))]


def _add(f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    return _strip([a + b for a, b in zip(f, g)] + f[len(g):])


def _sub(f: Poly, g: Poly) -> Poly:
    return _add(f, [-b for b in g])


def _mul(f: Poly, g: Poly) -> Poly:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _divide(f: Poly, g: Poly) -> Poly | None:
    """f / g over the integers, or None when g does not divide f."""
    r = list(f)
    lc, dg = g[-1], len(g) - 1
    q = [0] * (len(f) - dg) if len(f) > dg else []
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + dg], lc)
        if rem:
            return None
        q[k] = c
        if c:
            for j in range(dg):
                r[k + j] -= c * g[j]
    if any(r[:dg]):
        return None
    return q


def _value(f: Poly, x: int) -> int:
    acc = 0
    for a in reversed(f):
        acc = acc * x + a
    return acc


def _value_mod(f: Poly, x: int, m: int) -> int:
    acc = 0
    for a in reversed(f):
        acc = (acc * x + a) % m
    return acc


def _gcd(f: Poly, g: Poly) -> Poly:
    """gcd of two primitive polynomials (GCDHEU), primitive with positive
    leading coefficient.

    For xi >= 2 min(|f|, |g|) + 2 the primitive part h of gcd(f(xi), g(xi))
    read in base xi is the gcd exactly when it divides both (Char, Geddes
    and Gonnet, J. Symbolic Comput. 7, 1989).  A spurious common factor of
    the two values divides the resultant of the cofactors, so a large
    enough xi always succeeds; xi grows by a factor of about 2.73
    (1 + sqrt 3) per try.
    """
    if len(f) == 1 or len(g) == 1:
        return [1]
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    while True:
        gamma = math.gcd(_value(f, xi), _value(g, xi))
        h = []
        while gamma:
            c = gamma % xi
            if 2 * c > xi:
                c -= xi
            h.append(c)
            gamma = (gamma - c) // xi
        h = _primitive(h)
        if _divide(f, h) is not None and _divide(g, h) is not None:
            return h
        xi = xi * 73794 // 27011


def _squarefree(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's squarefree decomposition of a primitive f of positive
    leading coefficient: the nonconstant parts a_i with f = prod a_i^i."""
    if len(f) == 1:
        return []
    df = _derivative(f)
    a = _gcd(f, _primitive(df))
    b, c = _divide(f, a), _divide(df, a)
    parts = []
    i = 1
    while len(b) > 1:
        d = _sub(c, _derivative(b))
        a = _gcd(b, _primitive(d)) if d else b
        if len(a) > 1:
            parts.append((a, i))
        b = _divide(b, a)
        c = _divide(d, a) if d else []
        i += 1
    return parts


# -- polynomials modulo a prime p ------------------------------------------
# Coefficients in [0, p), lowest degree first, stripped; [] is zero.

def _mod(f: Poly, p: int) -> Poly:
    return _strip([a % p for a in f])


def _monic_mod(f: Poly, p: int) -> Poly:
    inv = pow(f[-1], -1, p)
    return [a * inv % p for a in f]


def _mul_mod(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return []
    return _strip([a % p for a in _mul(f, g)])


def _divmod_mod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg] * inv % p
        q[k] = c
        if c:
            for j in range(dg + 1):
                r[k + j] = (r[k + j] - c * g[j]) % p
    return _strip(q), _strip(r[:dg])


def _rem_mod(f: Poly, g: Poly, p: int) -> Poly:
    return _divmod_mod(f, g, p)[1]


def _gcd_mod(f: Poly, g: Poly, p: int) -> Poly:
    """Monic gcd modulo p."""
    while g:
        f, g = g, _rem_mod(f, g, p)
    return _monic_mod(f, p) if f else f


def _pow_mod(f: Poly, e: int, m: Poly, p: int) -> Poly:
    """f^e modulo m and p."""
    out, base = [1], _rem_mod(f, m, p)
    while e:
        if e & 1:
            out = _rem_mod(_mul_mod(out, base, p), m, p)
        e >>= 1
        if e:
            base = _rem_mod(_mul_mod(base, base, p), m, p)
    return out


def _sub_mod(f: Poly, g: Poly, p: int) -> Poly:
    return _mod(_sub(f, g), p)


def _odd_primes():
    yield 3
    n = 5
    while True:
        if all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def _good_prime(f: Poly) -> int:
    """The smallest odd prime p that divides no leading coefficient of f
    and keeps f squarefree modulo p."""
    df = _derivative(f)
    return next(p for p in _odd_primes()
                if f[-1] % p and len(_gcd_mod(_mod(f, p), _mod(df, p), p)) == 1)


def _distinct_degree(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """(g, d): g the product of the irreducible factors of degree d of the
    monic squarefree f modulo p."""
    out = []
    h, d = [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _pow_mod(h, p, f, p)
        g = _gcd_mod(f, _sub_mod(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod_mod(f, g, p)[0]
            h = _rem_mod(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: Poly, d: int, p: int, rng: random.Random) -> list[Poly]:
    """The monic irreducible factors, all of degree d, of the monic
    squarefree f modulo an odd prime p (Cantor-Zassenhaus)."""
    if len(f) - 1 == d:
        return [f]
    e = (p ** d - 1) // 2
    while True:
        a = _strip([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(a) < 2:
            continue
        g = _gcd_mod(f, _sub_mod(_pow_mod(a, e, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return (_equal_degree(g, d, p, rng)
                    + _equal_degree(_divmod_mod(f, g, p)[0], d, p, rng))


# -- rational roots ----------------------------------------------------------

def _roots_mod(f: Poly, p: int) -> list[int]:
    """The roots modulo p of f: p is the smallest good prime, so small."""
    return [x for x in range(p) if not _value_mod(f, x, p)]


def _exponents(k: int) -> list[int]:
    """1 < ... < k, each at most twice the one before: the precisions of a
    quadratic lift from p to p^k."""
    out = []
    while k > 1:
        out.append(k)
        k = (k + 1) // 2
    return out[::-1]


def _rational_roots(f: Poly, p: int) -> tuple[list[Fraction], Poly]:
    """The rational roots of the squarefree primitive f, which stays
    squarefree modulo p, and the cofactor of their linear factors."""
    lc = f[-1]
    # |lc * root| <= |lc| + max |a_i| (Cauchy), and lc * root is an integer
    bound = 2 * (abs(lc) + max(abs(a) for a in f[:-1]))
    k = 1
    while p ** k <= bound:
        k += 1
    modulus = p ** k
    roots = []
    for r in _roots_mod(f, p):
        df = _derivative(f)
        for e in _exponents(k):
            m = p ** e
            r = (r - _value_mod(f, r, m) * pow(_value_mod(df, r, m), -1, m)) % m
        w = lc * r % modulus
        if 2 * w > modulus:
            w -= modulus
        root = Fraction(w, lc)
        q = _divide(f, [-root.numerator, root.denominator])
        if q is not None:
            roots.append(root)
            f = q
    return roots, f


# -- Zassenhaus ---------------------------------------------------------------

def _zassenhaus(f: Poly, p: int) -> list[Poly]:
    """The irreducible factors of the squarefree primitive f of degree >= 4,
    which has no rational root and stays squarefree modulo p."""
    modular = [u for g, d in _distinct_degree(_monic_mod(_mod(f, p), p), p)
               for u in _equal_degree(g, d, p, random.Random(p))]
    if len(modular) == 1:
        return [f]
    n = len(f) - 1
    # b/lc(g) * g has coefficients below this for every factor g of f
    # (Mignotte; von zur Gathen and Gerhard, alg. 15.19)
    bound = (math.isqrt(n + 1) + 1) * 2 ** n * max(map(abs, f)) * f[-1]
    k = 1
    while p ** k <= 2 * bound:
        k += 1
    return _recombine(f, _hensel_lift(f, modular, p, k), p ** k)


def _hensel_lift(f: Poly, modular: list[Poly], p: int, k: int) -> list[Poly]:
    """Monic lifts modulo p^k of the monic factors of f modulo p, lifted
    one at a time against the product of the rest."""
    lifted = []
    rest = f
    for i, h in enumerate(modular[:-1]):
        g = [f[-1] % p]
        for u in modular[i + 1:]:
            g = _mul_mod(g, u, p)
        s, t = _bezout(g, h, p)
        for e in _exponents(k):
            g, h, s, t = _hensel_step(rest, g, h, s, t, p ** e)
        lifted.append(h)
        rest = g
    lifted.append(_monic_mod(_mod(rest, p ** k), p ** k))
    return lifted


def _bezout(g: Poly, h: Poly, p: int) -> tuple[Poly, Poly]:
    """s, t with s g + t h = 1 modulo p, for coprime g and h."""
    r0, r1 = g, h
    s0, s1, t0, t1 = [1], [], [], [1]
    while len(r1) > 1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r1[0], -1, p)  # r1 is a nonzero constant
    return [a * inv % p for a in s1], [a * inv % p for a in t1]


def _hensel_step(f: Poly, g: Poly, h: Poly, s: Poly, t: Poly,
                 m: int) -> tuple[Poly, Poly, Poly, Poly]:
    """From f = g h and s g + t h = 1 modulo m0 to the same modulo m, for
    m dividing m0^2 and h monic (von zur Gathen and Gerhard, alg. 15.10)."""
    e = _mod(_sub(f, _mul(g, h)), m)
    q, r = _divmod_mod(_mul_mod(s, e, m), h, m)
    g = _mod(_add(g, _add(_mul(t, e), _mul(q, g))), m)
    h = _mod(_add(h, r), m)
    b = _mod(_sub(_add(_mul(s, g), _mul(t, h)), [1]), m)
    c, d = _divmod_mod(_mul_mod(s, b, m), h, m)
    s = _sub_mod(s, d, m)
    t = _mod(_sub(t, _add(_mul(t, b), _mul(c, g))), m)
    return g, h, s, t


def _recombine(f: Poly, lifted: list[Poly], m: int) -> list[Poly]:
    """The irreducible factors of f from the monic lifts of its modular
    factors: subsets in order of size, each product times lc(f) read
    symmetrically modulo m and kept when it divides f."""
    out = []
    s = 1
    while 2 * s <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), s):
            g = [f[-1]]
            for i in subset:
                g = _mod(_mul(g, lifted[i]), m)
            g = [c - m if 2 * c > m else c for c in g]
            if not g[0] or f[-1] * f[0] % g[0]:
                continue
            g = _primitive(g)
            q = _divide(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    out.append(f)
    return out
