"""Exact factorisation of an integer polynomial in one variable.

This is the factoriser behind the root oracle of ``weyl``, and its one
entry point is ``_factor_integer``: a rational polynomial reaches it only
through ``weyl._rational_root_split``.  It uses the classical exact methods
on integer polynomials:

1. ``weyl._rational_root_split`` clears denominators and strips the zero
   roots; ``_factor_integer`` divides out the content, to a primitive
   integer polynomial with positive leading coefficient.
2. Squarefree decomposition (Yun), with the heuristic gcd GCDHEU of Char,
   Geddes and Gonnet: the gcd of two values at a large integer xi, read back
   in base xi and confirmed by exact division unless it reads back as a
   constant.  It forms no remainder sequence, so no intermediate
   coefficients swell.  A polynomial prime to its derivative is its own
   squarefree part.
3. Rational roots of each squarefree part by p-adic expansion (Loos,
   SIAM J. Comput. 12, 1983).  One scan over the residues modulo each odd
   prime p that does not divide the leading coefficient lc finds the roots
   modulo p; the first p at which each of them is simple is taken.  A
   rational root a/b has b | lc, so its residue is one of these simple
   roots, and only the primes dividing lc * disc fail.  Each residue is
   read back at p and again after every step of its Newton lift, in two
   ways: lc * root read symmetrically, and, for lc > 1, the fraction of
   least height that the residue can be (Wang's rational reconstruction).
   A reading whose numerator divides the constant term (the rational root
   test) is kept as soon as exact division confirms it, so a small root
   needs no lift, and none goes past p^k above twice the Cauchy bound of
   lc * root, where the symmetric reading is exact.  Once the cofactor has
   degree <= 2, its roots are read in closed form
   (``weyl._low_degree_roots``) instead.
4. A root-free rest of degree 2 or 3 is irreducible.  From degree 4 on, a
   binomial b*t^n + a is settled by Capelli's theorem (Lang, *Algebra*,
   ch. VI, thm. 9.1): t^n - c is irreducible over Q iff c is no p-th power
   for a prime p | n and, when 4 | n, c is not in -4*Q^4; the powers are
   tested by exact integer roots (``weyl._integer_nthroot``).  Only a
   reducible binomial and any other rest go on, to degree analysis
   (Musser, J. ACM 22, 1975) first: the distinct-degree
   factorisation modulo each of DEGREE_PRIMES good primes (not dividing lc,
   rest squarefree modulo it; the Frobenius h -> h^p is the substitution
   h(x^p)) leaves as possible degrees of a factor over Q the subset sums of
   the modular degrees, and when only 0 and n are left at every prime, the
   rest is irreducible.  Otherwise Zassenhaus (von zur Gathen and Gerhard,
   *Modern Computer Algebra*, ch. 14-16) at the prime with the fewest
   modular factors: equal-degree factorisation, Hensel lifting of all the
   modular factors to the Mignotte bound, and recombination of subsets in
   order of size.

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

from .weyl import _integer_nthroot, _low_degree_roots, _primitive, _strip

Poly = list[int]  # lowest degree first, nonzero last entry; [] is zero

# Good primes whose distinct-degree factorisations bound the degrees of the
# factors before Zassenhaus lifts at one of them.
DEGREE_PRIMES = 5


def _factor_integer(
    f: Poly,
) -> tuple[list[tuple[Fraction, int]], list[tuple[Poly, int]]]:
    """Rational roots and nonlinear irreducible factors of a nonconstant
    integer polynomial f (coefficients lowest degree first).

    Returns the rational roots as a list of distinct (root, multiplicity)
    pairs, and the irreducible factors of degree >= 2 with multiplicity,
    each as a primitive integer polynomial with positive leading
    coefficient.  The factors are sorted by degree, then by multiplicity,
    then by their coefficients read from the highest degree.
    """
    roots: list[tuple[Fraction, int]] = []
    factors: list[tuple[Poly, int]] = []
    for part, mult in _squarefree(_primitive(f)):
        found, rest = _rational_roots(part)
        roots += [(r, mult) for r in found]
        if len(rest) > 4:  # degree >= 4: may split without a root
            factors.extend((g, mult) for g in _zassenhaus(rest))
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
        # a constant h is the gcd: a nonconstant gcd G has its roots below
        # 1 + min(|f|, |g|) (Cauchy), so |gamma| >= |G(xi)| > xi / 2, which
        # reads back as two digits or more
        if len(h) == 1:
            return h
        if _divide(f, h) is not None and _divide(g, h) is not None:
            return h
        xi = xi * 73794 // 27011


def _squarefree(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's squarefree decomposition of a nonconstant primitive f of
    positive leading coefficient: the nonconstant parts a_i with
    f = prod a_i^i."""
    df = _derivative(f)
    a = _gcd(f, _primitive(df))
    if len(a) == 1:
        return [(f, 1)]
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


def _distinct_degree(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """(g, d): g the product of the irreducible factors of degree d of the
    monic squarefree f modulo p."""
    out = []
    h, d = [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        # h^p = h(x^p) modulo p: spread the coefficients, then reduce
        spread = [0] * ((len(h) - 1) * p + 1)
        spread[::p] = h
        h = _rem_mod(spread, f, p)
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
        g = _gcd_mod(f, _sub_mod(_pow_mod(a, e, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return (_equal_degree(g, d, p, rng)
                    + _equal_degree(_divmod_mod(f, g, p)[0], d, p, rng))


# -- rational roots ----------------------------------------------------------

def _roots_mod(f: Poly, df: Poly, p: int) -> list[int] | None:
    """The roots of f modulo p by trial of every residue, or None when one
    of them is a root of df too; f and df are reduced modulo p, and p is
    the first prime at which the roots are simple, so small."""
    roots = []
    for x in range(p):
        if not _value_mod(f, x, p):
            if not _value_mod(df, x, p):
                return None
            roots.append(x)
    return roots


def _exponents(k: int) -> list[int]:
    """1 < ... < k, each at most twice the one before: the precisions of a
    quadratic lift from p to p^k."""
    out = []
    while k > 1:
        out.append(k)
        k = (k + 1) // 2
    return out[::-1]


def _rational_roots(f: Poly) -> tuple[list[Fraction], Poly]:
    """The rational roots of the squarefree primitive nonconstant f and the
    cofactor of their linear factors: each simple root modulo the first odd
    prime p, not dividing lc, at which all are simple, read back at p and at
    every precision of its lift, until the cofactor has degree <= 2 and is
    solved in closed form."""
    roots = []
    if len(f) > 3:
        lc = f[-1]
        df = _derivative(f)
        for p in _odd_primes():
            if lc % p:
                residues = _roots_mod(_mod(f, p), _mod(df, p), p)
                if residues is not None:
                    break
        # |lc * root| <= |lc| + max |a_i| (Cauchy), and lc * root is an integer
        bound = 2 * (abs(lc) + max(abs(a) for a in f[:-1]))
        k = 1
        while p ** k <= bound:
            k += 1
        for r in residues:
            if len(f) <= 3:
                break
            df = _derivative(f)
            for e in [1, *_exponents(k)]:
                m = p ** e
                if e > 1:  # one Newton step from the precision before
                    r = (r - _value_mod(f, r, m) * pow(_value_mod(df, r, m), -1, m)) % m
                found = _read_back(f, lc, r, m)
                if found is not None:
                    roots.append(found[0])
                    f = found[1]
                    break
    if len(f) <= 3:
        found = _low_degree_roots(f)
        if found:  # all of f's roots
            return roots + found, [1]
    return roots, f


def _read_back(f: Poly, lc: int, r: int, m: int) -> tuple[Fraction, Poly] | None:
    """The root of f that is r modulo m, with the cofactor of its linear
    factor, when the precision m already shows it; lc is a multiple of
    every root's denominator.

    Two readings of r: lc * root read centred, and, for lc > 1, the
    fraction a/b of least height, |a| and b at most sqrt(m/2), that is r
    modulo m (Wang's rational reconstruction).  A reading is a root when
    b | lc, a | f[0] (the rational root test) and exact division confirms
    it; being r modulo p, it is then the lift of r.
    """
    w = lc * r % m
    if 2 * w > m:
        w -= m
    g = math.gcd(w, lc)
    reads = [(w // g, lc // g)]
    if lc > 1:
        reads.append(_reconstruct(r, m))
    for a, b in reads:
        if b and not lc % b and not (f[0] % a if a else f[0]):
            q = _divide(f, [-a, b])
            if q is not None:
                return Fraction(a, b), q
    return None


def _reconstruct(r: int, m: int) -> tuple[int, int]:
    """a/b = r modulo m with |a| and 0 < b at most sqrt(m/2), by the
    extended Euclidean algorithm on (m, r); (0, 0) when there is none."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return 0, 0
    return (r1, s1) if s1 > 0 else (-r1, -s1)


# -- Zassenhaus ---------------------------------------------------------------

def _zassenhaus(f: Poly) -> list[Poly]:
    """The irreducible factors of the squarefree primitive f of degree >= 4,
    which has no rational root."""
    n = len(f) - 1
    if not any(f[1:-1]) and _capelli_irreducible(f):
        return [f]
    irreducible = 1 | 1 << n
    possible = -1  # bit d set: a factor of degree d is not ruled out
    best = None
    primes = 0
    df = _derivative(f)
    for p in _odd_primes():
        if not f[-1] % p:
            continue
        fp = _monic_mod(_mod(f, p), p)
        if len(_gcd_mod(fp, _mod(df, p), p)) > 1:
            continue
        ddf = _distinct_degree(fp, p)
        degrees = [d for g, d in ddf for _ in range((len(g) - 1) // d)]
        sums = 1  # bit s set: some of the modular factors have degree sum s
        for d in degrees:
            sums |= sums << d
        possible &= sums
        if possible == irreducible:
            return [f]
        if best is None or len(degrees) < best[0]:
            best = (len(degrees), p, ddf)
        primes += 1
        if primes == DEGREE_PRIMES:
            break
    _, p, ddf = best
    modular = [u for g, d in ddf
               for u in _equal_degree(g, d, p, random.Random(p))]
    # b/lc(g) * g has coefficients below this for every factor g of f
    # (Mignotte; von zur Gathen and Gerhard, alg. 15.19)
    bound = (math.isqrt(n + 1) + 1) * 2 ** n * max(map(abs, f)) * f[-1]
    k = 1
    while p ** k <= 2 * bound:
        k += 1
    return _recombine(f, _hensel_lift(f, modular, p, k), p ** k)


def _capelli_irreducible(f: Poly) -> bool:
    """Whether the binomial f = b*t^n + a, n >= 2 and a != 0, is irreducible
    over Q, by Capelli's theorem (Lang, *Algebra*, ch. VI, thm. 9.1): t^n - c
    is irreducible iff c is no p-th power in Q for any prime p | n and, when
    4 | n, c is not in -4*Q^4."""
    n = len(f) - 1
    c = Fraction(-f[0], f[-1])
    if n % 4 == 0 and _is_power(c / -4, 4):
        return False
    rest, p = n, 2
    while rest > 1:  # p runs through the prime factors of n
        if rest % p == 0:
            if _is_power(c, p):
                return False
            while rest % p == 0:
                rest //= p
        p += 1
    return True


def _is_power(c: Fraction, n: int) -> bool:
    """Whether c is the n-th power of a rational."""
    if c < 0 and n % 2 == 0:
        return False
    return (_integer_nthroot(abs(c.numerator), n)[1]
            and _integer_nthroot(c.denominator, n)[1])


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
