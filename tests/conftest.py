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
        taken = {hypergeom.canonical_rep(a) for a in alpha}
        beta = []
        while len(beta) < k:
            b = rand_fraction()
            if hypergeom.canonical_rep(b) not in taken:
                beta.append(b)
        gamma = Fraction(0)
        while not gamma:
            gamma = rand_fraction()
        h = hypergeom.make_hyp(gamma, alpha, beta)
        assert hypergeom.is_irreducible(h)
        out.append(h)
    return out
