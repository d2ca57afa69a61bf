"""Exact symbolic calculator for the invariant Gauss-Manin cohomology of
Dwork families, verified against operator, syzygy and arrangement oracles."""

from .weyl import (LaurentPoly, WeylOp, ParseError, parse_op, euler_op,
                   euler_factorization, fourier, mobius_infinity,
                   indicial_polynomial, singular_support)
from .hypergeom import (ExpMultiset, HypModule, FactorList, cancel, make_hyp,
                        hyp_operator, is_irreducible, exponents, power_pullback,
                        power_pushforward, euler_char)
from .dwork import (Weights, validate_weights, gamma_n, singular_fibers,
                    c_set, invariant_hyp, g_block, k_table, m_table,
                    ft_pair, ft_sign, full_report, consistency_checks)
from .arrangement import (projective_arrangement_dims, milnor_fiber_dims,
                          torus_slice_dims, nbc_oracle,
                          projective_arrangement_consistent)
from .syzygy import (MultiPoly, SyzygyVector, family_poly, syzygy_generators,
                     verify_syzygies, generation_oracle)

__version__ = "0.1.0"
