"""Partitions into distinct Fibonacci numbers.

Exact, log-time counting of the partitions of n into distinct Fibonacci
numbers via the Zeckendorf decomposition, plus the structure that counting
exposes: continued-fraction words, a free monoid action whose orbit minima
are the essential numbers, and the analytics of the signed count chi.
"""

from .chi_analysis import (RunReport, computed_hull_points, count_zero_chi,
                           h_rec, hull_points, nonzero_runs, upper_hull,
                           x_sum, zero_runs)
from .contfrac import (cf_expand, delta, eval_cf, format_word, parse_word,
                       word_of)
from .counting import (assoc_multivector, assoc_vector, canonical_form, chi,
                       continuant, count_F, count_Fh, decompose, fib_poly,
                       poly_D, poly_eval)
from .enumeration import (bell, cmp_triangle, circle, commutative_normal_form,
                          commutative_words, euler_phi, is_primitive,
                          list_essential, max_essential, minimal_essential,
                          ordered_bell, psi, psi_sigma, stability_count,
                          words_with_delta)
from .fibcore import (content, fib, is_two_partition, mu_first, mu_last,
                      shift_sigma, zeckendorf)
from .orbits import (act_S, act_omega, act_tau, epsilon, essential_from_m,
                     is_essential, is_f_prime, m_from_essential, star, theta)

__version__ = "0.1.0"
