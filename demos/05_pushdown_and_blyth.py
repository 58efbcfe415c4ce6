"""Pushing infinitesimally-supported priors down to standard ones.

A prior (``lcbayes.Prior``) with Levi-Civita weights on Levi-Civita
support points maps to a standard prior by taking standard parts of the
support and pooling weights.  When the risk is continuous in the parameter, the Bayes risk
under the pushdown agrees with the standard part of the exact Bayes
risk; the boundary family's jump at 0 is exactly the kind of failure
the consistency flag detects.

Run:  python demos/05_pushdown_and_blyth.py
"""

from fractions import Fraction as F

from lcbayes import (BernoulliBoundary, LCNumber, NormalLocationLinear, Prior,
                     blyth_certificate, eps, pushdown, pushdown_risk_consistency)

e = eps()

print("Pushdown takes standard parts and pools monad-mates:")
prior = Prior(support=((e,), (1 + e * e,), (2 * e,)),
              weights=(LCNumber(F(1, 4)), LCNumber(F(1, 2)), LCNumber(F(1, 4))))
pushed = pushdown(prior)
for point, weight in zip(pushed.support, pushed.weights):
    print(f"  mass {weight} at {point}")
print()

print("Consistency of Bayes risks under the pushdown:")
location = NormalLocationLinear(1)
lc_value, std_value, agree = pushdown_risk_consistency(
    location, F(1, 2), Prior.at((1 + e,)))
print(f"  location family at 1 + eps: exact {lc_value}, pushdown {std_value}, "
      f"agree = {agree}")

boundary = BernoulliBoundary()
lc_value, std_value, agree = pushdown_risk_consistency(
    boundary, (F(0), F(0)), Prior.at((LCNumber(F(1, 2)) + e,)))
print(f"  boundary family at 1/2 + eps: exact {lc_value}, pushdown {std_value}, "
      f"agree = {agree}")

lc_value, std_value, agree = pushdown_risk_consistency(
    boundary, (F(0), F(0)), Prior.at((e,)))
print(f"  boundary family at eps: exact {lc_value}, pushdown {std_value}, "
      f"agree = {agree}   <- the jump at 0 is detected")
print()

print("A grid-scoped admissibility certificate needs both halves:")
challengers = [(F(a, 4), F(b, 4)) for a in range(5) for b in range(5)]
cert = blyth_certificate(boundary, (F(0), F(0)), Prior.at((e,)),
                         e, challengers)
print(f"  certified: {cert.certified}")
print(f"  reason:    {cert.reason}")
print("  (the rule is within eps of Bayes against all 25 challengers, but a")
print("  point prior gives faraway balls zero mass, so regularity fails;")
print("  admissibility of (0,0) holds for other reasons)")
