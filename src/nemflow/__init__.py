"""Structure-preserving pseudospectral solver for a regularised two-velocity
nematic flow model on the periodic unit torus.

The implicit time stepper keeps the discrete energy balance, solenoidality,
and zero-mean velocity at every step; the diagnostics ledger materialises
each term of that balance so runs certify themselves.
"""
