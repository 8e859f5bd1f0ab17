"""liewave: symbolic-numeric workbench for the linear evolution class
u_t = A(x,t) u_2x + B(x,t) u_x + C(x,t) u.

Subpackages and modules:
  expr       expression kernel (parse, diff, substitute, simplify, sampling)
  symmetry   prolongation and determining residuals
  reduction  similarity variable and reduction, target classification
  synth      wave / oscillator / rossby coefficient families
  numverify  finite-difference ground truth and vertical-mode eigensolver
  cli        the `liewave` command
"""

__version__ = "0.1.0"
