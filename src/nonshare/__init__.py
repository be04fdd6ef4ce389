"""Certified anti-collusion analysis of mediated correlations.

Subpackages by concern:

- ``qkernel``: dense complex linear algebra for 2- and 3-qubit states and
  binary observables, CHSH scores, Born-rule behaviors.
- ``behaviors``: finite-alphabet conditional behaviors, no-signalling checks,
  hidden-variable models, copied-seed extensions, game scores.
- ``frontier``: exact analytic anti-collusion frontier, Werner scan, the
  4-step certification protocol.
- ``finitedata``: trial simulation, correlator estimation, Hoeffding lower
  confidence bounds and confidence-bounded certificates.
- ``extlp``: extension-polytope linear programs on binary alphabets,
  collusive vulnerability, shadow TV distance, capacity-equals-distance
  verification.
- ``npa``: reduced level-2 moment-matrix semidefinite upper envelopes for the
  tilted-CHSH family with solver diagnostics and certificate flags.
- ``cli``: command-line front-end emitting figure-ready CSV/JSON.
"""

__version__ = "0.1.0"
