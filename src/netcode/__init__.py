"""Exact linear network coding over finite fields.

Subpackages:

- galois: GF(p^m) arithmetic, polynomials, matrices, the n-point DFT
- netmodel: delay networks, kernels, transfer matrices, simulation
- transform: eigenblocks and the cyclic-prefix pipeline
- feasibility: solvability analysis and transform-plan search
- alignment: three-unicast interference alignment constructions
- cli: command line front end
"""

from __future__ import annotations

__version__ = "0.1.0"
