"""Weak-measurement localization onto generalized coherent states.

Simulates the stochastic nonlinear Schrodinger equation for simultaneous
weak measurement of every generator of a compact semisimple Lie algebra,
its Lindblad ensemble counterpart, and the algebraic machinery (Cartan
decomposition, roots, weights, coherent states, uncertainty functionals)
needed to verify that the coherent-state orbit is the globally stable
attractor of the dynamics.  Each public name is declared once, in the
``__all__`` of its module.
"""

from . import algebra, cartan, dynamics, observables
from .algebra import *
from .cartan import *
from .dynamics import *
from .observables import *

__version__ = "0.1.0"

__all__ = sorted(algebra.__all__ + cartan.__all__ + dynamics.__all__ + observables.__all__)
