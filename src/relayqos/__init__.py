"""Delay-QoS power allocation and validation for two-hop DF relay links.

The library computes the minimum constant transmit powers keeping the
end-to-end delay-bound violation probability of a two-hop decode-and-forward
relay link below a target, and validates the underlying analytic delay laws
by Monte Carlo simulation of the tandem fluid queue.
"""

from . import allocator, delaymodel, effcap, qsim, specfun
from .allocator import *  # noqa: F403
from .delaymodel import *  # noqa: F403
from .effcap import *  # noqa: F403
from .qsim import *  # noqa: F403
from .specfun import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*allocator.__all__, *delaymodel.__all__, *effcap.__all__, *qsim.__all__,
           *specfun.__all__]
