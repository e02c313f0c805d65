"""Exact-arithmetic toolkit for joints of line configurations.

Everything runs over arbitrary-precision rationals: joint detection,
vanishing-polynomial interpolation, incidence-threshold pruning, the
derivative cascade, and the integer form of the extremal inequality.
"""

__version__ = "0.1.0"
