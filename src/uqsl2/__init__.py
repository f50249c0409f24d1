"""Exact symbolic computation in the loop (second Drinfeld) presentation of
the quantized affine sl2, with verification of its Heisenberg-type family.

Each name lives in its module (``uqsl2.rewrite``, ``uqsl2.verify``, ...);
the package re-exports none of them."""

__version__ = "0.1.0"
