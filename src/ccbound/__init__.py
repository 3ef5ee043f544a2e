"""Upper bounds on device-independent QKD key rates from convex-combination
eavesdropping attacks on nonlocal correlations.

Each public name lives in its own module, for example
``ccbound.attack.chsh_attack``; the package re-exports none of them."""

__version__ = "0.1.0"
