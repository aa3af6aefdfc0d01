"""Deterministic seed derivation.

Every stochastic operation in the package takes an explicit 64-bit seed.
Composite runs derive named substreams from one root seed so that components
(simulator, detector, gnn, agent, eval) can be re-run independently without
perturbing each other.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1


def derive_seed(root: int, *names: str | int) -> int:
    """Derive a stable 64-bit child seed from a root seed and a name path.

    Independent of Python's hash randomization; stable across platforms.
    """
    h = hashlib.sha256()
    h.update(str(int(root) & _MASK64).encode("ascii"))
    for name in names:
        h.update(b"/")
        h.update(str(name).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") & _MASK64
