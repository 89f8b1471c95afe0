"""Random small operator systems shared by the property-based tests."""

import numpy as np

from opsyslab import canonicalize


def _ginibre(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _haar(rng, d):
    """A Haar unitary: the QR of a Ginibre matrix, with the phases of R moved into Q."""
    q, r = np.linalg.qr(_ginibre(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugated(rng, units):
    """u units u* for a Haar unitary u: a conjugated copy of the algebra they span."""
    u = _haar(rng, len(units[0]))
    return canonicalize([u @ e @ u.conj().T for e in units], len(u))


def _unitary(rng, d, kind):
    """A d x d unitary: Haar, or a conjugated repeated or clustered spectrum."""
    if kind == "haar":
        return _haar(rng, d)
    if kind == "repeated":  # eigenvalues drawn from {1, -1, i, -i}
        spectrum = rng.choice(np.array([1, -1, 1j, -1j]), d)
    else:  # "cluster": exp(i(theta + eps g)), eps in {1e-15, 1e-11, 1e-7}
        eps = rng.choice([1e-15, 1e-11, 1e-7])
        spectrum = np.exp(1j * (rng.uniform(-np.pi, np.pi) + eps * rng.standard_normal(d)))
    u = _haar(rng, d)
    return (u * spectrum) @ u.conj().T


def _random_system(family, d, rng):
    if family == "span":  # span{1, g, g*}
        return canonicalize([_ginibre(rng, d)], d)
    if family == "two":  # span{1, g, g*, h, h*}
        return canonicalize([_ginibre(rng, d), _ginibre(rng, d)], d)
    return _conjugated(rng, [np.diag(e) for e in np.eye(d)])  # diag_d


def _direct_sum(rng, sizes):
    """A conjugated copy of M_n1 + M_n2 + ..., block diagonal in M_(n1+n2+...)."""
    e = np.eye(sum(sizes))
    starts = np.cumsum([0, *sizes[:-1]])
    return _conjugated(rng, [np.outer(e[i], e[j]) for start, n in zip(starts, sizes)
                             for i in range(start, start + n) for j in range(start, start + n)])
