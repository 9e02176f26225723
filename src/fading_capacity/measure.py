"""Discrete input measures, power functional, input shells, mixture density.

_weighted_mix is the package's one mixture kernel: mixture_log_density and
every estimator reduce ln f_mu = ln sum_j w_j p(y|x_j) through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelModel, _as_output, _fail, _numbers, _require, _vector,
                      conditional_covariance)

WEIGHT_SUM_ATOL = 1e-12
ATOM_DISTINCT_SQ = 1e-18
PRUNE_FLOOR = 1e-15


@dataclass(frozen=True)
class InputShell:
    """Closed shell of input vectors with r1_sq <= ||x||^2 <= r2_sq.

    Bounds are in squared-norm units. Output decoding shells elsewhere use
    plain radius units; do not mix the two conventions.
    """

    r1_sq: float
    r2_sq: float

    def __post_init__(self):
        if not (0.0 <= self.r1_sq < self.r2_sq):
            raise ValueError(f"shell bounds must satisfy 0 <= r1_sq < r2_sq, "
                             f"got [{self.r1_sq}, {self.r2_sq}]")

    def contains(self, norm_sq: float) -> bool:
        return self.r1_sq <= norm_sq <= self.r2_sq


@dataclass(frozen=True)
class PowerConstraint:
    """Average power budget: E[||x||^2] / N <= a."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"power budget must be positive and finite, got {self.a}")


class DiscreteMeasure:
    """Finitely supported input distribution: atoms with probability weights.

    atoms is a (k, N) complex array (rows are input vectors), weights a
    length-k finite nonnegative vector summing to 1 within 1e-12. Atoms must be
    pairwise distinct (squared distance > 1e-18). Immutable by convention.
    """

    def __init__(self, atoms, weights):
        atoms = np.atleast_2d(np.asarray(atoms, dtype=complex))
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError(f"{atoms.shape[0]} atoms but {weights.shape[0]} weights")
        if atoms.shape[0] == 0:
            raise ValueError("measure needs at least one atom")
        if not np.all(np.isfinite(atoms.view(float))):
            raise ValueError("atoms have non-finite entries")
        if not np.all(np.isfinite(weights)):  # NaN passes both checks below
            raise ValueError("weights must be finite")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_ATOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_ATOL}, got {total!r}")
        # squares past ~1.3e154 are inf: distinct, and the estimators raise ScaleOverflowError
        with np.errstate(over="ignore"):
            for i in range(atoms.shape[0]):
                d = np.sum(np.abs(atoms[i + 1:] - atoms[i]) ** 2, axis=1)
                if np.any(d <= ATOM_DISTINCT_SQ):
                    j = i + 1 + int(np.argmin(d))
                    raise ValueError(f"atoms {i} and {j} coincide (squared distance <= 1e-18)")
            self.norms_sq = np.sum(np.abs(atoms) ** 2, axis=1)
        self.atoms = atoms
        self.weights = weights
        self.atoms.setflags(write=False)
        self.weights.setflags(write=False)
        self.norms_sq.setflags(write=False)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @classmethod
    def single(cls, atom) -> "DiscreteMeasure":
        return cls(np.atleast_2d(np.asarray(atom, dtype=complex)), [1.0])

    def to_json(self) -> dict:
        return {
            "atoms": [{"re": a.real.tolist(), "im": a.imag.tolist()} for a in self.atoms],
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DiscreteMeasure":
        """Build from {"atoms": [{"re": [..], "im": [..]}, ..], "weights": [..]}, as
        to_json writes it.

        The atoms are a nonempty list of vectors of one common length, each im
        optional (zeros); the weights are finite numbers. Malformed input raises
        ConfigError naming the field, e.g. "weights[0]: expected a number, got str";
        the constructor's checks (weights summing to 1, distinct atoms) raise ValueError.
        """
        atoms, weights = _require(obj, "atoms", ""), _require(obj, "weights", "")
        if not isinstance(atoms, list) or not atoms:
            _fail("atoms", "expected a nonempty list of atoms")
        rows = [_vector(atoms[0], "atoms[0]")]
        rows += [_vector(a, f"atoms[{i}]", len(rows[0])) for i, a in enumerate(atoms[1:], 1)]
        return cls(rows, _numbers(weights, "weights"))

    def __repr__(self):
        return f"DiscreteMeasure(k={self.n_atoms}, N={self.dim})"


def average_power(mu: DiscreteMeasure) -> float:
    """Mean squared norm per input dimension, sum_i w_i ||x_i||^2 / N."""
    return float(np.dot(mu.weights, mu.norms_sq) / mu.dim)


def shell_mass(mu: DiscreteMeasure, shell: InputShell) -> float:
    """Total weight of atoms whose squared norm lies in the closed shell."""
    inside = (mu.norms_sq >= shell.r1_sq) & (mu.norms_sq <= shell.r2_sq)
    return float(mu.weights[inside].sum())


def _weighted_mix(logp: np.ndarray, weights: np.ndarray, out=None) -> np.ndarray:
    """Column-wise ln sum_j w_j exp(logp[j, :]), shift-stabilized.

    logp is component-major, (k, n): one row per atom, one column per
    sample, so the shift is a reduction over the short axis. Zero-weight
    rows are dropped before the shift, so they cannot drag it and underflow
    the whole column. Given out (n,), logp is scratch: the shifted densities
    overwrite it, and the result, in out, equals the allocating call's bit
    for bit.
    """
    if np.any(weights <= 0.0):
        keep = weights > 0.0
        logp, weights = logp[keep], weights[keep]
    amax = np.max(logp, axis=0)
    shifted = logp - amax if out is None else np.subtract(logp, amax, out=logp)
    out = np.matmul(weights, np.exp(shifted, out=shifted), out=out)
    np.log(out, out=out)
    out += amax
    return out


def mixture_log_density(model: ChannelModel, mu: DiscreteMeasure, y) -> float:
    """ln f_mu(y) = ln sum_i w_i p(y|x_i), reduced by the mixture kernel _weighted_mix;
    -inf when every atom's log density is (an output past double range)."""
    if mu.dim != model.N:
        raise ValueError(f"measure dimension {mu.dim} != channel input dimension {model.N}")
    y = _as_output(model, y)
    logp = np.array([conditional_covariance(model, a).log_densities(y)[0]
                     for a in mu.atoms])
    if np.max(logp[mu.weights > 0.0]) == -np.inf:  # the kernel's shift would be -inf - -inf
        return -math.inf
    return float(_weighted_mix(logp[:, None], mu.weights)[0])


def prune_weights(mu: DiscreteMeasure, floor: float = PRUNE_FLOOR) -> DiscreteMeasure:
    """Drop atoms with weight below floor and renormalize the rest."""
    keep = mu.weights >= floor
    if np.all(keep):
        return mu
    if not np.any(keep):
        keep = mu.weights == mu.weights.max()
    w = mu.weights[keep]
    return DiscreteMeasure(mu.atoms[keep], w / w.sum())
