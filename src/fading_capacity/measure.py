"""Discrete input measures, power functional, input shells, mixture density.

_weighted_mix is the package's one mixture kernel: mixture_log_density and
every estimator reduce ln f_mu = ln sum_j w_j p(y|x_j) through it. As y|x_j is
CN(0, C_j), ln w_j p(y|x_j) = e_j + b_j, e_j = -y^H C_j^-1 y <= 0 and b_j = ln w_j
- ln det(pi C_j), the component's peak: one shift per call, s = max_j b_j, keeps
every term at most 1 with no per-sample max. An output in every component's far
tail (atoms hundreds of nats apart in ln det C) sums below 2^-1000 after the
shift, and its column is redone with its own max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (LOG_PI, ChannelModel, _as_output, _fail, _numbers, _require, _vector,
                      conditional_covariance)

WEIGHT_SUM_ATOL = 1e-12
ATOM_DISTINCT_SQ = 1e-18
PRUNE_FLOOR = 1e-15
_LOG_MIX_FLOOR = -1000.0 * math.log(2.0)  # ln 2^-1000: a shifted column sum below it is redone


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


def _mix_bias(weights, log_norm) -> np.ndarray:
    """_weighted_mix's b_j = ln w_j - log_norm[j], log_norm[j] = ln det(pi C_j)."""
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(weights, dtype=float)) - log_norm


def _weighted_mix(e: np.ndarray, bias: np.ndarray, out=None, fresh=None) -> np.ndarray:
    """Column-wise ln sum_j exp(e[j, :] + bias[j]), shifted by s = max_j bias[j].

    e is component-major, (k, n): one row per atom, one column per sample, the
    Gaussian exponents; bias[j] = b_j, the peak (module docstring), is -inf at zero
    weight, so that row adds exactly 0 and never sets s. The terms exp(e + (bias -
    s)) are added row by row, so a column's bits do not depend on the width. A column
    summing below 2^-1000, or past double range (rounding can push an exponent far
    above 0), is redone with its own max. Given out (n,), e is scratch for the terms
    and fresh(cols) returns e[:, cols] again: out equals the allocating call's bits.
    """
    s = np.max(bias)
    terms = np.add(e, (bias - s)[:, None], out=None if out is None else e)
    with np.errstate(over="ignore", divide="ignore"):
        np.exp(terms, out=terms)
        total = np.add(terms[0], terms[1] if len(terms) > 1 else 0.0, out=out)
        for row in terms[2:]:
            total += row
        np.log(total, out=total)
    total += s
    floor = s + _LOG_MIX_FLOOR
    if not (total.min() >= floor and total.max() < math.inf):  # NaN fails both
        cols = np.flatnonzero(~((total >= floor) & (total < math.inf)))
        exps = (e[:, cols] if out is None else fresh(cols)) + bias[:, None]
        peak = np.max(exps, axis=0)
        total[cols] = np.log(np.add.reduce(np.exp(exps - peak), axis=0)) + peak
    return total


def mixture_log_density(model: ChannelModel, mu: DiscreteMeasure, y) -> float:
    """ln f_mu(y) = ln sum_i w_i p(y|x_i), reduced by the mixture kernel _weighted_mix;
    -inf when every atom's log density is (an output past double range)."""
    if mu.dim != model.N:
        raise ValueError(f"measure dimension {mu.dim} != channel input dimension {model.N}")
    y = _as_output(model, y)
    covs = [conditional_covariance(model, a) for a in mu.atoms]
    e = np.array([-cov.quad_forms(y)[0] for cov in covs])
    if np.max(e[mu.weights > 0.0]) == -np.inf:  # the redo's max would be -inf - -inf
        return -math.inf
    bias = _mix_bias(mu.weights, [model.M * LOG_PI + cov.log_det for cov in covs])
    return float(_weighted_mix(e[:, None], bias)[0])


def prune_weights(mu: DiscreteMeasure, floor: float = PRUNE_FLOOR) -> DiscreteMeasure:
    """Drop atoms with weight below floor and renormalize the rest."""
    keep = mu.weights >= floor
    if np.all(keep):
        return mu
    if not np.any(keep):
        keep = mu.weights == mu.weights.max()
    w = mu.weights[keep]
    return DiscreteMeasure(mu.atoms[keep], w / w.sum())
