"""Sine eigen-system of the Dirichlet Laplacian on (0, pi)^d, d in {1, 2}.

Provides modes and eigenvalues (lambda = sum of m^2 over the axes),
projection of pointwise or separable (one factor per axis) functions, the
spectral L2 distance and H^p norm, and CSV output of a field, each by one
code path for every d; only ModeSet's check caps d at 2.

Projection detail: a composite rule with the configured subinterval count
cannot resolve the highest retained modes (with 4 subintervals the mode-23
inner products alias with O(1) error), so :func:`project` refines the grid
to ``cfg.subintervals * M`` subintervals per direction.  That keeps the
configured density per wavelength of the highest mode and pushes the
aliasing error of every retained coefficient below ~5e-12.  The n^d grid of
node values is never formed: the integrand is built a block of at most 32
columns of the last axis at a time, each block's leading axes are
contracted into an n x M^(d-1) buffer, and the last axis is contracted
once at the end.  That sums in the order of a contraction of the whole
grid, to the bit.  All reductions run in a fixed order, so projections are
bit-identical across runs and thread counts.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    NONNEGATIVE, DomainError, NumericalError, check_floats, check_int, check_real, check_type,
    refuse,
)
from .quadrature import QuadConfig, composite_nodes

__all__ = [
    "ModeSet",
    "SpectralField",
    "project",
    "l2_error",
    "hp_norm",
    "write_csv",
]

_DOMAIN_HI = math.pi


@dataclass(frozen=True)
class ModeSet:
    """All modes with per-direction index 1..M, in lexicographic order.

    A mode is named by its index tuple, (m,) in d=1 or (m, n) in d=2.
    """

    dimension: int = 2
    truncation: int = 30

    def __post_init__(self) -> None:
        check_int("ModeSet", "dimension", self.dimension, hi=2)
        check_int("ModeSet", "truncation", self.truncation)

    @property
    def size(self) -> int:
        return self.truncation**self.dimension

    @property
    def modes(self) -> tuple[tuple[int, ...], ...]:
        """Index tuples in set order."""
        return tuple(itertools.product(range(1, self.truncation + 1), repeat=self.dimension))

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in mode order, the sum of m^2 over the axes (read-only array)."""
        ms2 = np.arange(1.0, self.truncation + 1) ** 2
        lam = reduce(np.add.outer, [ms2] * self.dimension).ravel()
        lam.flags.writeable = False
        return lam

    def index_of(self, *indices: int) -> int:
        """Position of the mode with these indices in this set's fixed order."""
        if len(indices) != self.dimension:
            raise DomainError(
                f"ModeSet: need {self.dimension} indices, got {indices!r}"
            )
        k = 0
        for i in indices:
            k = k * self.truncation + check_int("ModeSet", "index", i, hi=self.truncation) - 1
        return k


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Real coefficients against the modes of a ModeSet, in set order."""

    modeset: ModeSet
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = check_floats("SpectralField", "coeffs", self.coeffs).ravel()
        if arr.size != check_type("SpectralField", "modeset", self.modeset, ModeSet).size:
            raise DomainError(
                f"SpectralField: expected {self.modeset.size} coefficients, got {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("SpectralField: all coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def coeff(self, *indices: int) -> float:
        return float(self.coeffs[self.modeset.index_of(*indices)])


def project(
    f: Callable[..., float] | tuple[Callable, ...], modeset: ModeSet, cfg: QuadConfig
) -> SpectralField:
    """Quadrature approximation of the inner products (f, phi_k), one path for every d.

    f is pointwise, f(x) or f(x, y), or a tuple of per-axis factors whose
    product is the integrand, each called once per grid coordinate; a
    node's value fl(fx(x)*fy(y)) is the pointwise product's double, so both
    forms give the same bits.  Bad arguments raise DomainError; then the
    result is memoized by (f, modeset, cfg), f (each factor) by identity: a
    repeated call returns it without evaluating f, so f must be pure.
    """
    d = check_type("project", "modeset", modeset, ModeSet).dimension
    check_type("project", "cfg", cfg, QuadConfig)
    if not (len(f) == d and all(map(callable, f)) if isinstance(f, tuple) else callable(f)):
        raise DomainError(f"project: f must be callable or {d} callable factors, got {f!r}")
    return _project(f, modeset, cfg)


# At most this many columns of the last grid axis per integrand block, 123 KB
# in d = 2 at 480 nodes.  The n columns are cut into near-equal blocks, so
# none is one column wide (n >= 2): einsum sums a one-column block in
# another order, and every wider block in the whole grid's, to the bit.
_COLUMNS = 32


# One entry per (function, grid); the benchmark uses two per configuration.
@lru_cache(maxsize=32)
def _project(f, modeset: ModeSet, cfg: QuadConfig) -> SpectralField:
    d, nsub = modeset.dimension, cfg.subintervals * modeset.truncation
    pts, wts = composite_nodes(0.0, _DOMAIN_HI, cfg, subintervals=nsub)
    ks = np.arange(1, modeset.truncation + 1, dtype=np.float64)
    sw = np.sin(np.outer(ks, pts)) * wts[None, :]
    grid, n = pts.tolist(), len(pts)  # f gets Python floats
    if isinstance(f, tuple):
        axes = [np.array([g(x) for x in grid], np.float64) for g in f]

        def block(lo: int, hi: int) -> np.ndarray:
            return reduce(np.multiply.outer, [*axes[:-1], axes[-1][lo:hi]])
    else:

        def block(lo: int, hi: int) -> np.ndarray:
            nodes = itertools.product(*[grid] * (d - 1), grid[lo:hi])
            vals = np.fromiter((f(*p) for p in nodes), np.float64, n ** (d - 1) * (hi - lo))
            return vals.reshape((n,) * (d - 1) + (hi - lo,))

    # contract the leading grid axis (its mode axis goes last) of each column
    # block, into a buffer with the F-order strides einsum gives the whole grid
    part = np.empty((n,) + (modeset.truncation,) * (d - 1), order="F")
    nblk = -(-n // _COLUMNS)
    for lo, hi in itertools.pairwise(n * i // nblk for i in range(nblk + 1)):
        with np.errstate(over="ignore", invalid="ignore"):  # factor products: checked next
            vals = block(lo, hi)
        if not np.isfinite(vals).all():
            raise NumericalError("project: integrand returned a non-finite value")
        for _ in range(d - 1):
            vals = np.einsum("mi,i...->...m", sw, vals, optimize=False)
        part[lo:hi] = vals
    vals = np.einsum("mi,i...->...m", sw, part, optimize=False)
    # (2/pi)^(d/2) is sqrt(2/pi) in d=1 and 2/pi in d=2, to the bit
    coeffs = ((2.0 / math.pi) ** (d / 2) * vals).ravel()
    # from finite node values: an inner product overflowed
    refuse("project: the inner product overflowed", ~np.isfinite(coeffs), modeset)
    return SpectralField(modeset, coeffs)


def l2_error(a: SpectralField, b: SpectralField) -> float:
    """Parseval norm of the coefficient difference; modesets must match."""
    check_type("l2_error", "a", a, SpectralField)
    if a.modeset != check_type("l2_error", "b", b, SpectralField).modeset:
        raise DomainError("l2_error: fields live on different modesets")
    # Python's d ** 2 (libm pow), not numpy's d * d: the two differ in the last bit
    try:
        with np.errstate(over="raise"):  # a difference past the double range
            return math.sqrt(math.fsum(d ** 2 for d in (a.coeffs - b.coeffs).tolist()))
    except (FloatingPointError, OverflowError):  # or a square or a partial sum past it
        raise NumericalError("l2_error: the distance overflows the double range") from None


def hp_norm(field: SpectralField, p: float) -> float:
    """Spectral Sobolev norm sqrt(sum lambda^(2p) coeff^2); p=0 gives the L2 norm."""
    check_type("hp_norm", "field", field, SpectralField)
    check_real("hp_norm", "p", p, *NONNEGATIVE)
    lam, coeffs = field.modeset.eigenvalues.tolist(), field.coeffs.tolist()
    try:
        total = math.fsum(l ** (2.0 * p) * c * c for l, c in zip(lam, coeffs))
    except OverflowError:  # lambda**(2p) or a partial sum past the double range
        total = math.inf
    if not math.isfinite(total):
        raise NumericalError(f"hp_norm: the norm of order p={p!r} overflows")
    return math.sqrt(total)


def write_csv(field: SpectralField, path: str | Path) -> None:
    """Serialize as CSV (`m,n,coeff` in d=2, `m,coeff` in d=1), 17 digits."""
    ms = check_type("write_csv", "field", field, SpectralField).modeset
    path = Path(check_type("write_csv", "path", path, (str, os.PathLike)))
    lines = [",".join([*"mnk"[: ms.dimension], "coeff"])]  # one name per axis
    for idx, c in zip(ms.modes, field.coeffs.tolist()):
        lines.append(",".join(map(str, idx)) + f",{c:.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

