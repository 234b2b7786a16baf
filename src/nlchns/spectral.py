"""Field algebra on a uniform periodic square grid.

Everything downstream (convolution kernels, the coupled solver, the
diagnostics) is built on the operations here: spectral derivatives, the
Leray projector, 2/3-rule dealiasing and Parseval sums, which carry the
physical volume.

Conventions
-----------
* Coefficients are unnormalized rfft2 coefficients, c = rfft2(values), on the
  half plane m_y = 0 .. n/2 (shape (n, n//2 + 1), ``Grid.half``); the other
  modes are their conjugates for real fields.  This is the only coefficient
  layout: the solver carries it, and kernels, initial data and resampling
  build their fields in it.
* Wavenumbers are 2*pi*m/l with integer m in [-n/2, n/2) per axis.
* Odd-derivative multipliers vanish on the unmatched Nyquist line m = -n/2;
  ``Grid.half.k2`` squares the zeroed wavenumbers, so that div grad f ==
  lap f exactly: ``irfft2(ikx (ikx f^) + iky (iky f^))`` (the divergence of
  what ``rgradient`` differentiates) equals ``irfft2(-k2 f^)``.  Dealiased
  fields carry no Nyquist content, so this is only visible on deliberately
  full-spectrum data.
* Dealiasing keeps |m| <= floor(n/3) per axis (``Grid.half.mask``, ``kept_cols`` columns).
* Quadratic forms read the coefficients by Parseval (``parseval``): the
  columns m_y = 0 and n/2 hold their own conjugates and count once, every
  other column stands for two, and the scale is |Omega| / n^4.  A form is a
  dot product of |f^|^2 (``power``) with a weight array built once
  (``Grid.half.weight``, ``Grid.half.weight_k2``).
* A field is an array, given beside its ``Grid``: samples (n, n), row-major,
  or coefficients, leading axes stacking fields (a velocity's are (2, n, n)).

All functions are pure apart from the ``out`` and ``work`` buffers they are
given; fields are treated as immutable values.  Grids cache their operator
arrays lazily, which is safe under concurrent use (idempotent dict writes of
immutable arrays).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft._pocketfft_umath import fft as _fft
from numpy.fft._pocketfft_umath import ifft as _ifft
from numpy.fft._pocketfft_umath import irfft as _irfft
from numpy.fft._pocketfft_umath import rfft_n_even as _rfft


class GridMismatchError(ValueError):
    """Operands live on different grids."""


@dataclass(frozen=True)
class Grid:
    """Uniform n x n periodic grid on the square [0, l)^2."""

    n: int
    l: float

    def __post_init__(self):
        if errors := list(grid_errors(self.n, self.l)):
            raise ValueError("; ".join(errors))

    @property
    def spacing(self) -> float:
        return self.l / self.n

    @property
    def cell_volume(self) -> float:
        return (self.l / self.n) ** 2

    @property
    def volume(self) -> float:
        return self.l ** 2

    @cached_property
    def x(self) -> np.ndarray:
        """Coordinates along one axis, shape (n,)."""
        return np.arange(self.n) * self.spacing

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.meshgrid(self.x, self.x, indexing="ij"))

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer mode numbers in FFT layout, shape (n,)."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    @cached_property
    def half(self) -> "HalfPlane":
        """The operators on the rfft2 half plane, built from one axis: the
        derivative wavenumber with its Nyquist entry zeroed, and the 2/3-rule
        keep |m| <= floor(n/3) (n is a power of two, so the retained band K
        satisfies 3K <= n - 1 and triple products stay alias-free)."""
        nh = self.n // 2 + 1
        k = 2.0 * np.pi * self.modes / self.l
        k[self.n // 2] = 0.0
        kx, ky = np.meshgrid(k, k[:nh], indexing="ij")
        k2 = kx**2 + ky**2
        keep = np.abs(self.modes) <= self.n // 3
        weight = np.full((self.n, nh), 2.0 * self.volume / self.n**4)
        weight[:, [0, -1]] /= 2.0  # m_y = 0 and n/2 count once
        return HalfPlane(
            ikx=1j * kx, iky=1j * ky, k2=k2, weight=weight, weight_k2=weight * k2,
            kept_cols=self.n // 3 + 1,
            mask=keep[:, None] & keep[None, :nh],
        )


def grid_errors(n: int | None, l: float | None):
    """Yield the grid's rules that n and l break; None, which a config lacks, is not checked."""
    if n is not None and not (n >= 8 and (n & (n - 1)) == 0):
        yield f"grid.n must be a power of two >= 8, got {n}"
    if l is not None and not (np.isfinite(l) and l > 0):
        yield "grid.l must be positive"


def unresolved_modes(entries, n: int | None):
    """An error for each (config key, mode or a component) entry outside |m| < n/2, if n is known."""
    return (f"{key}: {','.join(map(str, m))} is outside -(n/2 - 1) .. n/2 - 1 (grid.n = {n})"
            for key, m in entries if n is not None and max(map(abs, m)) >= n // 2)


@dataclass(frozen=True)
class HalfPlane:
    """Operators on rfft2 coefficients, shape (n, n//2 + 1): the modes
    m_y = 0 .. n/2, the rest being their conjugates for real fields.
    ``perp`` gives the Leray projector, made from the wavenumbers on each
    use (the solver keeps its own product with the viscous solve);
    ``weight`` is the Parseval weight of each coefficient, and ``weight_k2``
    = weight k2 that of ||grad f||^2; ``mask`` keeps ``kept_cols`` of the
    columns."""

    ikx: np.ndarray
    iky: np.ndarray
    k2: np.ndarray
    weight: np.ndarray
    weight_k2: np.ndarray
    kept_cols: int
    mask: np.ndarray

    @property
    def perp(self) -> np.ndarray:
        """e = (-ky, kx) / |k|, stacked (2, n, n//2 + 1), and 0 where k = 0
        under the derivative convention (the zero mode and the unmatched
        Nyquist lines).  The Leray projector is e (e . v) where k != 0 and
        the identity where k = 0; k . e (e . v) is zero up to the rounding of
        the projected field itself, not of v."""
        return np.stack([-self.iky.imag, self.ikx.imag]) / np.sqrt(np.where(self.k2 > 0.0, self.k2, 1.0))

    def ik(self, c: int) -> np.ndarray:
        """(ikx, iky) on the first c columns, stacked (2, n, c) in a new
        contiguous block: numpy buffers a ufunc operand that is a column
        slice, and allocates to do so."""
        return np.stack((self.ikx[:, :c], self.iky[:, :c]))


@dataclass
class ScalarField:
    """Real samples on a grid, row-major (n, n), unchecked: what ``storage.read_snapshot``
    returns, and ``SimState.phi``.  The package passes arrays; the benchmark reads these two."""

    grid: Grid
    values: np.ndarray


# ---------------------------------------------------------------------------
# resampling

def resample(hats: np.ndarray, grid: Grid, new_grid: Grid, cols: int | None = None) -> np.ndarray:
    """The rfft2 coefficients on ``new_grid``, on its first ``cols`` columns
    (all n//2 + 1 when None), of the field whose coefficients on ``grid``
    are ``hats`` on their first columns, the rest zero; leading axes stack
    fields.  The grids must share their domain length.

    On one grid, the columns both widths hold are copied and the rest are
    zero.  Between grids, the modes strictly inside the smaller grid's band
    (|m| < min(n)/2) are copied, rescaled by (n_new/n_old)^2 to keep the
    amplitudes; refinement zero-pads, coarsening truncates.  The unmatched
    Nyquist line is dropped so the result stays conjugate symmetric on
    either grid.
    """
    if grid.l != new_grid.l:
        raise GridMismatchError("resample requires identical domain lengths")
    n_old, n_new = grid.n, new_grid.n
    out = np.zeros(hats.shape[:-2] + (n_new, n_new // 2 + 1 if cols is None else cols), dtype=complex)
    c = min(out.shape[-1], hats.shape[-1])
    if n_new == n_old:
        out[..., :c] = hats[..., :c]
        return out
    h = min(n_old, n_new) // 2  # copy modes -(h-1) .. (h-1)
    c, scale = min(c, h), (n_new / n_old) ** 2
    np.multiply(hats[..., :h, :c], scale, out=out[..., :h, :c])
    np.multiply(hats[..., -(h - 1):, :c], scale, out=out[..., -(h - 1):, :c])
    return out


# ---------------------------------------------------------------------------
# calculus

# the gufuncs' axes: a 1-D pass along the rows (the last axis) or the columns
_ROW_PASS = [(-1,), (), (-1,)]
_COL_PASS = [(-2,), (), (-2,)]


def rfft2_cols(values: np.ndarray, c: int, out: np.ndarray | None = None,
               rows: np.ndarray | None = None) -> np.ndarray:
    """rfft2(values)[..., :c], bit-identically, with the column FFTs cut to
    c; leading axes stack fields, each transformed as if alone.  The row
    pass goes to ``rows`` (shape values.shape[:-1] + (n//2 + 1,)) and the
    column pass to ``out``, each allocated when None; c = n//2 + 1 gives
    the whole rfft2, and then ``out`` may be ``rows`` itself.  The passes
    are the pocketfft gufuncs that numpy's rfft2 ends in, called with its
    factors (n is even) but without its per-call argument handling."""
    if rows is None:
        values = np.asarray(values)
        rows = np.empty(values.shape[:-1] + (values.shape[-1] // 2 + 1,), dtype=complex)
    _rfft(values, 1.0, axes=_ROW_PASS, out=rows)
    rows = rows[..., :c]
    return _fft(rows, 1.0, axes=_COL_PASS, out=np.empty_like(rows) if out is None else out)


def irfft2_cols(grid: Grid, c_hat: np.ndarray, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
    """Samples from rfft2 coefficients on the first columns, the rest zero;
    leading axes stack fields, each transformed bit-identically as if alone.
    The column pass (``inverse_cols``) goes to ``work`` (c_hat itself may be
    given) and the row pass (``inverse_rows``) to ``out``, each allocated
    when None.  These are irfft2's own two passes, the pocketfft gufuncs
    with its factor 1/n each, called apart because numpy's irfft2 does not
    write its ``out``; a caller may run them at different times."""
    return inverse_rows(grid, inverse_cols(grid, c_hat, out=work), out=out)


def inverse_cols(grid: Grid, c_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The column pass of ``irfft2_cols``: the inverse FFT down each column
    of ``c_hat``, into ``out`` (c_hat itself may be given), allocated when None."""
    if out is None:
        out = np.empty(np.shape(c_hat), dtype=complex)
    return _ifft(c_hat, 1.0 / grid.n, axes=_COL_PASS, out=out)


def inverse_rows(grid: Grid, work: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The row pass of ``irfft2_cols``: the samples, from the column pass
    ``work`` on the first columns, into ``out``, allocated when None."""
    if out is None:
        out = np.empty(work.shape[:-1] + (grid.n,))
    return _irfft(work, 1.0 / grid.n, axes=_ROW_PASS, out=out)


def rgradient(grid: Grid, f_hat: np.ndarray, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    """Samples of grad f, stacked (2, n, n), from the first columns of its
    coefficients in one stacked inverse transform.  ``work`` (2,) +
    f_hat.shape takes ik f^ and then the column pass; its second plane may
    be f_hat itself, which is then overwritten."""
    h, c = grid.half, f_hat.shape[1]
    if work is None:
        work = np.empty((2,) + f_hat.shape, dtype=complex)
    np.multiply(h.ikx[:, :c], f_hat, out=work[0])
    np.multiply(h.iky[:, :c], f_hat, out=work[1])
    return irfft2_cols(grid, work, out=out, work=work)


def divergence_bound(grid: Grid, hats: np.ndarray, ik: np.ndarray, weight: np.ndarray, work: np.ndarray) -> float:
    """A bound on max |div v| over the samples, from v's coefficients on their
    first c columns, (2, n, c), with no transform: a sample is (1/n^2) sum_k
    c_k e^{ik.x} over the full plane, so it is at most (1/n^2) sum |ik . v^|, in
    which the columns m_y = 0 and n/2 count once and every other column twice.
    ``ik`` = ``HalfPlane.ik(c)``, ``weight`` = ``Grid.half.weight`` on those columns,
    contiguous; ``work``, a contiguous complex (2, n, c) block, takes ik v^ and |ik . v^|."""
    ikv = np.multiply(ik, hats, out=work)
    div = np.add(ikv[0], ikv[1], out=ikv[0])
    d = np.abs(div, out=ikv[1].reshape(-1).view(float)[:div.size].reshape(div.shape))  # contiguous for vdot
    return float(np.vdot(weight, d)) * grid.n**2 / grid.volume


def flux_divergence(u: np.ndarray, f: np.ndarray, ik: np.ndarray, out: np.ndarray | None = None,
                    products: np.ndarray | None = None, rows: np.ndarray | None = None) -> np.ndarray:
    """rfft2 coefficients of div(u f) on the first c columns, ikx (u_x f)^ +
    iky (u_y f)^, from the samples of u, stacked (2, n, n), and of f, and
    the multipliers ``ik`` = ``HalfPlane.ik(c)``: the transport term in
    divergence form, equal to (u . grad) f when div u = 0.  The products go
    to ``products`` (2, n, n) and take one stacked forward transform, its
    row pass to ``rows`` (2, n, n//2 + 1) and its column pass to ``out``
    (2, n, c), which may share memory with ``products``; each is allocated
    when None, and the result is ``out[0]``."""
    if products is None:
        products = np.empty((2,) + f.shape)
    np.multiply(u[0], f, out=products[0])  # one plane at a time: numpy buffers a broadcast operand
    np.multiply(u[1], f, out=products[1])
    flux = rfft2_cols(products, ik.shape[-1], out=out, rows=rows)
    np.multiply(ik, flux, out=flux)
    return np.add(flux[0], flux[1], out=flux[0])


def leray_project(grid: Grid, hats: np.ndarray) -> np.ndarray:
    """The rfft2 coefficients of the L2-orthogonal projection onto
    divergence-free fields, from those of v, stacked (2, n, n//2 + 1).

    Mode-wise v_hat -> e (e . v_hat), e = (-ky, kx) / |k| (``HalfPlane.perp``),
    which is v_hat - k (k . v_hat) / |k|^2; the k = 0 mode (mean velocity)
    passes through unchanged.
    """
    e, still = grid.half.perp, grid.half.k2 == 0.0
    out = e * (e * hats).sum(axis=0)
    out[:, still] = hats[:, still]
    return out


# ---------------------------------------------------------------------------
# quadratic forms

def power(*hats: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """|f^|^2 summed over the fields, from their rfft2 coefficients or the
    first columns of them (rows contiguous, as numpy returns and slices them):
    re^2 and im^2 of each, summed over the fields, then in pairs.  ``work``, a
    flat float buffer of 3 (one field) or 4 field sizes, takes them (allocated when None)."""
    m, shape = hats[0].size, hats[0].view(float).shape
    work = np.empty(4 * m) if work is None else work
    sq = np.square(hats[0].view(float), out=work[:2 * m].reshape(shape))  # re^2 and im^2 side by side
    for c in hats[1:]:
        np.add(sq, np.square(c.view(float), out=work[2 * m:4 * m].reshape(shape)), out=sq)
    return np.add(sq[..., ::2], sq[..., 1::2], out=work[2 * m:3 * m].reshape(hats[0].shape))


def parseval(weight: np.ndarray, p: np.ndarray) -> float:
    """integral (S f) f dx, for a real even multiplier S, from p = |f^|^2
    (``power``) on the first columns and ``weight`` = ``Grid.half.weight`` S
    on the half plane: the weight itself gives ||f||^2 and
    ``Grid.half.weight_k2`` gives ||grad f||^2 (the Nyquist line zeroed, as
    the derivatives have it)."""
    return float(np.vdot(weight[:, :p.shape[1]], p))

