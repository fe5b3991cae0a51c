"""Instrument chain: timing blur, spectral assignment, frame rendering.

Timing resolution is a Gaussian surrogate of the measured instrument
response (FWHM default 0.35 ns).  Each photon's wavelength is sampled from
its transition's line (Gaussian, linewidth given in meV and converted to nm
at the line center), so linewidth broadening shows up in rendered frames.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._csvfile import write_csv
from .cascade import Transient

FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))  # = 2.3548...
HC_MEV_NM = 1.23984198e6  # h*c in meV * nm

# render_pl_image takes the erf of about SPLAT_BLOCK pixel edges at once and
# splats positions in blocks of about SPLAT_BLOCK pixel values (512 KB),
# which bounds its temporaries; the block size does not show in the image.
SPLAT_BLOCK = 1 << 16

# _erf ports fdlibm's s_erf.c (Sun Microsystems, 1993), whose algorithm and
# coefficients glibc and musl also use.  Its regions of |x| end at these
# bounds: below 2**-1015 and below 2**-28 erf is (1 + efx) * x, below
# 0.84375 it is a rational function of x**2, below 1.25 one of |x| - 1,
# below the double whose high word is 0x4006DB6E (about 1 / 0.35) and below
# 6 one of 1 / x**2 inside an exp, and from 6 on erf rounds to 1.
_ERF_BOUNDS = np.array((2.0 ** -1015, 2.0 ** -28, 0.84375, 1.25,
                        2.8571434020996094, 6.0))
_ERF_EFX = 1.28379167095512586316e-01
_ERF_EFX8 = 1.02703333676410069053e+00
_ERF_ERX = 8.45062911510467529297e-01
_ERF_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01,
           -2.84817495755985104766e-02, -5.77027029648944159157e-03,
           -2.37630166566501626084e-05)
_ERF_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
           5.08130628187576562776e-03, 1.32494738004321644526e-04,
           -3.96022827877536812320e-06)
_ERF_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01,
           -3.72207876035701323847e-01, 3.18346619901161753674e-01,
           -1.10894694282396677476e-01, 3.54783043256182359371e-02,
           -2.16637559486879084300e-03)
_ERF_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
           7.18286544141962662868e-02, 1.26171219808761642112e-01,
           1.36370839120290507362e-02, 1.19844998467991074170e-02)
_ERF_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01,
           -1.05586262253232909814e+01, -6.23753324503260060396e+01,
           -1.62396669462573470355e+02, -1.84605092906711035994e+02,
           -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_ERF_SA = (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02,
           4.34565877475229228821e+02, 6.45387271733267880336e+02,
           4.29008140027567833386e+02, 1.08635005541779435134e+02,
           6.57024977031928170135e+00, -6.04244152148580987438e-02)
_ERF_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01,
           -1.77579549177547519889e+01, -1.60636384855821916062e+02,
           -6.37566443368389627722e+02, -1.02509513161107724954e+03,
           -4.83519191608651397019e+02)
_ERF_SB = (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02,
           1.53672958608443695994e+03, 3.19985821950859553908e+03,
           2.55305040643316442583e+03, 4.74528541206955367215e+02,
           -2.24409524465858183362e+01)


@dataclass(frozen=True)
class Irf:
    """Gaussian instrument response, parameterized by its FWHM."""

    fwhm_ns: float

    def __post_init__(self):
        if not 0 < self.fwhm_ns < math.inf:
            raise ValueError("IRF FWHM must be finite and > 0")

    @property
    def sigma_ns(self) -> float:
        return self.fwhm_ns / FWHM_TO_SIGMA


def convolve_irf(transient: Transient, irf: Irf) -> Transient:
    """Convolve a uniformly sampled trace with the IRF kernel.

    The kernel is truncated at +-5 sigma and normalized to unit area, so the
    total integral is preserved; the output grid is extended by the kernel
    half-width on both sides so no mass is clipped at the edges.
    """
    dt = transient.step_ns
    if dt > irf.fwhm_ns:
        raise ValueError(
            f"grid step {dt} ns undersamples the {irf.fwhm_ns} ns FWHM kernel")
    sigma = irf.sigma_ns
    half = int(math.ceil(5.0 * sigma / dt))
    k = np.exp(-0.5 * (np.arange(-half, half + 1) * dt / sigma) ** 2)
    k /= k.sum()
    y = np.convolve(transient.intensity, k, mode="full")
    t0 = transient.time_ns[0] - half * dt
    t = t0 + np.arange(y.size) * dt
    return Transient(t, np.maximum(y, 0.0))


# ---------------------------------------------------------------------------
# Spectral assignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralLine:
    center_nm: float
    linewidth_mev: float  # FWHM; 0 means a delta line

    def __post_init__(self):
        if not 0 < self.center_nm < math.inf:
            raise ValueError("wavelength must be finite and > 0")
        if not 0 <= self.linewidth_mev < math.inf:
            raise ValueError("linewidth must be finite and >= 0")

    @property
    def sigma_nm(self) -> float:
        fwhm_nm = self.center_nm ** 2 * self.linewidth_mev / HC_MEV_NM
        return fwhm_nm / FWHM_TO_SIGMA


@dataclass(frozen=True)
class TransitionSpectrum:
    """Line positions per transition, with optional per-emitter overrides."""

    lines: dict
    overrides: dict = field(default_factory=dict)  # (emitter_id, transition) -> line

    @classmethod
    def default(cls) -> "TransitionSpectrum":
        # 1X/2X split by the 1.5 meV biexciton binding; 3X ~15 nm blue of 1X
        return cls(lines={"1X": SpectralLine(878.0, 0.8),
                          "2X": SpectralLine(879.0, 1.1),
                          "3X": SpectralLine(863.0, 1.1)})

    def line_for(self, emitter_id: int, transition: str) -> SpectralLine:
        key = (emitter_id, transition)
        if key in self.overrides:
            return self.overrides[key]
        if transition not in self.lines:
            raise KeyError(f"no spectral line for transition {transition!r}")
        return self.lines[transition]

    def with_emitter_shifts(self, shifts_nm: dict) -> "TransitionSpectrum":
        """Rigidly shift every line of the given emitters (distinct dots emit
        at distinct wavelengths)."""
        overrides = dict(self.overrides)
        for emitter_id, shift in shifts_nm.items():
            for transition, line in self.lines.items():
                overrides[(emitter_id, transition)] = SpectralLine(
                    line.center_nm + shift, line.linewidth_mev)
        return TransitionSpectrum(lines=self.lines, overrides=overrides)


def sample_wavelengths(records, spectrum: TransitionSpectrum,
                       rng: np.random.Generator) -> np.ndarray:
    """Per-photon wavelength draw from the photon's transition line, in
    photon order; a delta line gives its center without a draw."""
    labels, label_idx = np.unique(records["transition"], return_inverse=True)
    ids, id_idx = np.unique(records["emitter_id"], return_inverse=True)
    keys, key_idx = np.unique(id_idx * labels.size + label_idx,
                              return_inverse=True)
    lines = [spectrum.line_for(int(ids[k // labels.size]),
                               labels[k % labels.size]) for k in keys]
    center = np.array([line.center_nm for line in lines])[key_idx]
    sigma = np.array([line.sigma_nm for line in lines])[key_idx]
    out = center.copy()
    sel = sigma > 0
    out[sel] = rng.normal(center[sel], sigma[sel])
    return out


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CcdFrame:
    """Spatial (rows) x spectral (columns) count grid plus an overflow tally
    for photons that fell outside the frame."""

    row_edges_um: np.ndarray
    col_edges_nm: np.ndarray
    counts: np.ndarray
    overflow: int = 0

    def __post_init__(self):
        rows = np.asarray(self.row_edges_um, dtype=float)
        cols = np.asarray(self.col_edges_nm, dtype=float)
        c = np.asarray(self.counts, dtype=float)
        if np.any(np.diff(rows) <= 0) or np.any(np.diff(cols) <= 0):
            raise ValueError("axis calibrations must be strictly monotonic")
        if c.shape != (rows.size - 1, cols.size - 1):
            raise ValueError("counts shape must match the axis bins")
        if np.any(c < 0):
            raise ValueError("intensities must be non-negative")
        object.__setattr__(self, "row_edges_um", rows)
        object.__setattr__(self, "col_edges_nm", cols)
        object.__setattr__(self, "counts", c)

    @property
    def row_centers_um(self) -> np.ndarray:
        return 0.5 * (self.row_edges_um[:-1] + self.row_edges_um[1:])

    @property
    def col_centers_nm(self) -> np.ndarray:
        return 0.5 * (self.col_edges_nm[:-1] + self.col_edges_nm[1:])


def render_spatial_spectral(records, row_edges_um, col_edges_nm,
                            spectrum: TransitionSpectrum,
                            rng: np.random.Generator) -> CcdFrame:
    """Accumulate photons into (position row, wavelength column) bins.

    Photons outside the frame go to the overflow tally, never silently
    dropped: in-frame counts + overflow == photon count.
    """
    row_edges = np.asarray(row_edges_um, dtype=float)
    col_edges = np.asarray(col_edges_nm, dtype=float)
    wl = sample_wavelengths(records, spectrum, rng)
    counts, _, _ = np.histogram2d(records["x_um"], wl,
                                  bins=(row_edges, col_edges))
    overflow = len(records) - int(counts.sum())
    return CcdFrame(row_edges, col_edges, counts, overflow=overflow)


def whole_bins(extent: tuple, width: float) -> bool:
    """Whether bins of `width` tile the (low, high) `extent` in a whole
    number (at least one) of bins, to a relative 1e-9."""
    n = (extent[1] - extent[0]) / width
    return round(n) >= 1 and abs(n - round(n)) <= 1e-9 * n


def _horner(z, coeffs):
    """coeffs[0] + z * (coeffs[1] + z * (...)), rounded step by step from
    the innermost product out, as the C expression is."""
    acc = z * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= z
    acc += coeffs[0]
    return acc


def _erf_near_zero(a):
    """erf(a) for 2**-28 <= a < 0.84375: a + a * P(a**2) / Q(a**2)."""
    z = a * a
    y = _horner(z, _ERF_PP)
    y /= _horner(z, _ERF_QQ)
    y *= a
    y += a
    return y


def _erf_near_one(a):
    """erf(a) for 0.84375 <= a < 1.25: erx + P(a - 1) / Q(a - 1)."""
    s = a - 1.0
    y = _horner(s, _ERF_PA)
    y /= _horner(s, _ERF_QA)
    y += _ERF_ERX
    return y


def _erf_tail(a, r, s):
    """erf(a) for 1.25 <= a < 6: 1 - exp(-a**2 - 0.5625 + R/S) / a, with
    R/S = r/s of 1 / a**2.  -a**2 is split as -z**2 + (z - a) * (z + a),
    where z is a with its low 32 bits cleared, so z**2 is exact."""
    t = 1.0 / (a * a)
    z = (a.view(np.uint64) & _ERF_HIGH_WORD).view(np.float64)
    q = _horner(t, r)
    q /= _horner(t, s)
    q += (z - a) * (z + a)
    e = np.exp(-z * z - 0.5625)
    e *= np.exp(q)
    e /= a
    return 1.0 - e


_ERF_HIGH_WORD = np.uint64(0xFFFFFFFF00000000)
# one function per region of _ERF_BOUNDS, in order
_ERF_REGIONS = (lambda a: 0.125 * (8.0 * a + _ERF_EFX8 * a),
                lambda a: a + _ERF_EFX * a,
                _erf_near_zero,
                _erf_near_one,
                lambda a: _erf_tail(a, _ERF_RA, _ERF_SA),
                lambda a: _erf_tail(a, _ERF_RB, _ERF_SB))


def _erf(x):
    """erf of a float64 array, elementwise: a numpy port of fdlibm's s_erf.c,
    within 1 ulp of the exact value.  Each region is evaluated on |x| and
    takes the sign of x (fdlibm's erf is exactly odd), so erf(-0.0) is -0.0;
    NaN stays NaN."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x).ravel()
    out = np.minimum(a, 1.0)  # 1 from |x| = 6 on
    region = np.searchsorted(_ERF_BOUNDS, a, side="right")
    for k, f in enumerate(_ERF_REGIONS):
        at = np.flatnonzero(region == k)
        if at.size:
            out[at] = f(a[at])
    return np.copysign(out.reshape(x.shape), x)


@dataclass(frozen=True)
class PlImage:
    """Diffraction-blurred 2-d photoluminescence image."""

    x_edges_um: np.ndarray
    y_edges_um: np.ndarray
    intensity: np.ndarray  # shape (ny, nx)


def render_pl_image(records, psf_sigma_um: float, pixel_um: float,
                    extent_um: tuple[tuple[float, float], tuple[float, float]],
                    ) -> PlImage:
    """Splat each photon as a pixel-integrated 2-d Gaussian of the PSF width.

    Pixel values are exact Gaussian integrals (products of erf differences),
    so the total intensity equals the photon count for emitters away from the
    image edges.  The erf is `_erf`, a numpy port of fdlibm's (within 1 ulp),
    so rendering needs no scipy.  Photons are grouped by float equality of
    (x, y), with a stable sort of the two columns; each group takes its first
    photon's coordinates and is weighted by its photon count.  The groups
    are splatted in order of first appearance: one erf call per axis gives
    every edge of a chunk of positions, about SPLAT_BLOCK edges in all, and
    the chunk is splatted SPLAT_BLOCK pixel values at a time, each
    position's weighted outer product added to the image in turn, so the
    sums round as they would one position at a time.  Temporaries stay
    within a chunk, however many positions there are.  Raises ValueError
    for a PSF sigma or `pixel_um` that is not finite and > 0, a
    non-increasing extent axis, a `pixel_um` that does not divide each axis
    into whole pixels (the last pixel would stop short of the extent) or a
    non-finite photon position.
    """
    if not 0 < psf_sigma_um < math.inf:
        raise ValueError("PSF sigma must be finite and > 0")
    if not 0 < pixel_um < math.inf:
        raise ValueError("pixel pitch must be finite and > 0")
    (x0, x1), (y0, y1) = extent_um
    if not (x0 < x1 and y0 < y1):
        raise ValueError("each extent axis must be an increasing pair")
    if not all(whole_bins(axis, pixel_um) for axis in extent_um):
        raise ValueError("pixel_um must divide each extent axis into whole "
                         "pixels")
    x = np.asarray(records["x_um"], dtype=float)
    y = np.asarray(records["y_um"], dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("photon positions must be finite")
    nx = round((x1 - x0) / pixel_um)
    ny = round((y1 - y0) / pixel_um)
    x_edges = x0 + np.arange(nx + 1) * pixel_um
    y_edges = y0 + np.arange(ny + 1) * pixel_um
    img = np.zeros((ny, nx))

    # groups of equal (x, y) in sorted order; a stable sort puts each
    # group's first photon at its head
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    head = np.ones(x.size, dtype=bool)
    head[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    starts = np.flatnonzero(head)
    weights = np.diff(starts, append=x.size).astype(float)
    first = order[starts]
    by_appearance = np.argsort(first)
    first, weights = first[by_appearance], weights[by_appearance]

    root2s = math.sqrt(2.0) * psf_sigma_um
    chunk = max(SPLAT_BLOCK // (x_edges.size + y_edges.size), 1)
    step = max(SPLAT_BLOCK // img.size, 1)
    for a in range(0, first.size, chunk):
        at = first[a:a + chunk]
        ex = _erf((x_edges - x[at, None]) / root2s)
        ey = _erf((y_edges - y[at, None]) / root2s)
        gx = 0.5 * (ex[:, 1:] - ex[:, :-1])
        gy = 0.5 * (ey[:, 1:] - ey[:, :-1])
        w = weights[a:a + chunk, None, None]
        for b in range(0, at.size, step):
            terms = gy[b:b + step, :, None] * gx[b:b + step, None, :]
            terms *= w[b:b + step]
            for term in terms:
                img += term
    return PlImage(x_edges, y_edges, img)


# ---------------------------------------------------------------------------
# Exports: portable graymap + axis calibration CSV
# ---------------------------------------------------------------------------

def write_pgm(path, intensity: np.ndarray) -> None:
    """Write an intensity grid as a binary (P5) 16-bit graymap, scaled so the
    brightest pixel maps to 65535."""
    a = np.asarray(intensity, dtype=float)
    if a.ndim != 2:
        raise ValueError("intensity must be 2-d")
    peak = a.max()
    scaled = np.zeros(a.shape, dtype=np.uint16) if peak <= 0 else \
        np.round(a / peak * 65535).astype(np.uint16)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{a.shape[1]} {a.shape[0]}\n65535\n".encode("ascii"))
        fh.write(scaled.astype(">u2").tobytes())


def write_axes_csv(path, row_centers, col_centers,
                   row_name: str = "row_center_um",
                   col_name: str = "col_center_nm") -> None:
    """Axis calibrations companion to a PGM frame (one row per axis entry)."""
    rows, cols = len(row_centers), len(col_centers)
    write_csv(path, ["axis", "index", "value"],
              [[row_name] * rows + [col_name] * cols,
               [*range(rows), *range(cols)],
               np.concatenate((row_centers, col_centers), dtype=float)])


def write_transient_csv(path, transient: Transient) -> None:
    write_csv(path, ["t_ns", "intensity"],
              [transient.time_ns, transient.intensity])
