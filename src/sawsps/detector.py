"""Instrument chain: timing blur, spectral assignment, frame rendering.

Timing resolution is a Gaussian surrogate of the measured instrument
response (FWHM default 0.35 ns).  Each photon's wavelength is sampled from
its transition's line (Gaussian, linewidth given in meV and converted to nm
at the line center), so linewidth broadening shows up in rendered frames.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._csvfile import cell_text, write_csv, write_rows
from .cascade import Transient

FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))  # = 2.3548...
HC_MEV_NM = 1.23984198e6  # h*c in meV * nm

# render_pl_image splats its emitters SPLAT_BLOCK // (pixel count) at a
# time, at least one, so its temporaries hold about SPLAT_BLOCK pixel values
# (512 KB) however many emitters there are; the block size does not show in
# the image.
SPLAT_BLOCK = 1 << 16


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
    """Line positions per transition; `shifts_nm` shifts every line of an
    emitter rigidly (distinct dots emit at distinct wavelengths)."""

    lines: dict
    shifts_nm: dict = field(default_factory=dict)  # emitter_id -> shift

    @classmethod
    def default(cls) -> "TransitionSpectrum":
        # 1X/2X split by the 1.5 meV biexciton binding; 3X ~15 nm blue of 1X
        return cls(lines={"1X": SpectralLine(878.0, 0.8),
                          "2X": SpectralLine(879.0, 1.1),
                          "3X": SpectralLine(863.0, 1.1)})

    def line_for(self, emitter_id: int, transition: str) -> SpectralLine:
        if transition not in self.lines:
            raise KeyError(f"no spectral line for transition {transition!r}")
        line = self.lines[transition]
        return SpectralLine(line.center_nm + self.shifts_nm.get(emitter_id, 0.0),
                            line.linewidth_mev)


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


def _erf(x):
    """erf of a float64 array, elementwise, from `math.erf`.  From |x| = 6
    on, where erf rounds to +-1 (fdlibm's own cut), it is the sign of x, so
    only the pixel edges near an emitter cost a Python call.  Odd, with
    erf(-0.0) = -0.0; NaN stays NaN."""
    x = np.asarray(x, dtype=np.float64)
    near = np.abs(x) < 6.0
    out = np.sign(x, out=np.empty_like(x))
    out[near] = np.fromiter(map(math.erf, x[near].tolist()), np.float64)
    return out


@dataclass(frozen=True)
class PlImage:
    """Diffraction-blurred 2-d photoluminescence image."""

    x_edges_um: np.ndarray
    y_edges_um: np.ndarray
    intensity: np.ndarray  # shape (ny, nx)


def render_pl_image(x_um, y_um, counts, psf_sigma_um: float, pixel_um: float,
                    extent_um: tuple[tuple[float, float], tuple[float, float]],
                    ) -> PlImage:
    """Splat each emitter, at (`x_um`, `y_um`) with `counts` photons, as a
    pixel-integrated 2-d Gaussian of the PSF width.

    Pixel values are exact Gaussian integrals (products of erf differences),
    so the total intensity equals the photon count for emitters away from the
    image edges.  The erf is `math.erf` (`_erf`), so rendering needs numpy
    alone.  The emitters are splatted in the order given, SPLAT_BLOCK //
    (pixel count) at a time: each step takes the erf of its own emitters'
    pixel edges and adds each emitter's count-weighted outer product to the
    image in turn, so the sums round as they would one emitter at a time
    and temporaries stay within a step, however many emitters there are.
    Raises ValueError for a PSF sigma or `pixel_um` that is not finite and
    > 0, a non-increasing extent axis, a `pixel_um` that does not divide
    each axis into whole pixels (the last pixel would stop short of the
    extent), columns that are not 1-d and of one length, a non-finite
    position or a count that is not finite and >= 0.
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
    x, y, w = (np.asarray(c, dtype=float) for c in (x_um, y_um, counts))
    if not (x.ndim == 1 and x.shape == y.shape == w.shape
            and np.isfinite([x, y, w]).all() and (w >= 0).all()):
        raise ValueError("need 1-d emitter columns of one length, positions "
                         "finite and counts finite and >= 0")
    nx = round((x1 - x0) / pixel_um)
    ny = round((y1 - y0) / pixel_um)
    x_edges = x0 + np.arange(nx + 1) * pixel_um
    y_edges = y0 + np.arange(ny + 1) * pixel_um
    img = np.zeros((ny, nx))

    root2s = math.sqrt(2.0) * psf_sigma_um
    step = max(SPLAT_BLOCK // img.size, 1)
    for a in range(0, x.size, step):
        ex = _erf((x_edges - x[a:a + step, None]) / root2s)
        ey = _erf((y_edges - y[a:a + step, None]) / root2s)
        gx = 0.5 * (ex[:, 1:] - ex[:, :-1])
        gy = 0.5 * (ey[:, 1:] - ey[:, :-1])
        terms = gy[:, :, None] * gx[:, None, :]
        terms *= w[a:a + step, None, None]
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


def write_transient_csv(path, transient: Transient, time_text=None) -> None:
    """Write a trace as (t_ns, intensity) rows.  `time_text`, if given, is
    `cell_text(transient.time_ns)`: traces that share one time axis render
    it once."""
    if time_text is None:
        time_text = cell_text(transient.time_ns)
    elif len(time_text) != transient.time_ns.size:
        raise ValueError("need one time cell per sample")
    write_rows(path, ["t_ns", "intensity"], [time_text, transient.intensity])
