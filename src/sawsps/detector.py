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

# render_pl_image splats positions in blocks of about SPLAT_BLOCK pixel
# values (512 KB), which bounds its temporaries; the block size does not
# show in the image.
SPLAT_BLOCK = 1 << 16


@dataclass(frozen=True)
class Irf:
    """Gaussian instrument response, parameterized by its FWHM."""

    fwhm_ns: float

    def __post_init__(self):
        if self.fwhm_ns <= 0:
            raise ValueError("IRF FWHM must be > 0")

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
        if self.center_nm <= 0:
            raise ValueError("wavelength must be > 0")
        if self.linewidth_mev < 0:
            raise ValueError("linewidth must be >= 0")

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
    image edges.  Photons are grouped by float equality of (x, y), with a
    stable sort of the two columns; each group takes its first photon's
    coordinates and is weighted by its photon count.  The groups are splatted
    in order of first appearance, SPLAT_BLOCK pixel values at a time: one erf
    call per axis gives every edge of a block's positions, and each
    position's weighted outer product is added to the image in turn, so the
    sums round as they would one position at a time.  Temporaries stay
    within a block, however many positions there are.  Raises ValueError
    for a non-increasing extent axis, a `pixel_um` that does not divide
    each axis into whole pixels (the last pixel would stop short of the
    extent) or a non-finite photon position.
    """
    from scipy.special import erf

    if psf_sigma_um <= 0:
        raise ValueError("PSF sigma must be > 0")
    if pixel_um <= 0:
        raise ValueError("pixel pitch must be > 0")
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
    step = max(SPLAT_BLOCK // img.size, 1)
    for a in range(0, first.size, step):
        block = first[a:a + step]
        ex = erf((x_edges - x[block, None]) / root2s)
        ey = erf((y_edges - y[block, None]) / root2s)
        gx = 0.5 * (ex[:, 1:] - ex[:, :-1])
        gy = 0.5 * (ey[:, 1:] - ey[:, :-1])
        terms = gy[:, :, None] * gx[:, None, :]
        terms *= weights[a:a + step, None, None]
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
