"""Instrument chain: timing blur, spectral assignment, frame rendering.

Timing resolution is a Gaussian surrogate of the measured instrument
response (FWHM default 0.35 ns).  Each photon's wavelength is sampled from
its transition's line (Gaussian, linewidth given in meV and converted to nm
at the line center), so linewidth broadening shows up in rendered frames.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from ._csvfile import write_csv
from .cascade import Transient

FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))  # = 2.3548...
HC_MEV_NM = 1.23984198e6  # h*c in meV * nm


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
    image edges.  Photons are grouped by position: frames with many photons
    from few emitters render in one pass per emitter.
    """
    if psf_sigma_um <= 0:
        raise ValueError("PSF sigma must be > 0")
    if pixel_um <= 0:
        raise ValueError("pixel pitch must be > 0")
    (x0, x1), (y0, y1) = extent_um
    nx = max(int(round((x1 - x0) / pixel_um)), 1)
    ny = max(int(round((y1 - y0) / pixel_um)), 1)
    x_edges = x0 + np.arange(nx + 1) * pixel_um
    y_edges = y0 + np.arange(ny + 1) * pixel_um
    img = np.zeros((ny, nx))

    # one splat per distinct position, summed in order of first appearance
    xy = np.stack([records["x_um"], records["y_um"]], axis=1)
    positions, first, weights = np.unique(xy, axis=0, return_index=True,
                                          return_counts=True)
    order = np.argsort(first)
    root2s = math.sqrt(2.0) * psf_sigma_um
    for (px, py), w in zip(positions[order], weights[order]):
        gx = 0.5 * (erf((x_edges - px) / root2s)[1:]
                    - erf((x_edges - px) / root2s)[:-1])
        gy = 0.5 * (erf((y_edges - py) / root2s)[1:]
                    - erf((y_edges - py) / root2s)[:-1])
        img += w * np.outer(gy, gx)
    return PlImage(x_edges, y_edges, img)


# ---------------------------------------------------------------------------
# Exports: portable graymap + axis calibration CSV
# ---------------------------------------------------------------------------

def write_pgm(path, intensity: np.ndarray, binary: bool = True,
              maxval: int = 65535) -> None:
    """Write an intensity grid as a P5 (binary) or P2 (ASCII) graymap,
    scaled so the brightest pixel maps to maxval."""
    a = np.asarray(intensity, dtype=float)
    if a.ndim != 2:
        raise ValueError("intensity must be 2-d")
    if not 0 < maxval <= 65535:
        raise ValueError("maxval must be in 1..65535")
    peak = a.max()
    scaled = np.zeros(a.shape, dtype=np.uint16) if peak <= 0 else \
        np.round(a / peak * maxval).astype(np.uint16)
    header = f"{'P5' if binary else 'P2'}\n{a.shape[1]} {a.shape[0]}\n{maxval}\n"
    if binary:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(scaled.astype(">u2").tobytes())
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(header)
            for row in scaled:
                fh.write(" ".join(str(v) for v in row) + "\n")


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
