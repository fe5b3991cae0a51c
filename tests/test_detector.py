import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from sawsps import detector
from sawsps.cascade import Transient
from sawsps.detector import (CcdFrame, Irf, SpectralLine, TransitionSpectrum,
                             convolve_irf, render_pl_image,
                             render_spatial_spectral, sample_wavelengths,
                             write_axes_csv, write_pgm)
from sawsps.emitter import PHOTON_DTYPE
from sawsps.rng import substream

IRF = Irf(0.35)


def photons(*rows):
    """A photon stream from (transition, x_um, y_um) rows, emitter 0."""
    return np.array([(float(i), label, 0, x, y)
                     for i, (label, x, y) in enumerate(rows)],
                    dtype=PHOTON_DTYPE)


def reference_pl_image(x, y, counts, psf_sigma_um, pixel_um, extent_um):
    """One splat per emitter, weighted by its count, summed in the order
    given: the oracle for `render_pl_image`'s splat order and rounding.  It
    takes the same elementwise `_erf`, which `TestErf` checks on its own, in
    one call per axis."""
    (x0, x1), (y0, y1) = extent_um
    nx = max(int(round((x1 - x0) / pixel_um)), 1)
    ny = max(int(round((y1 - y0) / pixel_um)), 1)
    x_edges = x0 + np.arange(nx + 1) * pixel_um
    y_edges = y0 + np.arange(ny + 1) * pixel_um
    img = np.zeros((ny, nx))
    root2s = math.sqrt(2.0) * psf_sigma_um
    ex = detector._erf((x_edges - np.asarray(x, float)[:, None]) / root2s)
    ey = detector._erf((y_edges - np.asarray(y, float)[:, None]) / root2s)
    for ex_row, ey_row, w in zip(ex, ey, np.asarray(counts, float)):
        gx = 0.5 * (ex_row[1:] - ex_row[:-1])
        gy = 0.5 * (ey_row[1:] - ey_row[:-1])
        img += w * np.outer(gy, gx)
    return img


def one_emitter():
    """Columns of a single emitter of one photon at (1, 0)."""
    return [1.0], [0.0], [1]


def emg_reference(t, tau, sigma):
    """Closed-form convolution of a unit-amplitude exponential decay with a
    unit-area Gaussian (the exponentially modified Gaussian)."""
    return 0.5 * np.exp(sigma ** 2 / (2 * tau ** 2) - t / tau) \
        * erfc((sigma ** 2 / tau - t) / (sigma * math.sqrt(2.0)))


class TestConvolveIrf:
    def test_delta_becomes_gaussian(self):
        dt = 0.01
        t = np.arange(0.0, 2.0, dt)
        y = np.zeros_like(t)
        y[100] = 1.0  # delta at t = 1
        out = convolve_irf(Transient(t, y), IRF)
        sigma = IRF.sigma_ns
        expected = dt / (sigma * math.sqrt(2 * math.pi)) \
            * np.exp(-0.5 * ((out.time_ns - 1.0) / sigma) ** 2)
        assert np.max(np.abs(out.intensity - expected)) < 1e-5

    def test_integral_preserved(self):
        t = np.arange(0.0, 10.0, 0.005)
        tr = Transient(t, np.exp(-t / 1.5))
        out = convolve_irf(tr, IRF)
        before = tr.intensity.sum() * 0.005
        after = out.intensity.sum() * 0.005
        assert after == pytest.approx(before, rel=1e-9)

    def test_emg_oracle_pointwise(self):
        # the residual against the closed form is the jump-sampling artifact
        # at t = 0 and shrinks linearly with the grid step
        errs = {}
        for dt in (0.01, 0.005):
            t = np.arange(0.0, 10.0, dt)
            out = convolve_irf(Transient(t, np.exp(-t / 1.5)), IRF)
            ref = emg_reference(out.time_ns, 1.5, IRF.sigma_ns)
            errs[dt] = np.max(np.abs(out.intensity - ref))
            assert errs[dt] < 1.5 * dt
            # away from the t = 0 jump and the truncated right edge the
            # discrete convolution tracks the closed form tightly
            smooth = (out.time_ns > 1.0) & (out.time_ns < 9.0)
            assert np.max(np.abs(out.intensity[smooth] - ref[smooth])) < 1e-4
        assert errs[0.005] < 0.65 * errs[0.01]

    def test_undersampled_grid_rejected(self):
        t = np.arange(0.0, 10.0, 0.5)
        with pytest.raises(ValueError):
            convolve_irf(Transient(t, np.exp(-t)), IRF)

    @pytest.mark.parametrize("fwhm", [0.0, -0.35, math.nan, math.inf])
    def test_fwhm_must_be_finite_and_positive(self, fwhm):
        with pytest.raises(ValueError, match="finite and > 0"):
            Irf(fwhm)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=20, max_size=200))
def test_convolution_preserves_counts_property(values):
    dt = 0.05
    t = np.arange(len(values)) * dt
    tr = Transient(t, np.array(values))
    out = convolve_irf(tr, IRF)
    assert out.intensity.sum() * dt == pytest.approx(tr.intensity.sum() * dt,
                                                     rel=1e-9, abs=1e-12)


class TestJitter:
    def test_sample_std_matches_fwhm(self):
        rng = substream(2, 0)
        n = 10 ** 6
        times = 5.0 + rng.normal(0.0, IRF.sigma_ns, n)
        # std-of-std 3 sigma band
        se = IRF.sigma_ns / math.sqrt(2 * n)
        assert abs(times.std() - 0.35 / 2.3548) < 3 * se + 1e-6

    def test_jitter_histogram_matches_convolution(self):
        rng = substream(3, 0)
        decay = rng.exponential(1.5, 200000)
        jittered = decay + rng.normal(0.0, IRF.sigma_ns, decay.size)
        bins = np.arange(-1.0, 8.0, 0.1)
        counts, _ = np.histogram(jittered, bins=bins)
        centers = 0.5 * (bins[:-1] + bins[1:])
        expected = decay.size * 0.1 / 1.5 * emg_reference(centers, 1.5, IRF.sigma_ns)
        z = (counts - expected) / np.sqrt(np.maximum(expected, 1.0))
        assert np.mean(z[expected > 25] ** 2) < 1.5


class TestSpectrum:
    def test_default_lines(self):
        spectrum = TransitionSpectrum.default()
        assert spectrum.line_for(0, "1X").center_nm == 878.0
        assert spectrum.line_for(0, "2X").center_nm == 879.0
        assert spectrum.line_for(0, "3X").center_nm == 863.0

    def test_mev_to_nm_conversion(self):
        # 1.5 meV at 878 nm: dlambda = lambda^2 dE / (h c) = 0.9327 nm FWHM
        line = SpectralLine(878.0, 1.5)
        fwhm_nm = line.sigma_nm * 2.3548200450309493
        assert fwhm_nm == pytest.approx(878.0 ** 2 * 1.5 / 1.23984198e6, rel=1e-6)

    def test_emitter_shifts(self):
        spectrum = TransitionSpectrum(TransitionSpectrum.default().lines,
                                      {1: 2.0})
        assert spectrum.line_for(1, "1X").center_nm == 880.0
        assert spectrum.line_for(1, "3X") == SpectralLine(865.0, 1.1)
        assert spectrum.line_for(0, "1X").center_nm == 878.0

    def test_unknown_transition(self):
        with pytest.raises(KeyError):
            TransitionSpectrum.default().line_for(0, "4X")

    @pytest.mark.parametrize("center,width,match", [
        (0.0, 0.8, "wavelength"), (math.nan, 0.8, "wavelength"),
        (math.inf, 0.8, "wavelength"), (878.0, -0.1, "linewidth"),
        (878.0, math.nan, "linewidth"), (878.0, math.inf, "linewidth")])
    def test_line_must_be_finite(self, center, width, match):
        # a NaN linewidth would draw NaN wavelengths, which every frame
        # counts as overflow
        with pytest.raises(ValueError, match=f"{match} must be finite"):
            SpectralLine(center, width)

    def test_wavelengths_match_per_photon_draws(self):
        # one draw per broadened photon in photon order, none for a delta line
        lines = dict(TransitionSpectrum.default().lines,
                     **{"2X": SpectralLine(879.0, 0.0)})
        spectrum = TransitionSpectrum(lines, {3: 1.5})
        rng = substream(11, 0)
        recs = np.zeros(200, dtype=PHOTON_DTYPE)
        recs["transition"] = rng.choice(["1X", "2X", "3X"], 200)
        recs["emitter_id"] = rng.choice([0, 3, 7], 200)
        ref_rng = substream(12, 0)
        expected = []
        for eid, label in zip(recs["emitter_id"].tolist(), recs["transition"]):
            line = spectrum.line_for(eid, label)
            expected.append(line.center_nm if line.sigma_nm == 0
                            else ref_rng.normal(line.center_nm, line.sigma_nm))
        got = sample_wavelengths(recs, spectrum, substream(12, 0))
        assert np.array_equal(got, expected)


class TestCcdFrame:
    def test_count_conservation_with_overflow(self):
        recs = photons(("1X", 0.0, 0.0), ("2X", 1.0, 0.0),
                       ("1X", 500.0, 0.0))  # out of frame
        frame = render_spatial_spectral(recs, np.linspace(-5, 5, 11),
                                        np.linspace(870, 885, 16),
                                        TransitionSpectrum.default(),
                                        substream(8, 0))
        assert frame.counts.sum() + frame.overflow == len(recs)
        assert frame.overflow >= 1

    def test_empty_stream_zero_frame(self):
        frame = render_spatial_spectral(photons(), np.linspace(-5, 5, 11),
                                        np.linspace(870, 885, 16),
                                        TransitionSpectrum.default(),
                                        substream(9, 0))
        assert np.all(frame.counts == 0.0) and frame.overflow == 0

    def test_rows_encode_position(self):
        spectrum = TransitionSpectrum(lines={"1X": SpectralLine(878.0, 0.0)})
        recs = photons(("1X", -3.2, 0.0))
        frame = render_spatial_spectral(recs, np.linspace(-5, 5, 11),
                                        np.linspace(870, 885, 16),
                                        spectrum, substream(10, 0))
        row = np.nonzero(frame.counts.sum(axis=1))[0]
        assert frame.row_edges_um[row[0]] <= -3.2 <= frame.row_edges_um[row[0] + 1]

    def test_monotonic_axes_required(self):
        with pytest.raises(ValueError):
            CcdFrame(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0]),
                     np.zeros((2, 1)))


class TestPlImage:
    def test_single_photon_unit_integral(self):
        img = render_pl_image([1.0], [-0.5], [1], 0.4, 0.1, ((-5, 5), (-5, 5)))
        assert img.intensity.sum() == pytest.approx(1.0, abs=1e-6)

    def test_close_emitters_unresolved(self):
        # two emitters closer than the PSF merge into one blob
        img = render_pl_image([-0.1, 0.1], [0.0, 0.0], [50, 50], 0.5, 0.1,
                              ((-4, 4), (-4, 4)))
        profile = img.intensity.sum(axis=0)
        peaks = [i for i in range(1, profile.size - 1)
                 if profile[i] > profile[i - 1] and profile[i] > profile[i + 1]]
        assert len(peaks) == 1

    def test_far_emitters_resolved(self):
        img = render_pl_image([-2.0, 2.0], [0.0, 0.0], [50, 50], 0.3, 0.1,
                              ((-4, 4), (-4, 4)))
        profile = img.intensity.sum(axis=0)
        peaks = [i for i in range(1, profile.size - 1)
                 if profile[i] > profile[i - 1] and profile[i] > profile[i + 1]]
        assert len(peaks) == 2

    def test_total_matches_photon_count(self):
        img = render_pl_image([0.5, -1.0], [1.0, 0.0], [7, 5], 0.4, 0.2,
                              ((-6, 6), (-6, 6)))
        assert img.intensity.sum() == pytest.approx(12.0, abs=1e-6)

    def test_matches_per_position_oracle_bitwise(self, monkeypatch):
        rng = np.random.default_rng(13)
        for case in range(200):
            x0, y0 = rng.uniform(-5.0, 5.0, 2)
            pixel = float(rng.choice([0.1, 0.25, 0.4]))
            nx, ny = rng.integers(1, 25, 2)  # mostly non-square
            extent = ((x0, x0 + nx * pixel), (y0, y0 + ny * pixel))
            # zero and one emitter, then emitters drawn from a pool of
            # positions that shares x or y values, puts several emitters at
            # one position and reaches outside the image
            n = case if case < 2 else int(rng.integers(2, 400))
            pool = rng.uniform(-8.0, 8.0, (int(rng.integers(1, 150)), 2))
            if case % 2:
                pool = np.round(pool, 0)
            xy = pool[rng.integers(0, len(pool), n)]
            if case % 5 == 2:
                xy[::3] = 0.0
                xy[1::3] = -0.0
            # whole counts, zero among them, or fractional weights
            counts = (rng.integers(0, 60, n) if case % 4 else
                      rng.uniform(0.0, 60.0, n))
            # blocks of one emitter, of seven (the last one short) and of
            # the default size
            block = [1, 7 * nx * ny + 3, detector.SPLAT_BLOCK][case % 3]
            monkeypatch.setattr(detector, "SPLAT_BLOCK", block)
            psf = float(rng.uniform(0.1, 1.0))
            got = render_pl_image(*xy.T, counts, psf, pixel, extent)
            want = reference_pl_image(*xy.T, counts, psf, pixel, extent)
            assert got.intensity.tobytes() == want.tobytes(), case

    def test_more_positions_than_one_block(self):
        # fig5's 40 x 40 image: SPLAT_BLOCK holds 40 emitters, so the
        # default block splits 300 emitters four ways
        rng = np.random.default_rng(14)
        x, y = rng.uniform(0.0, 10.0, (2, 300))
        counts = np.bincount(rng.integers(0, 300, 2000), minlength=300)
        extent = ((0.0, 10.0), (0.0, 10.0))
        assert detector.SPLAT_BLOCK // 1600 < 300
        got = render_pl_image(x, y, counts, 0.4, 0.25, extent)
        want = reference_pl_image(x, y, counts, 0.4, 0.25, extent)
        assert got.intensity.tobytes() == want.tobytes()

    def test_one_pixel_image_sums_in_order(self):
        # a one-pixel image puts a whole block of emitters on one pixel,
        # where numpy's pairwise sum would round differently from a sum in
        # emitter order
        rng = np.random.default_rng(17)
        x, y = rng.uniform(-1.0, 1.0, (2, 300))
        counts = rng.uniform(0.0, 1.0, 300) ** 8 * 1e6
        extent = ((-0.25, 0.25), (-0.25, 0.25))
        got = render_pl_image(x, y, counts, 0.4, 0.5, extent)
        want = reference_pl_image(x, y, counts, 0.4, 0.5, extent)
        assert got.intensity.tobytes() == want.tobytes()

    def test_temporaries_bounded(self):
        # a stack of 5,000 emitters' 40 x 40 splats would be 64 MB
        rng = np.random.default_rng(15)
        x, y = rng.uniform(0.0, 10.0, (2, 5000))
        tracemalloc.start()
        try:
            render_pl_image(x, y, np.ones(5000), 0.4, 0.25,
                            ((0.0, 10.0), (0.0, 10.0)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("extent", [((0.0, 10.0), (-1.5, 1.5)),
                                        ((0.0, 9.0), (-1.0, 1.5))])
    def test_pixel_must_tile_extent(self, extent):
        # 3 um pixels from x = 0 end at 9 um: an emitter at 9.5 um, inside a
        # 10 um extent, would fall off the image with no error.  The second
        # extent fails on its y axis.
        with pytest.raises(ValueError, match="whole pixels"):
            render_pl_image([9.5], [0.0], [1], 0.4, 3.0, extent)

    @pytest.mark.parametrize("extent", [((10.0, 0.0), (-5.0, 5.0)),
                                        ((0.0, 10.0), (5.0, -5.0)),
                                        ((0.0, 0.0), (-5.0, 5.0)),
                                        ((0.0, math.nan), (-5.0, 5.0))])
    def test_extent_must_increase(self, extent):
        with pytest.raises(ValueError, match="increasing"):
            render_pl_image(*one_emitter(), 0.4, 0.25, extent)

    @pytest.mark.parametrize("bad", [
        # (x, y, counts) columns: a position that is not finite
        ([1.0, math.nan], [0.0, 0.0], [1, 1]),
        ([1.0, 1.0], [0.0, math.inf], [1, 1]),
        ([1.0, -math.inf], [0.0, 0.0], [1, 1]),
        # columns of unequal length, or not 1-d
        ([1.0, 2.0], [0.0], [1, 1]), ([1.0], [0.0], [1, 1]),
        ([[1.0]], [[0.0]], [[1]]),
        # a count that is negative or not finite
        ([1.0], [0.0], [-1]), ([1.0], [0.0], [math.nan]),
        ([1.0], [0.0], [math.inf])])
    def test_non_finite_position_rejected(self, bad):
        # a NaN or infinite position or count would give a NaN image,
        # a negative count a negative intensity, and columns of unequal
        # length would pair an emitter with another's values
        with pytest.raises(ValueError, match="emitter columns"):
            render_pl_image(*bad, 0.4, 0.25, ((0.0, 10.0), (-5.0, 5.0)))

    @pytest.mark.parametrize("psf,pixel,match", [
        (0.0, 0.25, "PSF"), (math.nan, 0.25, "PSF"), (math.inf, 0.25, "PSF"),
        (0.4, -0.25, "pixel"), (0.4, math.nan, "pixel"),
        (0.4, math.inf, "pixel")])
    def test_psf_and_pixel_must_be_finite(self, psf, pixel, match):
        # a NaN PSF would give an all-NaN image and an infinite one an
        # all-zero image
        with pytest.raises(ValueError, match=f"{match}.*finite and > 0"):
            render_pl_image(*one_emitter(), psf, pixel,
                            ((0.0, 10.0), (-5.0, 5.0)))


class TestErf:
    @staticmethod
    def grid():
        """|x| on a dense grid over [0, 7], the 20 doubles on each side of
        each region bound of fdlibm's erf (6 among them, from where `_erf`
        takes the sign), tiny, subnormal and large values."""
        rng = np.random.default_rng(16)
        bounds = np.array((2.0 ** -1015, 2.0 ** -28, 0.84375, 1.25,
                           2.8571434020996094, 6.0))
        bits = bounds.view(np.int64)
        near = (bits[:, None] + np.arange(-20, 20)).view(np.float64)
        return np.concatenate((
            np.linspace(0.0, 7.0, 2801), rng.uniform(0.0, 7.0, 1000),
            near.ravel(), np.geomspace(5e-324, 1e-7, 120),
            [2.0 ** -28, 1e10, 1e300, np.finfo(float).max, math.inf]))

    def test_erf_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        x = self.grid()
        got = detector._erf(x)
        with mpmath.workprec(120):
            for xi, gi in zip(x.tolist(), got.tolist()):
                exact = mpmath.erf(xi)
                ulp = math.ulp(float(exact))
                assert abs(mpmath.mpf(gi) - exact) <= ulp, xi

    def test_erf_is_math_erf_bit_for_bit(self):
        x = self.grid()
        x = np.concatenate((x, -x))
        want = np.array([math.erf(xi) for xi in x.tolist()])
        assert detector._erf(x).tobytes() == want.tobytes()

    def test_erf_is_odd_and_keeps_the_sign_of_zero(self):
        x = self.grid()
        assert detector._erf(-x).tobytes() == (-detector._erf(x)).tobytes()
        zeros = detector._erf(np.array([0.0, -0.0]))
        assert zeros.tolist() == [0.0, 0.0]
        assert np.signbit(zeros).tolist() == [False, True]
        assert detector._erf(np.array([-6.0, -1e300, 6.0])).tolist() == [
            -1.0, -1.0, 1.0]

    def test_erf_keeps_shape(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        got = detector._erf(x)
        assert got.shape == (3, 4)
        assert got.ravel().tobytes() == detector._erf(x.ravel()).tobytes()


class TestExports:
    def test_pgm_binary_round_trip(self, tmp_path):
        grid = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "frame.pgm"
        write_pgm(path, grid)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n65535\n")
        pixels = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
        assert list(pixels) == [0, 16384, 32768, 65535]

    def test_axes_csv(self, tmp_path):
        path = tmp_path / "axes.csv"
        write_axes_csv(path, [1.0, 2.0], [870.0])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "axis,index,value"
        assert len(lines) == 4
