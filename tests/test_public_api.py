"""The names `import sawsps` offers.  A name added to the package or dropped
from it fails here, so every change to the public API is a reviewed diff of
this list."""

import inspect

import sawsps

PUBLIC = [
    "CascadeModel", "CcdFrame", "G2Histogram", "Irf", "LaserSpot",
    "PHOTON_DTYPE", "RiseFallFit", "SawWave", "ScenarioConfig", "SiteField",
    "Transient", "TransitionSpectrum", "convolve_irf", "fit_rise_fall",
    "g2_histogram", "initial_loading", "list_scenarios", "onset_delay_curve",
    "onset_time", "poisson_pmf", "poisson_tail", "powerlaw_exponent",
    "render_pl_image", "render_spatial_spectral", "run_device",
    "run_scenario", "sample_cascade_from_loads", "solve_cascade_analytic",
    "time_integrated_intensity",
]


def test_public_names_are_pinned():
    # submodules are attributes of the package once imported; they are not
    # names of its API
    names = sorted(name for name, value in vars(sawsps).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC
    assert len(PUBLIC) == 29
