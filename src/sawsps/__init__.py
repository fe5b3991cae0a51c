"""Simulator of a surface-acoustic-wave driven single-photon source.

Carriers generated at a laser spot ride the travelling piezoelectric
potential as spatially separated electron/hole pockets, are captured into
dot sites, form excitons and emit cascaded single photons; a detector and
analysis chain reproduces time-resolved, power-dependent and spatially
resolved measurements.
"""

__version__ = "0.1.0"

from .cascade import (CascadeModel, Transient, initial_loading, onset_time,
                      poisson_pmf, poisson_tail, solve_cascade_analytic,
                      time_integrated_intensity)
from .emitter import PHOTON_DTYPE, sample_cascade_from_loads
from .transport import LaserSpot, SawWave, SiteField, run_device
from .detector import (CcdFrame, Irf, TransitionSpectrum, convolve_irf,
                       render_pl_image, render_spatial_spectral)
from .analysis import (G2Histogram, RiseFallFit, fit_rise_fall, g2_histogram,
                       onset_delay_curve, powerlaw_exponent)
from .scenarios import ScenarioConfig, list_scenarios, run_scenario
