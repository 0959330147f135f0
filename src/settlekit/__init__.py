"""settlekit: simulate randomly forced nonlinear systems and certify
finite-time settling.

Subpackages follow the pipeline: ``noise`` builds and samples disturbance
processes, ``systems`` holds the models and structural checks, ``integrate``
runs pathwise RK4 with settling detection, ``certify`` verifies Lyapunov
certificates and evaluates settling bounds and decay envelopes, and
``montecarlo`` aggregates batches of paths, and ``parallel`` splits a
study's paths across forked worker processes.  The ``settlekit`` CLI drives
everything from a JSON config, and ``reproduce_figure`` runs it on the
built-in demonstration configs.
"""

from .certify import (Certificate, Envelope, PowerLaw, fit_constants,
                      settling_bound, theta, theta_inverse, verify_drift,
                      verify_sandwich)
from .cli import reproduce_figure
from .errors import (ConfigError, ConstantConditionError, EvaluatorError,
                     RateIntegralError)
from .integrate import (IntegratorConfig, Trajectory, check_integral_form,
                        integrate_path, uniqueness_probe)
from .montecarlo import (McConfig, SettlingStats, envelope_coverage,
                         estimate_settling, estimate_stability_probability)
from .noise import (NoisePath, NoiseProcess, check_l1_bound, check_wlln,
                    estimate_mean_square, make_filtered_white_noise,
                    make_random_phase_cosine, path_seed, sample_path,
                    zero_process)
from .systems import (ConditionReport, Modulus, SystemModel, check_origin,
                      check_osgood, check_osgood_divergence, get_model,
                      make_example1, make_example2, signed_power,
                      stabilizing_controller)

__version__ = "0.1.0"
