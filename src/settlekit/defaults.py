"""Central defaults table.

Every tunable threshold used by the toolkit and its CLI lives here, so a
report produced with defaults can be traced back to one place.  The README
mirrors this table.
"""

# Integrator
STEP = 1e-3                    # RK4 step h
HORIZON = 10.0                 # integration horizon
EPS_SETTLE = 1e-4              # settling ball radius
EPS_ABSORB_MIN = 1e-6          # lower bound of the absorption ball
BLOWUP_THRESHOLD = 1e12        # per-component magnitude that aborts a path

# Noise sampling
H_NOISE = 1e-2                 # noise grid step (must be an integer multiple of STEP)

# Statistics
N_PATHS = 100                  # Monte Carlo paths of settle (mc.n_paths)
CONFIDENCE_Z = 1.959963984540054   # two-sided 95% normal quantile
MIN_PATHS_FOR_BOUND = 100      # n_paths needed before a settling-bound check
SETTLED_FRACTION_THRESHOLD = 0.99

# Verification tolerances
SAMPLED_INEQUALITY_TOL = 1e-6  # sampled inequality margins

# Certify command: each sampled check draws this many states, uniform in the
# ball of this radius, plus fixed axis and diagonal points
CERTIFY_BOX_RADIUS = 5.0
CERTIFY_SAMPLES = 4000

# Noise-check command
NOISE_CHECK_PATHS = 200
NOISE_CHECK_HORIZON = 50.0
WLLN_DELTA = 0.1
WLLN_FRACTION_THRESHOLD = 0.05
L1_T_MIN = 1.0

# Divergence heuristic for the Osgood integrals: one decade of delta must add
# at least this much for the integral to be called diverging (a logarithmic
# integrand adds ln 10 ~ 2.3 per decade; convergent families decay geometrically).
DIVERGENCE_INCREMENT_FLOOR = 1e-2
