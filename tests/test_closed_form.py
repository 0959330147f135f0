"""Example 2's settling time in closed form, path by path.

For x > 0 the closed loop x' = (1 + x^2) cbrt(arctan x) (xi/2 - 1) becomes,
in v = (arctan x)^(2/3), v' = (2/3)(xi/2 - 1).  Under held noise v is a
cumulative sum of the path's noise cells, so each path's settling time
follows from its ``sample_path`` noise alone, with no RK4 step.  The oracle
tests every node as the kernel tests it: v at node j h, clamped to 0 from
the first node at or under arctan(eps_absorb)^(2/3) (the zero solution),
and the settling time is the node after the last one outside the
arctan(eps_settle)^(2/3) level, NaN when that is the last node.
"""

import math

import numpy as np
import pytest

import settlekit as sk
from settlekit.integrate import steps_per_cell

SEED = 2024
NOISE = sk.make_filtered_white_noise(0.5, 1.0, 1)


def closed_form_settle_times(x0: float, cfg: sk.McConfig) -> np.ndarray:
    """Each path's settling time on example2-closed from x0 > 0 under
    scalar noise, from v_j = arctan(x0)^(2/3) + (2/3) h sum_{k<j}
    (xi[k // m]/2 - 1)."""
    integ = cfg.integrator
    h, n_steps = integ.h, round(integ.horizon / integ.h)
    m = steps_per_cell(h, cfg.h_noise)
    v_absorb = math.atan(integ.eps_absorb) ** (2.0 / 3.0)
    v_settle = math.atan(integ.eps_settle) ** (2.0 / 3.0)
    times = np.empty(cfg.n_paths)
    for i in range(cfg.n_paths):
        xi = sk.sample_path(NOISE, 0.0, integ.horizon, cfg.h_noise,
                            sk.path_seed(cfg.master_seed, i)).values[:, 0]
        rate = (2.0 / 3.0) * h * (xi[np.arange(n_steps) // m] / 2.0 - 1.0)
        v = math.atan(x0) ** (2.0 / 3.0) + np.concatenate([[0.0], np.cumsum(rate)])
        absorbed = np.flatnonzero(v <= v_absorb)
        if absorbed.size:
            v[absorbed[0]:] = 0.0
        outside = np.flatnonzero(v > v_settle)
        last = outside[-1] if outside.size else -1
        times[i] = (last + 1) * h if last < n_steps else np.nan
    return times


def settle_times(h: float, horizon: float, n_paths: int, absorb: bool) -> tuple:
    """(RK4's settle times, the closed form's) on example2-closed from x0 = 3
    under filtered noise 0.5/1.0."""
    cfg = sk.McConfig(n_paths=n_paths, master_seed=SEED, h_noise=0.01,
                      integrator=sk.IntegratorConfig(
                          h=h, horizon=horizon, absorb_at_origin=absorb))
    stats = sk.estimate_settling(sk.get_model("example2-closed"), NOISE,
                                 np.array([3.0]), cfg)
    return stats.settle_times, closed_form_settle_times(3.0, cfg)


@pytest.mark.parametrize("h", [1e-3, 2e-3, 2.5e-3])
def test_absorbed_study_settles_at_the_closed_form_node(h):
    # criterion 09's study: every path is absorbed, none is censored, and
    # RK4's settling node is the closed form's
    rk4, oracle = settle_times(h, 20.0, 500, absorb=True)
    assert not np.isnan(oracle).any()
    np.testing.assert_array_equal(rk4, oracle)


@pytest.mark.parametrize("h,paths", [
    (1e-3, {510: (8.319, 1.496)}),
    (2.5e-3, {510: (8.32, 1.4975), 870: (1.76, 1.7575)}),
], ids=["h=1e-3", "h=2.5e-3"])
def test_without_absorption_rk4_leaves_the_origin_on_pinned_paths(h, paths):
    # settle-ex2-live's config: a cube-root gain is not Osgood at 0, and
    # while xi > 2 RK4 can follow a solution that leaves the origin, so on
    # these paths it settles later than the zero solution does
    rk4, oracle = settle_times(h, 10.0, 1000, absorb=False)
    differ = np.flatnonzero(rk4 != oracle)
    assert set(differ) == set(paths)
    assert np.all(rk4[differ] > oracle[differ])
    for i, (rk4_time, oracle_time) in paths.items():
        assert rk4[i] == pytest.approx(rk4_time, abs=1e-9)
        assert oracle[i] == pytest.approx(oracle_time, abs=1e-9)
