"""Dimension-dependent velocity and the shrinking-dimension horizon model."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lrcone.cosmo import (
    BranchingConvention,
    HorizonModel,
    branching_factor,
    dimension_scan,
    horizon_distance,
    lightcone_boundary,
    v_lr_dimension,
)
from lrcone.lattice import LatticeSpec, build_decorated_lattice
from lrcone.lrbound import Couplings
from lrcone.pathcount import centered_axis_link
from lrcone.velocity import optimize_kappa

from reference import horizon_radius_quadrature

HALF = Couplings(g=0.5, J=0.5)

AXIS = BranchingConvention.AXIS_PAIRS
DEG = BranchingConvention.DEGREES


# ---------------------------------------------------------------------------
# Branching factor.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "D,axis_pairs,degrees",
    [(1, 0, 0), (2, 8, 8), (3, 24, 16), (4, 48, 24), (10, 360, 72)],
)
def test_branching_factor_values(D, axis_pairs, degrees):
    assert branching_factor(D, AXIS) == axis_pairs
    assert branching_factor(D, DEG) == degrees


def test_degrees_convention_matches_built_lattice():
    # Two-step continuations from a link on the built 3D lattice: each of the
    # 2(D-1) = 4 adjacent plaquettes continues to its 4 links.
    lat = build_decorated_lattice(LatticeSpec(dimension=3, extent=4, boundary="periodic"))
    link = centered_axis_link(lat)
    continuations = sum(lat.degree(p) for p in lat.neighbors[link])
    assert continuations == branching_factor(3, DEG) == 16


def test_convention_ratio_is_sqrt_half_d():
    for D in (2.0, 3.0, 10.0, 1e4):
        direct = v_lr_dimension(D, HALF, AXIS) / v_lr_dimension(D, HALF, DEG)
        assert direct == pytest.approx(math.sqrt(D / 2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Dimension-dependent velocity.
# ---------------------------------------------------------------------------


def test_reduces_to_planar_velocity_at_dimension_two():
    rng = np.random.default_rng(20240817)
    for _ in range(10):
        g, J = rng.uniform(0.1, 4.0, size=2)
        cpl = Couplings(g=float(g), J=float(J))
        for conv in (AXIS, DEG):
            assert v_lr_dimension(2.0, cpl, conv) == pytest.approx(
                optimize_kappa(cpl).v_lr, rel=1e-12
            )


def test_velocity_per_dimension_converges_from_below():
    limit = math.e * HALF.coupling_speed
    ratios = [v_lr_dimension(D, HALF, AXIS) / D for D in (2, 5, 20, 100, 1e3, 1e6)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(r < limit for r in ratios)
    assert abs(ratios[-2] - limit) / limit <= 1e-3  # D = 1e3
    assert abs(ratios[-1] - limit) / limit <= 1e-6  # D = 1e6


def test_strict_and_toy_modes_below_threshold():
    # D(t) = 2 (1 - 0.1 t): 1.8 at t = 1, 1 at t = 5, 0.7 at t = 6.5.
    toy, strict = (
        HorizonModel(D_in=2.0, alpha=0.1, couplings=HALF, mode=mode) for mode in ("toy", "strict")
    )
    assert horizon_distance(toy, 0.0, 1.0) == 0.0
    assert horizon_distance(toy, 1.0, 5.0) == 0.0
    with pytest.raises(ValueError, match="strict mode"):
        horizon_distance(strict, 0.0, 1.0)
    for model in (toy, strict):
        with pytest.raises(ValueError, match="D = 1"):
            horizon_distance(model, 0.0, 6.5)
    with pytest.raises(ValueError, match="plaquette threshold"):
        v_lr_dimension(1.8, HALF, AXIS)
    with pytest.raises(ValueError, match="finite"):
        v_lr_dimension(math.inf, HALF, AXIS)


def test_velocity_past_float_range_is_refused():
    # b = 4 D (D - 1) overflows at D = 1e200; 8 (D - 1) does not.
    with pytest.raises(ValueError, match="past the float range"):
        v_lr_dimension(1e200, HALF, AXIS)
    assert math.isfinite(v_lr_dimension(1e200, HALF, DEG))
    with pytest.raises(ValueError, match="past the float range"):
        dimension_scan([2.0, 1e200], HALF)


def test_dimension_scan_rows():
    rows = dimension_scan([2, 3, 10], HALF)
    assert [r[0] for r in rows] == [2.0, 3.0, 10.0]
    assert rows[0][1] == rows[0][2] == pytest.approx(math.e, rel=1e-12)
    for D, v_axis, v_deg in rows[1:]:
        assert v_axis / v_deg == pytest.approx(math.sqrt(D / 2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Horizon model and distance integral.
# ---------------------------------------------------------------------------


def test_horizon_model_validation():
    with pytest.raises(ValueError, match="D_in"):
        HorizonModel(D_in=0.5, alpha=0.1, couplings=HALF)
    with pytest.raises(ValueError, match="alpha"):
        HorizonModel(D_in=4.0, alpha=-0.1, couplings=HALF)
    with pytest.raises(ValueError, match="mode"):
        HorizonModel(D_in=4.0, alpha=0.1, couplings=HALF, mode="other")
    with pytest.raises(ValueError, match="convention"):
        HorizonModel(D_in=4.0, alpha=0.1, couplings=HALF, convention="axis_pairs")


def test_dimension_track_and_crossings():
    m = HorizonModel(D_in=4.0, alpha=0.1, couplings=HALF)
    assert m.dimension(0.0) == 4.0
    assert m.dimension(5.0) == pytest.approx(2.0, rel=1e-15)
    assert m.time_at_dimension(2.0) == pytest.approx(5.0, rel=1e-15)
    assert m.time_at_dimension(1.0) == pytest.approx(7.5, rel=1e-15)
    frozen = HorizonModel(D_in=4.0, alpha=0.0, couplings=HALF)
    assert frozen.time_at_dimension(2.0) == math.inf
    assert HorizonModel(D_in=2.0, alpha=0.1, couplings=HALF).time_at_dimension(2.0) == 0.0


def test_horizon_distance_trivial_and_linear_cases():
    m = HorizonModel(D_in=5.0, alpha=0.0, couplings=HALF, mode="strict")
    assert horizon_distance(m, 2.0, 2.0) == 0.0
    v5 = v_lr_dimension(5.0, HALF, AXIS)
    assert horizon_distance(m, 1.0, 4.0) == pytest.approx(3.0 * v5, rel=1e-10)


def test_horizon_distance_matches_linearized_closed_form():
    # Large D_in: v(D) = e c sqrt(D (D-1)) differs from e c D by O(1/D).
    D_in, alpha, t_f = 1e9, 0.01, 10.0
    m = HorizonModel(D_in=D_in, alpha=alpha, couplings=HALF)
    closed = math.e * HALF.coupling_speed * D_in * (t_f - 0.5 * alpha * t_f**2)
    assert horizon_distance(m, 0.0, t_f) == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize("mode", ["toy", "strict"])
def test_horizon_at_planar_dimension_with_alpha_zero_is_linear(mode):
    # D stays at 2 forever, where the velocity is the planar e, not zero.
    m = HorizonModel(D_in=2.0, alpha=0.0, couplings=HALF, mode=mode)
    assert horizon_distance(m, 1.0, 4.0) == pytest.approx(3.0 * math.e, rel=1e-12)


def test_horizon_strict_mode_rejects_threshold_crossing():
    m = HorizonModel(D_in=4.0, alpha=0.1, couplings=HALF, mode="strict")
    assert horizon_distance(m, 0.0, 4.9) > 0
    with pytest.raises(ValueError, match="strict mode"):
        horizon_distance(m, 0.0, 5.1)


def test_horizon_toy_mode_saturates_past_threshold():
    m = HorizonModel(D_in=4.0, alpha=0.1, couplings=HALF, mode="toy")
    t2 = m.time_at_dimension(2.0)
    r_at_crossing = horizon_distance(m, 0.0, t2)
    assert horizon_distance(m, 0.0, t2 + 1.0) == pytest.approx(r_at_crossing, rel=1e-12)
    assert horizon_distance(m, t2 + 0.5, t2 + 1.0) == 0.0


def test_horizon_rejects_queries_past_dimension_one():
    m = HorizonModel(D_in=4.0, alpha=0.1, couplings=HALF, mode="toy")
    with pytest.raises(ValueError, match="D = 1"):
        horizon_distance(m, 0.0, 8.0)
    with pytest.raises(ValueError, match="the end time 1.0 is before the start time 2.0"):
        horizon_distance(m, 2.0, 1.0)


@pytest.mark.parametrize("t_i,t_f", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0)])
@pytest.mark.parametrize("alpha", [0.0, 0.01])
def test_horizon_rejects_non_finite_times(t_i, t_f, alpha):
    m = HorizonModel(D_in=100.0, alpha=alpha, couplings=HALF)
    with pytest.raises(ValueError, match="must be finite"):
        horizon_distance(m, t_i, t_f)
    with pytest.raises(ValueError, match="must be finite"):
        lightcone_boundary(m, t_i, t_f, 5)


# ---------------------------------------------------------------------------
# Light-cone boundary sampling and CSV export.
# ---------------------------------------------------------------------------


def test_lightcone_boundary_shape_and_monotonicity():
    m = HorizonModel(D_in=6.0, alpha=0.02, couplings=HALF)
    samples = lightcone_boundary(m, 0.0, 10.0, 21)
    assert len(samples) == 21
    assert samples[0] == (0.0, 0.0, 0.0)
    for col, conv in ((1, AXIS), (2, DEG)):
        radii = [row[col] for row in samples]
        assert all(b >= a for a, b in zip(radii, radii[1:]))
        r_end = horizon_distance(dataclasses.replace(m, convention=conv), 0.0, 10.0)
        assert radii[-1] == pytest.approx(r_end, rel=1e-9)


def test_lightcone_boundary_linear_when_alpha_zero():
    m = HorizonModel(D_in=5.0, alpha=0.0, couplings=HALF)
    v5 = v_lr_dimension(5.0, HALF, AXIS)
    for t, r, _ in lightcone_boundary(m, 0.0, 6.0, 13):
        assert r == pytest.approx(v5 * t, rel=1e-8, abs=1e-12)


def test_lightcone_boundary_ends_exactly_at_t_end():
    # t_end is the D = 1 crossing; t_end * 23 / 23 rounds one ulp past it.
    m = HorizonModel(D_in=2.0, alpha=0.03813175971493311, couplings=HALF)
    t_end = 13.112429212234616
    samples = lightcone_boundary(m, 0.0, t_end, 24)
    assert samples[-1] == (t_end, 0.0, 0.0)


@pytest.mark.parametrize(
    "D_in,alpha,t_end",
    [
        (1e300, 1e-3, 10.0),  # u * u overflows in the axis_pairs mean: nan
        (1e150, 0.0, 1e158),  # each of two panels is finite, their sum is not
    ],
)
def test_horizon_radius_past_float_range_is_refused(D_in, alpha, t_end):
    m = HorizonModel(D_in=D_in, alpha=alpha, couplings=HALF)
    with pytest.raises(ValueError, match="past the float range"):
        horizon_distance(m, 0.0, t_end)
    with pytest.raises(ValueError, match="past the float range"):
        lightcone_boundary(m, 0.0, t_end, 3)


def test_lightcone_boundary_validation():
    m = HorizonModel(D_in=5.0, alpha=0.0, couplings=HALF)
    with pytest.raises(ValueError, match="steps"):
        lightcone_boundary(m, 0.0, 1.0, 1)
    with pytest.raises(ValueError, match="the end time 0.0 is before the start time 1.0"):
        lightcone_boundary(m, 1.0, 0.0, 5)


@pytest.mark.parametrize(
    "alpha,t_start,t_end,steps",
    [
        (0.0, 0.0, 1e308, 101),  # 2 * 1e308 / 100 overflows to inf
        (1e-305, 0.0, 7e304, 10_000),  # D(t) >= 1 throughout, yet the grid overflows
        (0.0, -1e308, 1e308, 2),  # the span itself overflows: the first sample is nan
    ],
)
def test_lightcone_boundary_refuses_a_time_grid_past_float_range(alpha, t_start, t_end, steps):
    m = HorizonModel(D_in=4.0, alpha=alpha, couplings=HALF)
    with pytest.raises(ValueError, match="time grid .* past the float range"):
        lightcone_boundary(m, t_start, t_end, steps)


# ---------------------------------------------------------------------------
# Closed form against the independent quadrature.
# ---------------------------------------------------------------------------


@st.composite
def horizon_cases(draw):
    """A model over D_in in [2, 1e9], alpha in [0, 0.1], and t_i <= t_f inside its domain."""
    D_in = draw(st.floats(min_value=2.0, max_value=1e9))
    alpha = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.1)))
    model = HorizonModel(
        D_in=D_in,
        alpha=alpha,
        couplings=HALF,
        convention=draw(st.sampled_from(BranchingConvention)),
        mode=draw(st.sampled_from(["toy", "strict"])),
    )
    floor = 1.0 if model.mode == "toy" else 2.0
    t_max = min(model.time_at_dimension(floor), 1e6)
    t_f = draw(st.floats(min_value=0.0, max_value=1.0)) * t_max
    t_i = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))) * t_f
    assume(model.dimension(t_f) >= floor)
    return model, t_i, t_f


@given(horizon_cases())
@settings(max_examples=300, deadline=None)
# D_in < 2 at negative times: D(t) runs from 3 down to 2.25, above the threshold.
@example((HorizonModel(1.5, 0.1, HALF, convention=AXIS), -10.0, -5.0))
@example((HorizonModel(1.5, 0.1, HALF, convention=DEG), -10.0, -5.0))
def test_horizon_distance_matches_quadrature(case):
    model, t_i, t_f = case
    value = horizon_distance(model, t_i, t_f)
    reference = horizon_radius_quadrature(
        model.D_in,
        model.alpha,
        t_i,
        t_f,
        g=HALF.g,
        J=HALF.J,
        step=HALF.step_factor,
        convention=model.convention.value,
    )
    assert value == pytest.approx(reference, rel=1e-12, abs=1e-300)


@given(horizon_cases(), st.integers(min_value=2, max_value=40))
@settings(max_examples=100, deadline=None)
def test_lightcone_boundary_monotone_and_ends_at_horizon_distance(case, steps):
    model, _, t_end = case
    col = 1 if model.convention is AXIS else 2
    radii = [row[col] for row in lightcone_boundary(model, 0.0, t_end, steps)]
    assert all(b >= a for a, b in zip(radii, radii[1:]))
    assert radii[-1] == pytest.approx(horizon_distance(model, 0.0, t_end), rel=1e-12, abs=1e-300)


def _two_pass_rows(model, t_start, t_end, steps):
    """Rows as one accumulation of horizon_distance per convention, over the
    panels lightcone_boundary uses."""
    times = [t_start + (t_end - t_start) * k / (steps - 1) for k in range(steps - 1)]
    times.append(t_end)
    columns = []
    for convention in (AXIS, DEG):
        m = dataclasses.replace(model, convention=convention)
        total, column = 0.0, [0.0]
        for t_prev, t_next in zip(times, times[1:]):
            total += horizon_distance(m, t_prev, t_next)
            column.append(total)
        columns.append(column)
    return list(zip(times, *columns))


def _bits_or_refusal(rows_of):
    try:
        return [tuple(x.hex() for x in row) for row in rows_of()]
    except ValueError as exc:
        return f"refused: {exc}"


def _assert_rows_equal_two_pass_oracle(model, t_start, t_end, steps):
    # The oracle checks the whole interval first, as lightcone_boundary does,
    # so a refusal carries the same message.
    def oracle():
        horizon_distance(model, t_start, t_end)
        return _two_pass_rows(model, t_start, t_end, steps)

    assert _bits_or_refusal(lambda: lightcone_boundary(model, t_start, t_end, steps)) == (
        _bits_or_refusal(oracle)
    )


@given(
    D_in=st.floats(min_value=1.0, max_value=1e9),
    alpha=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.1, exclude_min=True)),
    mode=st.sampled_from(["toy", "strict"]),
    reach=st.floats(min_value=0.0, max_value=1.0),
    lead=st.floats(min_value=0.0, max_value=2.0),
    steps=st.integers(min_value=2, max_value=40),
)
@settings(max_examples=300, deadline=None)
def test_lightcone_boundary_rows_equal_two_pass_oracle(D_in, alpha, mode, reach, lead, steps):
    # t_end runs past the D = 1 crossing, and strict models cross D = 2, so
    # refusals are covered too; t_start runs below 0, where D(t) > D_in.
    model = HorizonModel(D_in=D_in, alpha=alpha, couplings=HALF, mode=mode)
    scale = min(1.5 * model.time_at_dimension(1.0), 1e6)
    t_end = reach * scale
    _assert_rows_equal_two_pass_oracle(model, t_end - lead * scale, t_end, steps)


@pytest.mark.parametrize(
    "D_in,alpha,mode,t_start,t_end,steps",
    [
        (2.0, 0.0, "toy", -1.0, 4.0, 6),  # D stays at 2: the planar e throughout
        (2.0, 0.0, "strict", 0.0, 4.0, 5),
        (2.0, 0.1, "toy", -3.0, 5.0, 9),  # D = 2 is crossed at t = 0
        (2.0, 0.1, "strict", -3.0, 0.0, 7),
        (2.0, 0.1, "strict", -3.0, 1.0, 7),  # refused
        (1.5, 0.1, "toy", -10.0, 3.0, 8),
        (1.5, 0.0, "toy", 0.0, 2.0, 3),
        (4.0, 0.1, "toy", 0.0, 7.5, 4),  # a panel boundary on the D = 2 crossing, t = 5
        (4.0, 0.1, "strict", 0.0, 7.5, 4),  # refused
    ],
)
def test_lightcone_boundary_rows_equal_two_pass_oracle_examples(
    D_in, alpha, mode, t_start, t_end, steps
):
    model = HorizonModel(D_in=D_in, alpha=alpha, couplings=HALF, mode=mode)
    _assert_rows_equal_two_pass_oracle(model, t_start, t_end, steps)
