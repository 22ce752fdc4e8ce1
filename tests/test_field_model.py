import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nvfourier as nf
from nvfourier.constants import MU0_OVER_2PI_G_UM_PER_MA
from nvfourier.errors import DataFormatError, GeometryError, UnderDeterminedError, ValidationError

from helpers import numeric_gradient_at, save_calibration_csv


def wire_y(current=1.0, anchor=(0.0, 0.0, 0.0), polarity=1):
    return nf.MicrowireModel(anchor_point_um=anchor, direction=[0, 1, 0],
                             current_ma=current, polarity=polarity)


AXIS_MZ = nf.NvAxis([0.0, 0.0, -1.0])

coordinate = st.floats(-5.0, 5.0, allow_nan=False)
vector = st.tuples(coordinate, coordinate, coordinate)
direction = vector.filter(lambda v: np.linalg.norm(v) > 0.1)


def scalar_gradient(wire, point, axis, imaging_axis):
    """gradient_at for one point in Python float arithmetic (np.dot, float ** 2)."""
    e = np.asarray(imaging_axis, dtype=float) / float(np.linalg.norm(imaging_axis))
    d, a = wire.direction, axis.orientation
    rel = np.asarray(point, dtype=float) - wire.anchor_point_um
    rho = rel - np.dot(rel, d) * d
    r2 = float(np.dot(rho, rho))
    e_perp = e - np.dot(e, d) * d
    pref = MU0_OVER_2PI_G_UM_PER_MA * wire.signed_current_ma
    term1 = float(np.dot(a, np.cross(d, e_perp))) / r2
    term2 = -2.0 * float(np.dot(a, np.cross(d, rho))) * float(np.dot(rho, e_perp)) / r2**2
    return pref * (term1 + term2)


class TestFieldAt:
    def test_magnitude_1ma_1um(self):
        # mu0*I/(2*pi*r) with I = 1 mA, r = 1 um evaluates to 2 G
        b = nf.field_at(wire_y(1.0), [1.0, 0.0, 0.0])
        assert np.linalg.norm(b) == pytest.approx(2.0, rel=1e-12)

    def test_direction_right_hand_rule(self):
        # current along +y, point at +x: field points along -z
        b = nf.field_at(wire_y(1.0), [1.0, 0.0, 0.0])
        assert b[2] < 0 and abs(b[0]) < 1e-15 and abs(b[1]) < 1e-15
        b_flipped = nf.field_at(wire_y(1.0, polarity=-1), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(b_flipped, -b, rtol=1e-15)

    def test_zero_current(self):
        b = nf.field_at(wire_y(0.0), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(b, np.zeros(3))

    def test_inverse_r_scaling(self):
        b1 = np.linalg.norm(nf.field_at(wire_y(3.0), [0.7, 0.0, 0.0]))
        b2 = np.linalg.norm(nf.field_at(wire_y(3.0), [1.4, 0.0, 0.0]))
        assert b1 == pytest.approx(2 * b2, rel=1e-12)

    def test_degenerate_geometry(self):
        with pytest.raises(GeometryError):
            nf.field_at(wire_y(1.0), [0.0, 5.0, 0.0])  # on the axis
        with pytest.raises(GeometryError):
            nf.field_at(wire_y(1.0), [1e-9, 0.0, 0.0])

    def test_linearity_in_current(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            point = rng.uniform(-3, 3, 3) + np.array([4.0, 0, 0])
            direction = rng.normal(size=3)
            anchor = rng.uniform(-1, 1, 3)
            current = rng.uniform(0.1, 20)
            w1 = nf.MicrowireModel(anchor, direction, 1.0)
            wc = nf.MicrowireModel(anchor, direction, current)
            np.testing.assert_allclose(
                nf.field_at(wc, point), current * nf.field_at(w1, point), rtol=1e-12
            )


class TestProjection:
    def test_parallel(self):
        axis = nf.NvAxis([0, 0, 1])
        assert nf.project_on_axis([0, 0, 2.0], axis) == pytest.approx(2.0)

    def test_orthogonal(self):
        axis = nf.NvAxis([0, 0, 1])
        assert nf.project_on_axis([2.0, 0, 0], axis) == pytest.approx(0.0, abs=1e-15)

    def test_60_degrees(self):
        axis = nf.NvAxis([0, 0, 1])
        b = 2.0 * np.array([np.sin(np.pi / 3), 0.0, np.cos(np.pi / 3)])
        assert nf.project_on_axis(b, axis) == pytest.approx(1.0, rel=1e-12)

    def test_axis_normalized_on_construction(self):
        axis = nf.NvAxis([1.0, 1.0, 1.0])
        assert np.linalg.norm(axis.orientation) == pytest.approx(1.0, abs=1e-12)


class TestOdmrShift:
    @pytest.mark.parametrize("b,expected", [(1.0, 2.8), (0.0, 0.0), (-1.0, -2.8)])
    def test_values(self, b, expected):
        assert nf.odmr_shift(b) == pytest.approx(expected, rel=1e-15)


class TestGradient:
    def test_13_5_g_per_um(self):
        # 2*I/r^2 at I = 10 mA, r = 1.217 um -> 13.5 G/um
        g = nf.gradient_at(wire_y(10.0), [1.217, 0, 0], AXIS_MZ, [1, 0, 0])
        assert abs(g) == pytest.approx(13.5, rel=0.01)

    def test_zero_current(self):
        assert nf.gradient_at(wire_y(0.0), [1.0, 0, 0], AXIS_MZ, [1, 0, 0]) == 0.0

    def test_polarity_antisymmetry(self):
        g_plus = nf.gradient_at(wire_y(5.0, polarity=1), [1.3, 0, 0.2], AXIS_MZ, [1, 0, 0])
        g_minus = nf.gradient_at(wire_y(5.0, polarity=-1), [1.3, 0, 0.2], AXIS_MZ, [1, 0, 0])
        assert g_plus == pytest.approx(-g_minus, rel=1e-12)

    def test_matches_central_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            anchor = rng.uniform(-0.5, 0.5, 3)
            wdir = rng.normal(size=3)
            wire = nf.MicrowireModel(anchor, wdir, rng.uniform(0.5, 15))
            axis = nf.NvAxis(rng.normal(size=3))
            imaging = rng.normal(size=3)
            point = anchor + rng.uniform(0.5, 4.0, 3)
            # keep clear of the axis for the difference quotient
            rho = nf.field_model._perp_displacement(wire, point)
            if np.linalg.norm(rho) < 0.1:
                continue
            analytic = nf.gradient_at(wire, point, axis, imaging)
            numeric = numeric_gradient_at(wire, point, axis, imaging)
            assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        wire_dir=direction,
        nv_axis=direction,
        imaging=direction,
        anchor=vector,
        points=st.lists(vector, min_size=1, max_size=12),
        polarity=st.sampled_from([1, -1]),
    )
    def test_stack_matches_per_point_bitwise(
        self, wire_dir, nv_axis, imaging, anchor, points, polarity
    ):
        wire = nf.MicrowireModel(anchor, wire_dir, 1.0, polarity)
        axis = nf.NvAxis(nv_axis)
        stack = np.asarray(points)
        rho = nf.field_model._perp_displacement(wire, stack)
        assume(np.all(np.linalg.norm(rho, axis=1) > 1e-3))
        batched = nf.gradient_at(wire, stack, axis, imaging)
        single = np.array([nf.gradient_at(wire, p, axis, imaging) for p in points])
        scalar = np.array([scalar_gradient(wire, p, axis, imaging) for p in points])
        assert batched.shape == (len(points),)
        assert batched.tobytes() == single.tobytes() == scalar.tobytes()
        fields = nf.field_at(wire, stack)
        assert fields.shape == (len(points), 3)
        assert fields.tobytes() == np.array([nf.field_at(wire, p) for p in points]).tobytes()
        projected = nf.project_on_axis(fields, axis)
        assert projected.tobytes() == np.array([nf.project_on_axis(f, axis) for f in fields]).tobytes()
        sampled = nf.sample_field(wire, stack, axis, imaging)
        singles = [nf.sample_field(wire, p, axis, imaging) for p in points]
        for name in ("position_um", "b_projected_g", "gradient_projected_g_per_um", "delta_f_mhz"):
            expected = np.array([getattr(fs, name) for fs in singles])
            assert getattr(sampled, name).tobytes() == expected.tobytes(), name

    def test_dense_stack_matches_scalar_formula(self):
        # pow(r2, 2) and r2 * r2 part in about 7 of 10 000 values, so a dense
        # tilted stack shows whether the batched path kept the scalar power
        rng = np.random.default_rng(7)
        wire = nf.MicrowireModel(rng.normal(size=3), rng.normal(size=3), 1.0)
        axis, imaging = nf.NvAxis(rng.normal(size=3)), rng.normal(size=3)
        points = wire.anchor_point_um + rng.uniform(-5.0, 5.0, (8_000, 3))
        rho = nf.field_model._perp_displacement(wire, points)
        points = points[np.linalg.norm(rho, axis=1) > 1e-3]
        batched = nf.gradient_at(wire, points, axis, imaging)
        scalar = np.array([scalar_gradient(wire, p, axis, imaging) for p in points])
        assert batched.tobytes() == scalar.tobytes()

    def test_scalar_point_gives_float(self):
        g = nf.gradient_at(wire_y(1.0), [1.0, 0.2, 0.3], AXIS_MZ, [1, 0, 0])
        assert type(g) is float

    def test_single_point_field_functions_give_floats(self):
        fs = nf.sample_field(wire_y(1.0), [1.0, 0.2, 0.3], AXIS_MZ, [1, 0, 0])
        assert nf.field_at(wire_y(1.0), [1.0, 0.2, 0.3]).shape == (3,)
        assert type(nf.project_on_axis([0.0, 0.0, 2.0], AXIS_MZ)) is float
        assert type(nf.odmr_shift(np.float64(1.0))) is float
        assert fs.position_um.shape == (3,)
        for value in (fs.b_projected_g, fs.gradient_projected_g_per_um, fs.delta_f_mhz):
            assert type(value) is float

    def test_degenerate_point_in_stack_names_smallest_distance(self):
        stack = [[1.0, 0.0, 0.0], [3e-9, 1.0, 0.0], [0.0, 2.0, 2e-9], [2.0, 0.0, 0.0]]
        with pytest.raises(GeometryError, match=r"point is 2\.000e-09 um from the wire axis"):
            nf.field_at(wire_y(1.0), stack)

    def test_along_wire_is_flat(self):
        g = nf.gradient_at(wire_y(4.0), [1.0, 0, 0], AXIS_MZ, [0, 1, 0])
        assert g == pytest.approx(0.0, abs=1e-15)

    def test_sample_field_consistency(self):
        wire = wire_y(2.0)
        fs = nf.sample_field(wire, [1.5, 0, 0], AXIS_MZ, [1, 0, 0])
        assert fs.delta_f_mhz == pytest.approx(2.8 * fs.b_projected_g, rel=1e-15)

    def test_odmr_chain_polarity_antisymmetry(self):
        for pol in (1, -1):
            wire = wire_y(7.0, polarity=pol)
            df = nf.odmr_shift(nf.project_on_axis(nf.field_at(wire, [2, 0, 0]), AXIS_MZ))
            wire_f = wire_y(7.0, polarity=-pol)
            df_f = nf.odmr_shift(nf.project_on_axis(nf.field_at(wire_f, [2, 0, 0]), AXIS_MZ))
            assert df == pytest.approx(-df_f, rel=1e-12)


def make_synthetic_samples(true_wire, axis, xs, noise=0.0, seed=None):
    samples = []
    rng = np.random.default_rng(seed)
    for x in xs:
        df = nf.odmr_shift(nf.project_on_axis(nf.field_at(true_wire, [x, 0, 0]), axis))
        if noise:
            df *= 1.0 + noise * rng.standard_normal()
        samples.append(nf.CalibrationSample(position_um=[x, 0, 0], delta_f_mhz=df,
                                            sigma_mhz=max(noise * abs(df), 1e-6) or 1e-6))
    return samples


class TestCalibration:
    guess = nf.MicrowireModel([0.0, 0.0, 0.4], [0, 1, 0], 1.0)
    xs = [1.5, 2.0, 2.5, 3.0, 3.5]

    def shifted_truth(self, shift=0.1, scale=1.15):
        samples_dir = nf.field_model._standoff_axis(
            self.guess, [np.array([x, 0.0, 0.0]) for x in self.xs]
        )
        anchor = self.guess.anchor_point_um + shift * samples_dir
        return nf.MicrowireModel(anchor, self.guess.direction, scale * self.guess.current_ma)

    def test_noiseless_roundtrip(self):
        true_wire = self.shifted_truth(0.1, 1.15)
        samples = make_synthetic_samples(true_wire, AXIS_MZ, self.xs)
        fitted, report = nf.calibrate_wire(samples, self.guess, AXIS_MZ)
        assert report.converged
        # left inverse of the forward model: parameters back to 1e-6 relative
        assert report.standoff_shift_um == pytest.approx(0.1, rel=1e-6)
        assert report.current_scale == pytest.approx(1.15, rel=1e-6)
        # standoff recovered well within 0.1%
        assert report.standoff_shift_um == pytest.approx(0.1, rel=1e-3)
        np.testing.assert_allclose(
            fitted.anchor_point_um, true_wire.anchor_point_um, atol=1e-6
        )

    def test_noisy_heldout_gradient(self):
        true_wire = self.shifted_truth(0.1, 1.15)
        held_out = np.array([2.75, 0.0, 0.0])
        g_true = nf.gradient_at(true_wire, held_out, AXIS_MZ, [1, 0, 0])
        errors = []
        for seed in range(30):
            samples = make_synthetic_samples(true_wire, AXIS_MZ, self.xs, noise=0.01, seed=seed)
            fitted, _ = nf.calibrate_wire(samples, self.guess, AXIS_MZ)
            g_fit = nf.gradient_at(fitted, held_out, AXIS_MZ, [1, 0, 0])
            errors.append(abs(g_fit - g_true) / abs(g_true))
        assert max(errors) < 0.05

    def test_underdetermined(self):
        true_wire = self.shifted_truth()
        samples = make_synthetic_samples(true_wire, AXIS_MZ, self.xs[:2])
        with pytest.raises(UnderDeterminedError):
            nf.calibrate_wire(samples, self.guess, AXIS_MZ)

    def test_duplicate_positions_rejected(self):
        true_wire = self.shifted_truth()
        samples = make_synthetic_samples(true_wire, AXIS_MZ, [2.0, 2.0, 3.0])
        with pytest.raises(UnderDeterminedError):
            nf.calibrate_wire(samples, self.guess, AXIS_MZ)

    def test_only_the_jacobian_calls_gradient_at(self, monkeypatch):
        counts = {"gradient_at": 0, "jacobian": 0}
        gradient_at, curve_fit = nf.field_model.gradient_at, nf.field_model.curve_fit

        def counting_gradient_at(*args):
            counts["gradient_at"] += 1
            return gradient_at(*args)

        def counting_curve_fit(model, xdata, ydata, p0, jac):
            def counting_jac(*args):
                counts["jacobian"] += 1
                return jac(*args)

            return curve_fit(model, xdata, ydata, p0, counting_jac)

        monkeypatch.setattr(nf.field_model, "gradient_at", counting_gradient_at)
        monkeypatch.setattr(nf.field_model, "curve_fit", counting_curve_fit)
        samples = make_synthetic_samples(self.shifted_truth(), AXIS_MZ, self.xs)
        _, report = nf.calibrate_wire(samples, self.guess, AXIS_MZ)
        assert report.iterations >= 1 and counts["jacobian"] >= 1
        assert counts["gradient_at"] == counts["jacobian"]


class TestCalibrationCsv:
    def test_roundtrip(self, tmp_path):
        samples = [
            nf.CalibrationSample([1.5, 0.0, 0.0], 3.485, 0.02),
            nf.CalibrationSample([2.0, 0.0, 0.0], 2.692, 0.02),
        ]
        path = tmp_path / "cal.csv"
        save_calibration_csv(path, samples)
        loaded = nf.field_model.load_calibration_csv(path)
        assert len(loaded) == 2
        np.testing.assert_array_equal(loaded[0].position_um, samples[0].position_um)
        assert loaded[1].delta_f_mhz == samples[1].delta_f_mhz

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_um,y_um,z_um,delta_f_MHz,sigma_MHz\n1.0,0.0,0.0,2.5,0.02\n1.5,oops,0.0,2.0,0.02\n")
        with pytest.raises(DataFormatError, match="row 3"):
            nf.field_model.load_calibration_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("x_um,y_um,delta_f_MHz\n1.0,0.0,2.5\n")
        with pytest.raises(DataFormatError, match="missing columns"):
            nf.field_model.load_calibration_csv(path)


class TestValidation:
    def test_negative_current_rejected(self):
        with pytest.raises(ValidationError):
            nf.MicrowireModel([0, 0, 0], [0, 1, 0], -1.0)

    def test_bad_polarity(self):
        with pytest.raises(ValidationError):
            nf.MicrowireModel([0, 0, 0], [0, 1, 0], 1.0, polarity=2)

    def test_zero_direction(self):
        with pytest.raises(ValidationError):
            nf.MicrowireModel([0, 0, 0], [0, 0, 0], 1.0)
