"""Error-budget model checks: the array pass against a per-qubit scalar
oracle, formula reductions, limit consistency, monotonicity, and the
frozen calibration outcomes."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from fluxcomb import budget
from fluxcomb.errors import ConfigError

from helpers import named_budget

TWO_PI = 2.0 * math.pi
OMEGA_M = TWO_PI * 3e9


def uniform_model(**over):
    """Baseline bus: unit gain, no engineered isolation."""
    kw = dict(c_purcell=1.0, c_phi=1.0, c0=0.5,
              delta_bw=0.4 * OMEGA_M, omega_res=13.0 * OMEGA_M,
              purcell_bw=16.0 * OMEGA_M, gain_floor=1.0, gain_peak=1.0,
              gain_width=8.0 * OMEGA_M)
    kw.update(over)
    return budget.BusIsolationModel(**kw)


def oracle(array, model, i) -> dict:
    """Qubit i's budget from the formulas, one Python float at a time,
    with the qubits at teeth 1..n_qubits and unit pitch."""
    omega = [n * array.omega_m for n in range(1, array.n_qubits + 1)]
    x = [float(j) for j in range(1, array.n_qubits + 1)]

    def gain(w):
        return model.gain_floor + (model.gain_peak - model.gain_floor) \
            * math.exp(-(w - model.omega_res) ** 2
                       / (2.0 * model.gain_width ** 2))

    half_w = model.purcell_bw / 2.0
    lorentzian = half_w ** 2 / ((omega[i] - model.omega_res) ** 2
                                + half_w ** 2)
    gamma_p = array.g_coupling ** 2 / gain(omega[i]) / array.kappa_bus \
        * lorentzian * model.c_purcell
    t1 = 1.0 / (1.0 / array.t1_intrinsic + gamma_p)
    gamma_phi = 1.0 / array.t2_intrinsic - 0.5 / array.t1_intrinsic
    t2 = 1.0 / (0.5 / t1 + gamma_phi * model.c_phi)
    xt = 0.0
    for j in range(array.n_qubits):
        if j == i:
            continue
        delta = abs(omega[j] - omega[i])
        g_ij = array.g_coupling * math.exp(-abs(x[j] - x[i]) / array.lambda_c)
        c_bus = model.c0 + (1.0 - model.c0) * math.exp(
            -(delta / model.delta_bw) ** 2)
        xt += (g_ij / delta) ** 2 * math.sin(0.5 * delta * array.t_gate) ** 2 \
            * c_bus
    row = dict(omega=omega[i], gamma_purcell=gamma_p, t1_eff=t1, t2_eff=t2,
               e_relax=array.t_gate / t1,
               e_dephase=1.0 - math.exp(-array.t_gate / t2),
               e_crosstalk=xt / gain(omega[i]))
    row["e_total"] = row["e_relax"] + row["e_dephase"] + row["e_crosstalk"]
    return row


@pytest.mark.parametrize("n", [1, 2, 25, budget.MAX_QUBITS])
@pytest.mark.parametrize("bus", ["reciprocal", "nonreciprocal"],
                         ids=lambda kind: f"{kind}_bus")
def test_every_qubit_matches_the_scalar_oracle(bus, n):
    """e_dephase = 1 - exp(-t_gate/T2) is about 1e-5, so a last-bit
    difference between NumPy's and the math module's exp shows in it, and
    in e_total, at up to ~1e-10 relative. The largest comb is checked at
    its ends, the bus resonance and the middle."""
    a = budget.QubitArraySpec(n_qubits=n)
    m = budget.bus_model(bus, OMEGA_M)
    b = named_budget(a, m)
    for i in range(n) if n <= 25 else (0, 1, 12, 511, 1022, 1023):
        for name, want in oracle(a, m, i).items():
            rtol = 1e-9 if name in ("e_dephase", "e_total") else 1e-12
            assert getattr(b, name)[i] == pytest.approx(want, rel=rtol), \
                (name, i)


class TestSpecs:
    def test_array_defaults(self):
        a = budget.QubitArraySpec()
        assert a.n_qubits == 25 and a.harmonic_indices is None
        omega = named_budget(a, uniform_model()).omega
        np.testing.assert_array_equal(omega, np.arange(1, 26) * OMEGA_M)

    def test_array_validation(self):
        with pytest.raises(ConfigError):
            budget.QubitArraySpec(n_qubits=3, harmonic_indices=(1, 3, 3))
        with pytest.raises(ConfigError):
            budget.QubitArraySpec(t2_intrinsic=400e-6, t1_intrinsic=150e-6)
        with pytest.raises(ConfigError, match="^kappa_bus"):
            budget.QubitArraySpec(kappa_bus=1e-300)
        with pytest.raises(ConfigError, match="^g_coupling"):
            budget.QubitArraySpec(g_coupling=1e300)
        lo, hi = budget._OMEGA_M_RANGE
        for omega_m in (0.5 * lo, 2.0 * hi):
            with pytest.raises(ConfigError, match="^omega_m must be in"):
                budget.QubitArraySpec(omega_m=omega_m)
        with pytest.raises(ConfigError, match="^omega_m .*g_coupling"):
            budget.QubitArraySpec(omega_m=1e-150)
        with pytest.raises(ConfigError, match="^t_gate .*omega_m"):
            budget.QubitArraySpec(t_gate=1e300)
        with pytest.raises(ConfigError, match="^t2_intrinsic .*2 / t2"):
            budget.QubitArraySpec(t2_intrinsic=5e-324)
        for lambda_c in (5e-324, sys.float_info.min):
            with pytest.raises(ConfigError, match="^lambda_c .*1023 / "):
                budget.QubitArraySpec(lambda_c=lambda_c)

    def test_bounds_keep_the_largest_comb_in_float_range(self):
        # at either end of the omega_m range, with the strongest coupling
        # it admits, and with the longest gate admitted at 3 GHz, the
        # budget of the full MAX_QUBITS comb (every spacing, the bus
        # resonance, the top tooth) is finite
        lo, hi = budget._OMEGA_M_RANGE
        w, g = budget.TWO_PI * 3e9, budget.TWO_PI * 50e6
        longest = 0.5 * sys.float_info.max / (budget.MAX_QUBITS * w)
        for omega_m, g_coupling, t_gate in ((lo, 1.0, 0.5e-9),
                                            (hi, g, 0.5e-9), (w, g, longest)):
            array = budget.QubitArraySpec(
                n_qubits=budget.MAX_QUBITS, omega_m=omega_m,
                g_coupling=g_coupling, t_gate=t_gate)
            for model in (budget.bus_model("reciprocal", omega_m),
                          budget.bus_model("nonreciprocal", omega_m)):
                result = named_budget(array, model)
                assert np.all(np.isfinite(result.e_total))


@pytest.mark.parametrize("bus", ["reciprocal", "nonreciprocal"])
def test_sweep_is_the_budget_of_each_size(bus):
    """Each size of the one-pass sweep is, bit for bit, the worst total
    error of a full budget at that size."""
    array = budget.QubitArraySpec(n_qubits=64)
    model = budget.bus_model(bus, OMEGA_M)
    worst = budget.scalability_sweep(array, model, range(1, 65))
    for n in range(1, 65):
        sized = replace(array, n_qubits=n, harmonic_indices=None)
        assert worst[n - 1] == max(budget.full_budget(sized, model)[-1]), n


@pytest.mark.parametrize("n", [0, 4, 100])
def test_sweep_rejects_a_size_beyond_its_template(n):
    """The sweep answers sizes 1..n_qubits of its template; the first n
    past either end raises instead of clamping to the whole comb."""
    array = budget.QubitArraySpec(n_qubits=3)
    model = budget.bus_model("nonreciprocal", OMEGA_M)
    assert len(budget.scalability_sweep(array, model, [1, 3])) == 2
    with pytest.raises(ValueError, match=rf"^n_range holds {n}, outside "
                                         r"1\.\.3 \(array.n_qubits\)$"):
        budget.scalability_sweep(array, model, [2, n])


class TestGain:
    def test_uniform_when_peak_equals_floor(self):
        m = uniform_model()
        w = np.array([1.0, 5.0, 13.0, 25.0]) * OMEGA_M
        np.testing.assert_array_equal(budget.gain(m, w), np.ones(4))

    def test_peak_at_center(self):
        m = budget.bus_model("nonreciprocal", OMEGA_M)
        assert budget.gain(m, m.omega_res) == pytest.approx(2.0)

    def test_one_sigma_point(self):
        m = budget.bus_model("nonreciprocal", OMEGA_M)
        g = budget.gain(m, m.omega_res + m.gain_width)
        assert g == pytest.approx(0.5 + 1.5 * math.exp(-0.5), rel=1e-12)


class TestPurcell:
    def test_on_resonance_maximum(self):
        """Unit gain, no suppression, qubit on the bus resonance:
        the rate collapses to g^2/kappa."""
        a = budget.QubitArraySpec(n_qubits=13)
        m = uniform_model(purcell_bw=a.kappa_bus)   # bare linewidth
        got = named_budget(a, m).gamma_purcell[12]  # tooth 13
        assert got == pytest.approx(a.g_coupling ** 2 / a.kappa_bus,
                                    rel=1e-12)

    def test_scales_linearly_with_suppression(self):
        a = budget.QubitArraySpec()
        r1 = named_budget(a, uniform_model(c_purcell=1.0))
        r2 = named_budget(a, uniform_model(c_purcell=0.25))
        np.testing.assert_allclose(r2.gamma_purcell, 0.25 * r1.gamma_purcell,
                                   rtol=1e-12)


class TestLifetimes:
    def test_t1_reaches_intrinsic_without_purcell(self):
        a = budget.QubitArraySpec(n_qubits=5)   # comb far below omega_res
        m = uniform_model(c_purcell=1e-12)
        assert named_budget(a, m).t1_eff[0] == pytest.approx(
            150e-6, rel=1e-4)

    def test_t2_lifetime_limited_bound(self):
        a = budget.QubitArraySpec(n_qubits=5, t2_intrinsic=300e-6)
        m = uniform_model(c_purcell=1e-12, c_phi=1e-12)
        assert named_budget(a, m).t2_eff[0] == pytest.approx(
            2.0 * a.t1_intrinsic, rel=1e-3)


class TestCrosstalk:
    def test_single_qubit_is_zero(self):
        a = budget.QubitArraySpec(n_qubits=1)
        assert named_budget(a, uniform_model()).e_crosstalk[0] == 0.0

    def test_two_qubit_bare_swap_limit(self):
        """Leakage ~1, infinite correlation length, unit gain: the formula
        collapses to the bare swap probability (g/Delta)^2 sin^2."""
        a = budget.QubitArraySpec(n_qubits=2, lambda_c=1e12)
        m = uniform_model(c0=1.0 - 1e-12)
        delta = OMEGA_M
        expect = (a.g_coupling / delta) ** 2 * math.sin(
            0.5 * delta * a.t_gate) ** 2
        assert named_budget(a, m).e_crosstalk[0] == pytest.approx(
            expect, rel=1e-6)

    def test_monotone_in_isolation_bandwidth(self):
        a = budget.QubitArraySpec()
        vals = [named_budget(a, uniform_model(delta_bw=bw))
                .e_crosstalk[12]
                for bw in (0.2 * OMEGA_M, 0.5 * OMEGA_M, 2.0 * OMEGA_M)]
        assert vals[0] < vals[1] < vals[2]

    def test_never_decreases_with_array_size(self):
        m = budget.bus_model("reciprocal", OMEGA_M)
        prev = 0.0
        for n in (2, 5, 10, 25):
            a = budget.QubitArraySpec(n_qubits=n)
            cur = named_budget(a, m).e_crosstalk[0]
            assert cur >= prev
            prev = cur


class TestBudgetAssembly:
    def test_total_is_exact_sum(self):
        a = budget.QubitArraySpec()
        b = named_budget(a, budget.bus_model("reciprocal", OMEGA_M))
        np.testing.assert_array_equal(
            b.e_total, b.e_relax + b.e_dephase + b.e_crosstalk)
        assert np.all(b.e_relax >= 0) and np.all(b.e_dephase >= 0)
        assert np.all(b.e_crosstalk >= 0)

    def test_intrinsic_error_floor(self):
        a = budget.QubitArraySpec()
        floor = a.t_gate / a.t1_intrinsic
        for kind in ("reciprocal", "nonreciprocal"):
            m = budget.bus_model(kind, OMEGA_M)
            assert np.all(named_budget(a, m).e_total >= floor)

    def test_flat_gain_leaves_its_width_inert(self):
        a = budget.QubitArraySpec()
        out = []
        for width in (8.0 * OMEGA_M, 0.5 * OMEGA_M):
            m = replace(budget.bus_model("reciprocal", OMEGA_M),
                        gain_width=width)
            out.append(named_budget(a, m).e_total)
        np.testing.assert_array_equal(out[0], out[1])


class TestFrozenOutcomes:
    """Calibrated regression lock on the default array + preset buses."""

    def setup_method(self):
        self.arr = budget.QubitArraySpec()
        self.rec = named_budget(self.arr,
                                budget.bus_model("reciprocal", OMEGA_M))
        self.nr = named_budget(self.arr,
                               budget.bus_model("nonreciprocal", OMEGA_M))

    def test_t1_regression(self):
        for q, expect in ((0, 2.501122e-05), (6, 1.316436e-05),
                          (12, 8.700066e-06), (24, 2.501122e-05)):
            assert self.rec.t1_eff[q] == pytest.approx(expect, rel=1e-5)
        for q, expect in ((0, 1.479354e-04), (12, 1.467159e-04)):
            assert self.nr.t1_eff[q] == pytest.approx(expect, rel=1e-5)

    def test_error_regression(self):
        assert self.rec.e_total[12] == pytest.approx(2.348234e-03, rel=1e-5)
        assert self.nr.e_total[0] == pytest.approx(6.876280e-06, rel=1e-5)
        assert self.nr.e_total.max() == pytest.approx(8.223e-06, rel=1e-3)

    def test_band_symmetry(self):
        """Comb and gain profile are symmetric about tooth 13."""
        np.testing.assert_allclose(self.rec.t1_eff, self.rec.t1_eff[::-1],
                                   rtol=1e-12)

    def test_coherence_bands(self):
        t1r, t1n = self.rec.t1_eff, self.nr.t1_eff
        assert t1r.min() > 8e-6 and t1r.max() < 60e-6
        assert t1r.min() < 15e-6
        assert np.all(np.abs(t1n - 150e-6) < 15e-6)
        assert np.mean(t1n / t1r) >= 10.0
        assert np.mean(self.nr.t2_eff / self.rec.t2_eff) >= 5.0
        assert np.all(self.nr.t2_eff > 100e-6)
        assert (self.rec.t2_eff < 20e-6).sum() >= 13   # most of 25

    def test_error_bands(self):
        assert np.all((self.rec.e_total >= 1e-3)
                      & (self.rec.e_total <= 1e-1))
        assert np.all(self.nr.e_total < 1e-5)

    def test_scalability_endpoints(self):
        worst_nr = budget.scalability_sweep(
            self.arr, budget.bus_model("nonreciprocal", OMEGA_M), [25])[0]
        assert worst_nr < 1e-4
        # single qubit: no crosstalk, both models at the coherence floor
        w1r = budget.scalability_sweep(
            self.arr, budget.bus_model("reciprocal", OMEGA_M), [1])[0]
        a1 = replace(self.arr, n_qubits=1, harmonic_indices=None)
        assert named_budget(
            a1, budget.bus_model("reciprocal", OMEGA_M)).e_crosstalk[0] == 0.0
        assert w1r < 1e-4

    def test_decomposition_reductions(self):
        dr, dn, q = self.rec, self.nr, 11     # the mid-band tooth, n = 12
        assert dr.e_crosstalk[q] > max(dr.e_relax[q], dr.e_dephase[q])
        assert 1.0 - dn.e_crosstalk[q] / dr.e_crosstalk[q] >= 0.99
        assert 1.0 - dn.gamma_purcell[q] / dr.gamma_purcell[q] >= 0.98
        assert 1.0 - dn.e_dephase[q] / dr.e_dephase[q] >= 0.95
