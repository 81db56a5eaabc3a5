import math

import numpy as np
import pytest
from scipy.special import j0 as scipy_j0
from scipy.special import mathieu_a, mathieu_b

from fluxcomb.errors import ConfigError, NumericalError
from fluxcomb.transmon import (
    SIGMA_RES,
    addressing_map,
    default_comb_qubits,
    diagonalize,
    ej_time_averaged,
    flux_curve,
    j0,
)
from helpers import ReadoutSpec, chi_dispersive, jc_chi

OMEGA_M = 2.0 * math.pi * 3e9
# the packaged flux-sweep comb's harmonics
COMB = (5, 10, 15, 20, 25)


# ----------------------------------------------------------- flux tuning

def test_ej_time_averaged_reduces_to_dc():
    for phi_dc in (0.0, 0.4, 1.1):
        assert ej_time_averaged(5e9, phi_dc, 0.0) == pytest.approx(
            2 * 5e9 * abs(math.cos(phi_dc / 2)))


def test_j0_matches_scipy():
    x = np.linspace(0.0, 3.0, 3001)
    np.testing.assert_allclose(j0(x), scipy_j0(x), rtol=0, atol=1e-15)
    assert abs(j0(0.7) - scipy_j0(0.7)) <= 1e-15
    assert np.ndim(j0(0.7)) == 0


def test_ej_time_averaged_bessel_suppression():
    # rf excursion always lowers the average (J0 < 1 for argument in (0, pi))
    full = ej_time_averaged(5e9, 0.6, 0.0)
    assert ej_time_averaged(5e9, 0.6, 0.8) < full
    assert ej_time_averaged(5e9, 0.6, 0.3) < full


def test_ej_time_averaged_on_arrays_equals_scalar_calls():
    """Arrays broadcast, each element bit for bit its scalar call: the
    addressing map scores through the same law as a single qubit."""
    rng = np.random.default_rng(3)
    phi_dc = rng.uniform(-3.0, 3.0, 41)
    phi_rf = rng.uniform(0.0, 1.5, 29)
    got = ej_time_averaged(7.3e9, phi_dc[:, None], phi_rf)
    assert got.shape == (41, 29)
    want = [[ej_time_averaged(7.3e9, float(dc), float(rf)) for rf in phi_rf]
            for dc in phi_dc]
    np.testing.assert_array_equal(got, np.array(want))


# -------------------------------------------------------- diagonalization

def test_charging_parabola_at_zero_ej():
    levels = diagonalize(0.3e9, 0.0)
    # levels are 4*EC*n^2, degenerate +-n pairs at ng = 0
    expect = np.array([0.0, 4 * 0.3e9, 4 * 0.3e9, 16 * 0.3e9, 16 * 0.3e9])
    np.testing.assert_allclose(levels, expect, rtol=1e-12)


# SciPy's Mathieu characteristic values lose accuracy by ej/ec = 1.5e4,
# so the oracle stops at 1e4
@pytest.mark.parametrize("ej_over_ec", [10, 50, 200, 2000, 1e4])
def test_levels_match_mathieu_characteristic_values(ej_over_ec):
    # at ng = 0 the charge-basis levels are E_C*{a0, b2, a2, b4, ...}(q)
    # with q = E_J/(2 E_C) (Koch et al., PRA 76, 042319, 2007)
    ec = 0.25e9
    ej = ej_over_ec * ec
    q = ej / (2.0 * ec)
    levels = diagonalize(ec, ej)
    expect = ec * np.array([mathieu_b(2, q), mathieu_a(2, q),
                            mathieu_b(4, q)]) - ec * mathieu_a(0, q)
    np.testing.assert_allclose(levels[1:4], expect, rtol=1e-12)


def test_nonfinite_ej_is_convergence_error():
    with pytest.raises(NumericalError):
        diagonalize(0.25e9, math.nan)


def test_spectrum_even_in_ej():
    # n -> (-1)^n |n> flips the sign of the hopping term
    np.testing.assert_allclose(diagonalize(0.25e9, -5e9),
                               diagonalize(0.25e9, 5e9), rtol=1e-12)


def test_transmon_asymptotics():
    ec = 0.25e9
    dev_prev = None
    for ratio in (50, 200, 1000):
        ej = ratio * ec
        levels = diagonalize(ec, ej)
        alpha = levels[2] - 2.0 * levels[1]
        wq_asym = math.sqrt(8 * ej * ec) - ec
        assert abs(levels[1] - wq_asym) / wq_asym < 0.01
        assert alpha < 0
        # the exact cosine potential overshoots -EC by ~0.9/sqrt(EJ/EC);
        # the deviation shrinks monotonically toward the asymptote
        dev = abs(alpha + ec) / ec
        assert 0.0 < dev < 0.20
        if dev_prev is not None:
            assert dev < dev_prev
        dev_prev = dev
    # frozen regression for the EJ/EC = 200 point
    l200 = diagonalize(ec, 200 * ec)
    assert (l200[2] - 2.0 * l200[1]) / (-ec) == pytest.approx(1.0636,
                                                             abs=2e-3)


def test_levels_sorted_and_ground_referenced():
    levels = diagonalize(0.2e9, 12e9)
    assert levels[0] == 0.0
    assert np.all(np.diff(levels) > 0)


def test_truncation_convergence_on_doubling():
    """The converged levels equal a solve at a fixed cut over three times
    the starting one."""
    import fluxcomb.transmon as tm
    levels = diagonalize(0.25e9, 12.5e9)
    fixed = tm._charge_levels(0.25e9, 12.5e9, 100, levels.size)
    np.testing.assert_allclose(levels[1:], fixed[1:], rtol=1e-9)


def _dense_levels(ec, ej, cut, n_levels):
    """Oracle: the full (2 cut + 1)-dimensional charge-basis matrix."""
    n = np.arange(-cut, cut + 1, dtype=np.float64)
    ham = np.diag(4.0 * ec * n ** 2)
    off = np.arange(2 * cut)
    ham[off, off + 1] = ham[off + 1, off] = -0.5 * ej
    vals = np.linalg.eigvalsh(ham)[:n_levels]
    return vals - vals[0]


@pytest.mark.parametrize("cut", [31, 46])
@pytest.mark.parametrize("ej_over_ec", [8, 50, 1e3, 2.2e4])
def test_parity_blocks_match_the_full_basis(ej_over_ec, cut):
    """The even and odd blocks' sorted union is the full basis' spectrum,
    within the dense solver's rounding."""
    import fluxcomb.transmon as tm
    ec = 0.25e9
    expect = _dense_levels(ec, ej_over_ec * ec, cut, 5)
    got = tm._charge_levels(ec, ej_over_ec * ec, cut, 5)
    assert got[0] == 0.0
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * expect[-1])


def test_flux_curve_table_is_its_per_node_solves(monkeypatch):
    """The table's two stacked solves give each node's own solve bit for
    bit."""
    import fluxcomb.transmon as tm
    ec = 0.25e9
    shapes = []
    solve = tm.eigvals_tridiag

    def counted(diag, off):
        shapes.append(off.shape)
        return solve(diag, off)

    monkeypatch.setattr(tm, "eigvals_tridiag", counted)
    curve = tm.FluxCurve(ec)
    cut = tm._converged_levels(ec, 2.2e4 * ec, 3)[1]
    assert [s for s in shapes if len(s) == 2] == [(48, cut - 1), (48, cut)]
    nodes = [tm._charge_levels(ec, math.exp(le), cut, 3)[1]
             for le in curve._ln_ej]
    np.testing.assert_array_equal(curve._wq, nodes)


def test_convergence_error_when_cap_hit(monkeypatch):
    import fluxcomb.transmon as tm
    monkeypatch.setattr(tm, "_MAX_CHARGE_CUT", 30)
    with pytest.raises(NumericalError):
        diagonalize(0.25e9, 5e12)


def test_omega_q_monotone_in_flux():
    phis = np.linspace(0.0, 0.45, 10)     # external flux, in Phi0
    wqs = [diagonalize(0.25e9, ej_time_averaged(15e9, 2 * math.pi * p,
                                                0.0))[1] for p in phis]
    assert np.all(np.diff(wqs) < 0)


def test_transmon_regime_is_config_error():
    # harmonic 1 of 8 GHz at ec = 1 GHz calibrates to ej_max/ec = 5.45
    with pytest.raises(ConfigError, match="^ec, harmonic, omega_m, ej_max: "
                                          "ej_max/ec = 5.45 < 10: outside "
                                          "the transmon regime"):
        default_comb_qubits(2 * math.pi * 8e9, (1,), ec=1e9)


def test_spec_validation():
    # cos(bias / 2) < 0: no ej_max calibrates
    with pytest.raises(ConfigError, match="^ej_max must be positive"):
        default_comb_qubits(OMEGA_M, (5,), 0.25e9, bias_targets=[4.0])


# ------------------------------------------------------- dispersive shift

def test_chi_zero_coupling():
    assert chi_dispersive(0.2e9, 10e9,
                          ReadoutSpec(omega_r=12e9, g_r=0.0)) == 0.0


def test_chi_sign_flips_with_detuning():
    ec = 0.2e9
    wq = diagonalize(ec, 10e9)[1]
    above = chi_dispersive(ec, 10e9, ReadoutSpec(omega_r=wq + 3e9, g_r=0.1e9))
    below = chi_dispersive(ec, 10e9, ReadoutSpec(omega_r=wq - 3e9, g_r=0.1e9))
    assert above * below < 0


def test_chi_degenerate_raises():
    ec = 0.2e9
    wq = diagonalize(ec, 10e9)[1]
    with pytest.raises(ConfigError):
        chi_dispersive(ec, 10e9, ReadoutSpec(omega_r=wq, g_r=0.1e9))


def test_chi_against_jc_oracle():
    ec = 0.2e9
    wq = diagonalize(ec, 10e9)[1]
    for g in (0.1e9, 0.3e9, 0.6e9):
        chi_f = chi_dispersive(ec, 10e9, ReadoutSpec(omega_r=12e9, g_r=g))
        chi_o = jc_chi(wq, 12e9, g)
        assert g / abs(wq - 12e9) <= 0.1
        assert abs(chi_f - chi_o) / abs(chi_o) < 0.05


def test_chi_dispersive_warning():
    ec = 0.2e9
    wq = diagonalize(ec, 10e9)[1]
    with pytest.warns(UserWarning, match="dispersive"):
        chi_dispersive(ec, 10e9, ReadoutSpec(omega_r=wq + 0.5e9, g_r=0.2e9))


# ------------------------------------------------------------ addressing

class _ArrayStub:
    def __init__(self, omega_m, harmonic_indices):
        self.omega_m = omega_m
        self.harmonic_indices = harmonic_indices


def test_flux_curve_accuracy():
    # random points across the curve's range, at three E_C values
    rng = np.random.default_rng(3)
    for ec in (0.22e9, 0.25e9, 0.28e9):
        curve = flux_curve(ec)
        ln_ej = rng.uniform(math.log(8 * ec), math.log(2.2e4 * ec), 60)
        exact = np.array([diagonalize(ec, math.exp(le))[1]
                          for le in ln_ej])
        got = curve.omega_q(np.exp(ln_ej))
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0)
        # the inverse lands on the series' own value
        np.testing.assert_allclose(curve.ln_ej_from_omega(got), ln_ej,
                                   rtol=1e-13, atol=0)


@pytest.mark.parametrize("ec", [1e-3, 2.5e8, 1e20])
def test_flux_curve_root_is_the_exact_solve(ec):
    # the spectrum over ec depends only on ej/ec, so three ec values span
    # every curve; an exact solve at the root lands on its target
    curve = flux_curve(ec)
    w_lo, w_hi = curve.omega_range
    targets = np.random.default_rng(5).uniform(w_lo, w_hi, 200)
    ln_ej = curve.ln_ej_from_omega(targets)
    exact = np.array([diagonalize(ec, math.exp(le))[1] for le in ln_ej])
    np.testing.assert_allclose(exact, targets, rtol=1e-12, atol=0)


def test_flux_curve_clips_and_rejects_out_of_range():
    curve = flux_curve(0.25e9)
    lo, hi = curve.omega_q(np.array([8 * 0.25e9, 2.2e4 * 0.25e9]))
    assert curve.omega_q(1.0) == lo
    assert curve.omega_q(1e20) == hi
    assert curve.omega_range == (lo, hi)
    np.testing.assert_allclose(curve.ln_ej_from_omega([lo, hi]),
                               np.log([8 * 0.25e9, 2.2e4 * 0.25e9]),
                               rtol=1e-13)
    # one target off the curve rejects the whole array, naming the first
    for w, shown in (([lo, 0.5 * lo, 2.0 * hi], 0.5 * lo),
                     ([2.0 * hi, 0.5 * lo], 2.0 * hi),
                     (2.0 * hi, 2.0 * hi)):
        with pytest.raises(ConfigError, match=f"^qubit frequency "
                           f"{shown / 1e9:.4g} GHz outside the flux curve"):
            curve.ln_ej_from_omega(w)


def test_default_comb_sits_on_harmonics():
    biases = np.linspace(0.7, 1.2, 5)
    for ec in (0.22e9, 0.25e9, 0.28e9):
        ej_max = default_comb_qubits(OMEGA_M, COMB, ec=ec)
        for e_q, n_i, bias in zip(ej_max, (5, 10, 15, 20, 25), biases):
            ej = ej_time_averaged(e_q, bias, 0.0)
            wq = diagonalize(ec, ej)[1]
            assert abs(2 * math.pi * wq - n_i * OMEGA_M) \
                <= 1e-12 * n_i * OMEGA_M


def test_calibration_solves_nothing_once_the_curve_is_cached(monkeypatch):
    import fluxcomb.transmon as tm
    flux_curve(0.25e9)
    calls = []
    monkeypatch.setattr(tm, "eigvals_tridiag", lambda *a: calls.append(a))
    default_comb_qubits(OMEGA_M, COMB, 0.25e9)
    assert calls == []


def test_addressing_dc_sweep_peaks_separate():
    # fixed rf drive, dc swept: exactly one high-score region per qubit
    array = _ArrayStub(OMEGA_M, [5, 10, 15, 20, 25])
    phi_dc = np.linspace(0.05, 1.3, 400)
    score = addressing_map(array, phi_dc, [0.85], 0.25e9,
                           default_comb_qubits(OMEGA_M, COMB, 0.25e9))
    assert score.shape == (400, 1, 5)
    centers = []
    for q in range(5):
        s = score[:, 0, q]
        hot = s > 0.5
        assert hot.any(), f"qubit {q} never addressed"
        runs = np.diff(np.flatnonzero(np.diff(hot.astype(int)) != 0))
        # a single contiguous hot region: at most one interior gap marker pair
        edges = np.flatnonzero(np.diff(hot.astype(int)) != 0)
        assert len(edges) <= 2
        centers.append(phi_dc[np.argmax(s)])
    # peaks ordered with the bias staggering and pairwise separated
    assert np.all(np.diff(centers) > 0.02)


def test_addressing_rf_branches_quasi_horizontal():
    array = _ArrayStub(OMEGA_M, [5, 10, 15, 20, 25])
    phi_rf = np.linspace(0.0, 0.85, 60)
    ej_max = default_comb_qubits(OMEGA_M, COMB, 0.25e9)
    # cycle-averaged qubit frequencies [rad/s] at phi_dc = 0.8,
    # (n_rf, n_qubits)
    wb = 2.0 * math.pi * np.stack(
        [flux_curve(0.25e9).omega_q(ej_time_averaged(e_q, 0.8, phi_rf))
         for e_q in ej_max], axis=1)
    drift = np.abs(wb - wb[0, :]) / wb[0, :]
    assert drift.max() < 0.03              # branches move by < 3 percent
    # branches stay ordered and distinct across the sweep
    assert np.all(np.diff(wb, axis=1) > 0)
    # and the map scores each qubit's detuning from its harmonic
    det = wb - np.array(array.harmonic_indices) * OMEGA_M
    np.testing.assert_allclose(
        addressing_map(array, [0.8], phi_rf, 0.25e9, ej_max)[0],
        np.exp(-det ** 2 / (2.0 * SIGMA_RES ** 2)), rtol=1e-9, atol=1e-12)


def test_addressing_far_detuned_is_dark():
    array = _ArrayStub(OMEGA_M, [5])
    # ej_max = 3 GHz: way below harmonic 5
    score = addressing_map(array, np.linspace(0.0, 1.2, 50), [0.0],
                           0.25e9, [3e9])
    assert score.max() < 1e-6
