"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line on the live
terminal (bypassing capture) and then asserts. Three clauses are strict
xfails: the transmon anharmonicity tolerance (the exact charge-basis
value sits outside the stated band), the reciprocal scalability
crossing window (nearest-neighbor crosstalk alone exceeds the crossing
level at N = 2 for any calibration matching the N = 25 band) and the
bus isolation that the budget's nonreciprocal constants assume (the
simulated line does not deliver it).
"""

import math
import time

import numpy as np
import pytest

from fluxcomb import budget, cli, line, nonmarkov, transmon
from helpers import (ReadoutSpec, chi_dispersive, default_drive,
                     harmonic_band_power, memory_kernel, named_budget)
from test_nonmarkov import quadrature_population
from test_transmon import _jc_chi

TWO_PI = 2.0 * math.pi
OMEGA_M = TWO_PI * 3e9


def report(capsys, label, ok, note=""):
    tail = f" ({note})" if note else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{tail}",
              flush=True)


def _cw_source(amplitude=1e-6, port="left"):
    return line.SourceSpec(kind="continuous-wave", omega=OMEGA_M,
                           amplitude=amplitude, port=port)


def test_acceptance_01_harmonic_generation(capsys):
    t_start = time.perf_counter()
    geom = line.LineGeometry()

    sim = line.build_line(geom, default_drive(0.6, 0.0, geom), _cw_source())
    sim.run_until(5.4e-9)
    quiet, _ = line.spatial_harmonics(sim.i[0], sim, 6)
    floor_db = max(quiet[1:])

    sim = line.build_line(geom, default_drive(0.6, 0.6, geom), _cw_source())
    sim.run_until(0.8e-9)
    loud, _ = line.spatial_harmonics(sim.i[0], sim, 6)
    n_emerged = int(np.sum(loud[1:] > -30.0))
    runtime = time.perf_counter() - t_start

    ok = floor_db < -60.0 and n_emerged >= 2 and runtime < 30.0
    report(capsys, 1, ok,
           f"floor {floor_db:.1f} dBc, {n_emerged} harmonics by 0.8 ns, "
           f"{runtime:.1f} s")
    assert floor_db < -60.0
    assert n_emerged >= 2
    assert runtime < 30.0


def _band_power_envelope(phi_dc, phi_rf, snap_times):
    geom = line.LineGeometry()
    drive = default_drive(phi_dc, phi_rf, geom)
    sim = line.build_line(geom, drive, _cw_source())
    i = sim.run_until(2.6e-9, snap_times)[2]
    powers = [harmonic_band_power(i_k, sim) for i_k in i]
    return np.maximum.accumulate(powers)


def test_acceptance_02_flux_dependence(capsys):
    # total harmonic power grows with the rf amplitude at fixed dc bias
    geom = line.LineGeometry()
    finals = []
    for rf in (0.2, 0.3, 0.4):
        drive = default_drive(0.8, rf, geom)
        sim = line.build_line(geom, drive, _cw_source())
        sim.run_until(2.6e-9)
        finals.append(harmonic_band_power(sim.i[0], sim))
    monotone = finals[0] < finals[1] < finals[2]

    # deeper dc bias reaches the conversion threshold earlier
    snap_times = list(np.arange(0.1e-9, 2.601e-9, 0.02e-9))
    env6 = _band_power_envelope(0.6, 0.6, snap_times)
    env7 = _band_power_envelope(0.7, 0.6, snap_times)
    thr = 0.7 * min(env6[-1], env7[-1])
    t6 = snap_times[int(np.argmax(env6 >= thr))]
    t7 = snap_times[int(np.argmax(env7 >= thr))]
    earlier = t7 < t6

    ok = monotone and earlier
    report(capsys, 2, ok,
           f"rf monotone {monotone}, threshold {t7 * 1e9:.2f} vs "
           f"{t6 * 1e9:.2f} ns")
    assert monotone
    assert earlier


def test_acceptance_03_nonreciprocity(capsys):
    geom = line.LineGeometry()
    static = line.FluxDrive(phi_dc_tilde=0.6, phi_rf_tilde=0.6,
                            kappa_s=0.0, omega_s=OMEGA_M)
    iso0 = line.isolation_report(geom, static, OMEGA_M)
    reciprocal = all(abs(v) < 1.0 for v in iso0.values())

    iso = line.isolation_report(geom, default_drive(0.6, 0.6, geom), OMEGA_M)
    frozen = {1: -8.466491, 2: -1.307162, 3: 2.472548}
    isolating = abs(iso[1]) > 5.0
    locked = all(abs(iso[h] - frozen[h]) <= 0.5 for h in frozen)

    ok = reciprocal and isolating and locked
    report(capsys, 3, ok,
           f"kappa_s=0 worst {max(abs(v) for v in iso0.values()):.2e} dB, "
           f"fundamental {iso[1]:.2f} dB")
    assert reciprocal
    assert isolating
    assert locked


def _pulse_ratios(phi_rf):
    geom = line.LineGeometry()
    drive = default_drive(0.6, phi_rf, geom)
    source = line.SourceSpec(kind="gaussian-pulse", omega=OMEGA_M,
                             amplitude=1e-6, t_center=0.5e-9,
                             t_width=0.12e-9)
    sim = line.build_line(geom, drive, source)
    t, _, i, _ = sim.run_until(2.7e-9, [0.95e-9, 1.0e-9, 2.65e-9, 2.7e-9])
    _, _, width, _, velocity = line.wavepacket_metrics(t, i, geom)
    return width[3] / width[1], velocity[3] / velocity[1]


def test_acceptance_04_wavepacket_reshaping(capsys):
    width_ratio, velocity_ratio = _pulse_ratios(0.6)
    ctrl_width, ctrl_velocity = _pulse_ratios(0.0)
    ok = (width_ratio > 1.1 and velocity_ratio < 0.95
          and 0.98 <= ctrl_width <= 1.02
          and 0.98 <= ctrl_velocity <= 1.02)
    report(capsys, 4, ok,
           f"width x{width_ratio:.2f}, velocity x{velocity_ratio:.3f}, "
           f"controls {ctrl_width:.4f}/{ctrl_velocity:.4f}")
    assert width_ratio > 1.1
    assert velocity_ratio < 0.95
    assert 0.98 <= ctrl_width <= 1.02
    assert 0.98 <= ctrl_velocity <= 1.02


def test_acceptance_05_transmon_spectrum(capsys):
    ec = 0.25e9
    ej = 200.0 * ec
    omega_q = transmon.diagonalize(ec, ej)[1]
    wq_asym = math.sqrt(8.0 * ej * ec) - ec
    freq_ok = abs(omega_q - wq_asym) / wq_asym < 0.01

    # deep dispersive point: the two-level oracle carries no
    # anharmonicity correction, so keep |alpha / delta| small
    readout = ReadoutSpec(omega_r=21e9, g_r=0.3e9)
    chi = chi_dispersive(ec, ej, readout)
    chi_oracle = _jc_chi(omega_q, readout.omega_r, readout.g_r)
    chi_ok = abs(chi - chi_oracle) / abs(chi_oracle) < 0.05

    ok = freq_ok and chi_ok
    report(capsys, "5 (frequency, chi)", ok,
           f"omega_q off by {abs(omega_q - wq_asym) / wq_asym:.2%}, "
           f"chi off by {abs(chi - chi_oracle) / abs(chi_oracle):.2%}")
    assert freq_ok
    assert chi_ok


@pytest.mark.xfail(
    strict=True,
    reason="exact charge-basis anharmonicity at EJ/EC = 200 is "
           "-1.0636 EC, outside the 5% band around -EC; the leading "
           "correction -(1 + sqrt(2 EC/EJ)/4 + ...) EC cannot be closer")
def test_acceptance_05_anharmonicity_clause(capsys):
    ec = 0.25e9
    ej = 200.0 * ec
    levels = transmon.diagonalize(ec, ej)
    deviation = abs(levels[2] - 2.0 * levels[1] - (-ec)) / ec
    ok = deviation < 0.05
    report(capsys, "5 (anharmonicity)", ok,
           f"|alpha + EC|/EC = {deviation:.4f}, ledgered blocker")
    assert ok


def test_acceptance_06_lifetimes(capsys):
    array = budget.QubitArraySpec()
    rec = named_budget(array, budget.bus_model("reciprocal", OMEGA_M))
    nr = named_budget(array, budget.bus_model("nonreciprocal", OMEGA_M))

    rec_band = bool(np.all((rec.t1_eff >= 8e-6) & (rec.t1_eff <= 60e-6)))
    rec_dip = rec.t1_eff.min() < 15e-6
    nr_close = bool(np.all(np.abs(nr.t1_eff - 150e-6) <= 15e-6))
    t1_ratio = float(np.mean(nr.t1_eff / rec.t1_eff))
    t2_ratio = float(np.mean(nr.t2_eff / rec.t2_eff))

    ok = rec_band and rec_dip and nr_close and t1_ratio >= 10.0 \
        and t2_ratio >= 5.0
    report(capsys, 6, ok,
           f"T1 ratio {t1_ratio:.1f}, T2 ratio {t2_ratio:.1f}")
    assert rec_band
    assert rec_dip
    assert nr_close
    assert t1_ratio >= 10.0
    assert t2_ratio >= 5.0


def test_acceptance_07_error_budget_bands(capsys):
    array = budget.QubitArraySpec()
    rec_bus = budget.bus_model("reciprocal", OMEGA_M)
    nr_bus = budget.bus_model("nonreciprocal", OMEGA_M)
    rec = named_budget(array, rec_bus).e_total
    nr = named_budget(array, nr_bus).e_total
    worst_nr_25 = budget.scalability_sweep(array, nr_bus, [25])[0]

    rec_band = bool(np.all((rec >= 1e-3) & (rec <= 1e-1)))
    nr_band = bool(np.all(nr < 1e-5))
    nr_scaled = worst_nr_25 < 1e-4
    ok = rec_band and nr_band and nr_scaled
    report(capsys, 7, ok,
           f"rec [{rec.min():.2e}, {rec.max():.2e}], "
           f"nr worst {nr.max():.2e}")
    assert rec_band
    assert nr_band
    assert nr_scaled


@pytest.mark.xfail(
    strict=True,
    reason="with the N = 25 reciprocal band pinned to [1e-3, 1e-1], the "
           "nearest-neighbor term alone puts the worst-case error above "
           "1e-4 already at N = 2; no calibration can move the crossing "
           "into [5, 8] (ledgered)")
def test_acceptance_07_scalability_crossing_clause(capsys):
    array = budget.QubitArraySpec()
    worst = budget.scalability_sweep(
        array, budget.bus_model("reciprocal", OMEGA_M), range(1, 26))
    crossing = next(n for n, w in zip(range(1, 26), worst) if w > 1e-4)
    ok = 5 <= crossing <= 8
    report(capsys, "7 (crossing window)", ok,
           f"reciprocal sweep crosses 1e-4 at N = {crossing}")
    assert ok


def test_acceptance_08_isolation_switching(capsys):
    array = budget.QubitArraySpec()
    rec = named_budget(array, budget.bus_model("reciprocal", OMEGA_M))
    nr = named_budget(array, budget.bus_model("nonreciprocal", OMEGA_M))
    q = 11                       # the mid-band tooth, n = 12
    assert rec.omega[q] == 12 * array.omega_m

    crosstalk_dominant = (rec.e_crosstalk[q] > rec.e_relax[q]
                          and rec.e_crosstalk[q] > rec.e_dephase[q])
    red_xt = 1.0 - nr.e_crosstalk[q] / rec.e_crosstalk[q]
    red_purcell = 1.0 - nr.gamma_purcell[q] / rec.gamma_purcell[q]
    red_phi = 1.0 - nr.e_dephase[q] / rec.e_dephase[q]

    ok = crosstalk_dominant and red_xt >= 0.99 and red_purcell >= 0.98 \
        and red_phi >= 0.95
    report(capsys, 8, ok,
           f"reductions: crosstalk {red_xt:.2%}, Purcell "
           f"{red_purcell:.2%}, dephasing {red_phi:.2%}")
    assert crosstalk_dominant
    assert red_xt >= 0.99
    assert red_purcell >= 0.98
    assert red_phi >= 0.95


@pytest.mark.xfail(
    strict=True,
    reason="the nonreciprocal bus constants are assumed, not derived from "
           "the line: c0 0.3 -> 0.005 implies 17.8 dB of isolation and "
           "c_purcell 14.0 dB, while isolation_report at the fundamental "
           "reads -0.09 dB on the stable (0.5, 0.3) drive and -8.47 dB on "
           "the packaged (0.6, 0.6) one (ledgered)")
def test_acceptance_08_bus_isolation_clause(capsys):
    rec, nr = (budget._BUSES[kind] for kind in ("reciprocal",
                                                 "nonreciprocal"))
    assumed = {name: 10.0 * math.log10(rec[name] / nr[name])
               for name in ("c0", "c_purcell")}
    geom = line.LineGeometry()
    simulated = {drive: line.isolation_report(
        geom, default_drive(*drive, geom), OMEGA_M)[1]
        for drive in ((0.5, 0.3), (0.6, 0.6))}
    ok = min(simulated.values()) >= max(assumed.values())
    report(capsys, "8 (bus isolation)", ok,
           "assumed " + ", ".join(f"{k} {v:.1f} dB"
                                  for k, v in assumed.items())
           + "; line " + ", ".join(f"{d} {v:.2f} dB"
                                   for d, v in simulated.items()))
    assert ok


def test_acceptance_09_memory_kernel(capsys):
    kernel = memory_kernel()

    t = np.linspace(0.0, 400e-9, 16001)
    p = nonmarkov.evolve_kernel(*kernel, t)
    oracle_gap = float(np.abs(p - quadrature_population(kernel, t)).max())

    gamma = TWO_PI * 5e4
    fast = (gamma * 100.0 * gamma, 100.0 * gamma)
    tm = np.linspace(0.0, 2.0 / gamma, 4001)
    pm = nonmarkov.evolve_kernel(*fast, tm)
    ref = np.exp(-gamma * tm)
    mask = ref > 1e-3
    markov_gap = float(np.max(np.abs(pm[mask] - ref[mask]) / ref[mask]))

    tg = np.linspace(0.0, 400e-9, 4001)
    pg = nonmarkov.evolve_kernel(*kernel, tg)
    g = nonmarkov.gamma_eff(np.maximum(pg, 1e-300), tg[1])
    neg = g < 0.0
    runs = np.diff(np.flatnonzero(np.diff(np.concatenate(
        ([0], neg.astype(int), [0])))).reshape(-1, 2), axis=1)
    has_backflow = bool(runs.size and runs.max() >= 20)

    # the packaged markovian_ratio: 1/100 of the memory rate
    pexp = nonmarkov.evolve_markovian(kernel[1] / 100.0, tg)
    ge = nonmarkov.gamma_eff(pexp, tg[1])
    flatness = float(np.std(ge) / np.mean(ge))

    ok = oracle_gap < 1e-6 and markov_gap < 0.02 and has_backflow \
        and flatness < 1e-3
    report(capsys, 9, ok,
           f"oracle gap {oracle_gap:.2e}, Markov limit {markov_gap:.2%}, "
           f"flatness {flatness:.1e}")
    assert oracle_gap < 1e-6
    assert markov_gap < 0.02
    assert has_backflow
    assert flatness < 1e-3


def test_acceptance_10_spectroscopy(capsys):
    m_1f = nonmarkov.NoiseModel(kind="one-over-f", amplitude=5.4e11,
                                n_components=1024)
    m_filt = nonmarkov.NoiseModel(kind="filtered", amplitude=6e10,
                                  filter_center=3e3, filter_depth=30.0,
                                  n_components=1024)

    f, psa = nonmarkov.averaged_periodogram(m_1f, 2e-3, 1e-6,
                                            [1000 + k for k in range(40)])
    band = (f > 3e3) & (f < 1e5)
    slope = float(np.polyfit(np.log10(f[band]),
                             np.log10(psa[band]), 1)[0])

    t_start = time.perf_counter()
    tau = np.geomspace(0.3e-6, 12e-6, 90)
    (ram_1f, _), (echo_1f, echo_filt) = nonmarkov.dephasing(
        [m_1f, m_filt], tau, 500, 42)

    def fit_beta(y):
        m = (y > 0.25) & (y < 0.85)
        return nonmarkov.fit_decay(tau[m], np.minimum(y[m], 1.0))[1]

    beta_echo = fit_beta(echo_1f)
    beta_ram = fit_beta(ram_1f)
    beta_filt = fit_beta(echo_filt)
    above_floor = ram_1f > 0.15
    echo_dominates = bool(np.all(echo_1f[above_floor]
                                 >= ram_1f[above_floor] - 0.01))
    runtime = time.perf_counter() - t_start

    ok = (abs(slope + 1.0) < 0.15 and abs(beta_ram - 1.0) > 0.3
          and 2.5 <= beta_echo <= 3.5 and 1.5 <= beta_filt <= 2.5
          and beta_echo > beta_filt and echo_dominates and runtime < 60.0)
    report(capsys, 10, ok,
           f"slope {slope:.3f}, beta ramsey {beta_ram:.2f}, echo "
           f"{beta_echo:.2f} vs filtered {beta_filt:.2f}, {runtime:.1f} s")
    assert abs(slope + 1.0) < 0.15
    assert abs(beta_ram - 1.0) > 0.3
    assert 2.5 <= beta_echo <= 3.5
    assert 1.5 <= beta_filt <= 2.5
    assert beta_echo > beta_filt
    assert echo_dominates
    assert runtime < 60.0


def test_acceptance_11_determinism(capsys, tmp_path):
    spectro = ["spectroscopy", "--seed", "9",
               "--set", "n_realizations=200", "--set", "tau.n=8",
               "--set", "one_over_f.n_components=128",
               "--set", "filtered.n_components=128",
               "--set", "spectrum.n_avg=3"]
    names = ("ramsey.csv", "echo_one_over_f.csv", "echo_filtered.csv",
             "spectrum.csv")
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main([*spectro, "--out", str(a)]) == 0
    assert cli.main([*spectro, "--out", str(b)]) == 0
    stochastic_ok = all((a / n).read_bytes() == (b / n).read_bytes()
                        for n in names)

    c, d = tmp_path / "c", tmp_path / "d"
    assert cli.main(["error-budget", "--out", str(c)]) == 0
    assert cli.main(["error-budget", "--out", str(d)]) == 0
    budget_ok = (c / "budget.csv").read_bytes() \
        == (d / "budget.csv").read_bytes()

    ok = stochastic_ok and budget_ok
    report(capsys, 11, ok, "byte-identical CSV output")
    assert stochastic_ok
    assert budget_ok
