"""Memory-kernel relaxation and dephasing-spectroscopy tests.

The kernel solver is checked against an independent quadrature of the
integro-differential form (written before the solver, different scheme,
different state variables), the Markov limit, and the analytic backflow
geometry of the underdamped regime. The batched ensembles and noise
synthesis are checked against the per-realization loops they replaced,
and the shared multi-model pass against single-model runs.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.signal import savgol_filter

from fluxcomb import cli
from fluxcomb import nonmarkov as nm
from fluxcomb.errors import ConfigError, NumericalError
from helpers import memory_kernel

TWO_PI = 2.0 * np.pi


def quadrature_population(kernel, t_grid):
    """Independent check for the kernel (A, Gamma): integrate
    c'(t) = -(A/2) I(t) with
    I(t) = int_0^t exp(-Gamma (t - tau)) c(tau) dtau directly, using a
    trapezoid predictor-corrector and an exponentially-updated running
    integral. O(h^2); no auxiliary (c, w) embedding.
    """
    t = np.asarray(t_grid, dtype=float)
    amplitude_a, gm = kernel
    a_half = 0.5 * amplitude_a
    c = 1.0
    integ = 0.0
    out = np.empty(t.size)
    out[0] = c * c
    for k in range(t.size - 1):
        h = t[k + 1] - t[k]
        decay = np.exp(-gm * h)
        c_pred = c + h * (-a_half * integ)
        i_pred = decay * (integ + 0.5 * h * c) + 0.5 * h * c_pred
        c_new = c + 0.5 * h * (-a_half * integ - a_half * i_pred)
        integ = decay * (integ + 0.5 * h * c) + 0.5 * h * c_new
        c = c_new
        out[k + 1] = c * c
    return out


def loop_tones(model):
    edges = np.geomspace(model.f_min, model.f_max, model.n_components + 1)
    f_k = np.sqrt(edges[:-1] * edges[1:])
    amp_k = np.sqrt(2.0 * nm.spectral_density(model, f_k) * np.diff(edges))
    return f_k, amp_k


def loop_phases(model, seed):
    return np.random.default_rng(seed).uniform(0.0, TWO_PI,
                                               size=model.n_components)


def loop_noise(model, duration, dt, seed):
    """The cos-sum noise synthesis, one realization at a time."""
    f_k, amp_k = loop_tones(model)
    phi_k = loop_phases(model, seed)
    t = np.arange(0.0, duration, dt)
    return (amp_k[:, None] * np.cos(
        TWO_PI * f_k[:, None] * t[None, :] + phi_k[:, None])).sum(axis=0)


def loop_ensemble(model, tau, n_realizations, seed, echo):
    """The per-realization Ramsey / echo loop the matrix form replaced."""
    f_k, amp_k = loop_tones(model)
    w = TWO_PI * f_k

    def phase(phi_k, tau):
        return ((amp_k / w)[None, :] * (
            np.sin(np.outer(tau, w) + phi_k[None, :])
            - np.sin(phi_k)[None, :])).sum(axis=1)

    acc = np.zeros(tau.size, dtype=complex)
    for r in range(n_realizations):
        phi_k = loop_phases(model, (seed, r))
        if echo:
            acc += np.exp(1j * (2.0 * phase(phi_k, 0.5 * tau)
                                - phase(phi_k, tau)))
        else:
            acc += np.exp(1j * phase(phi_k, tau))
    return np.abs(acc) / n_realizations


class TestStatesAndSpecs:
    def test_kernel_spec_validation(self):
        # the closed form takes Gamma^2 / 4 - A / 2: both must be finite
        with pytest.raises(ConfigError, match="^gamma_memory squared"):
            nm.evolve_kernel(1.0, 1e300, [0.0, 1e-9])
        with pytest.raises(ConfigError, match="^amplitude_a overflows"):
            nm.evolve_kernel(np.inf, 1.0, [0.0, 1e-9])

    def test_grid_validation(self):
        # the closed forms take any times in any order
        np.testing.assert_array_equal(
            nm.evolve_markovian(1e6, [2e-9, 0.0, 1e-9]),
            nm.evolve_markovian(1e6, [0.0, 1e-9, 2e-9])[[2, 0, 1]])


class TestMarkovianEvolution:
    def test_exact_closed_form(self):
        t = np.linspace(0.0, 4e-6, 101)
        p = nm.evolve_markovian(1e6, t)
        np.testing.assert_allclose(p, np.exp(-1e6 * t), rtol=1e-14)


class TestKernelEvolution:
    def test_against_quadrature(self):
        # the O(h^2) quadrature needs the fine grid, not the RK4 solver
        kernel = memory_kernel()
        t = np.linspace(0.0, 400e-9, 16001)
        p = nm.evolve_kernel(*kernel, t)
        p_ref = quadrature_population(kernel, t)
        assert np.abs(p - p_ref).max() < 1e-6

    def test_markov_limit(self):
        # fast memory: Gamma = 100 gamma, A = gamma Gamma collapses to
        # plain exponential decay at rate gamma
        gamma = TWO_PI * 5e4
        kernel = (gamma * (100.0 * gamma), 100.0 * gamma)
        t = np.linspace(0.0, 2.0 / gamma, 4001)
        p = nm.evolve_kernel(*kernel, t)
        p_m = np.exp(-gamma * t)
        mask = p_m > 1e-3
        rel = np.abs(p[mask] - p_m[mask]) / p_m[mask]
        assert rel.max() < 1.2e-2

    def test_population_stays_physical(self):
        t = np.linspace(0.0, 400e-9, 4001)
        p = nm.evolve_kernel(*memory_kernel(), t)
        assert p.min() >= -1e-6 and p.max() <= 1.0 + 1e-6

    def test_coarse_grid_matches_fine_grid(self):
        # the closed form has no step size: a 5-point grid gives the
        # values of the fine grid, and of the quadrature, at its times
        kernel = memory_kernel()
        t = np.linspace(0.0, 400e-9, 4001)
        p = nm.evolve_kernel(*kernel, t)
        p5 = nm.evolve_kernel(*kernel, t[::1000])
        np.testing.assert_allclose(p5, p[::1000], rtol=0.0, atol=1e-14)
        t_fine = np.linspace(0.0, 400e-9, 16001)
        p_ref = quadrature_population(kernel, t_fine)[::4000]
        assert np.abs(p5 - p_ref).max() < 1e-6

    def test_critical_damping(self):
        # q = 0 exactly: c = exp(-Gamma t/2) (1 + Gamma t/2), and a kernel
        # a hair either side of it gives the same trace
        gm = TWO_PI * 5e6
        t = np.linspace(0.0, 400e-9, 401)
        exact = (np.exp(-0.5 * gm * t) * (1.0 + 0.5 * gm * t)) ** 2
        for factor in (1.0, 1.0 - 1e-10, 1.0 + 1e-10):
            kernel = (0.5 * gm * gm * factor, gm)
            p = nm.evolve_kernel(*kernel, t)
            np.testing.assert_allclose(p, exact, rtol=1e-8, atol=1e-15)

    def test_long_overdamped_trace_stays_finite(self):
        # exp(-Gamma t/2) cosh(q t) overflows once q t passes ~710; the
        # trace must still decay at the slow root's rate 2 (Gamma/2 - q)
        gamma = TWO_PI * 5e4
        kernel = (gamma * (100.0 * gamma), 100.0 * gamma)
        t = np.linspace(0.0, 20.0 / gamma, 2001)
        p = nm.evolve_kernel(*kernel, t)
        assert np.all(np.isfinite(p)) and p[-1] > 0.0
        amplitude_a, gm = kernel
        slow = 2.0 * (0.5 * gm - np.sqrt(0.25 * gm * gm
                                         - 0.5 * amplitude_a))
        np.testing.assert_allclose(nm.gamma_eff(p, t[1])[-100:], slow,
                                   rtol=1e-6)


class TestEffectiveRate:
    def test_exponential_trace_gives_constant_rate(self):
        gamma = 3e5
        t = np.linspace(0.0, 5e-6, 501)
        g = nm.gamma_eff(np.exp(-gamma * t), t[1])
        # ln p is linear so every stencil is exact to roundoff
        assert np.abs(g - gamma).max() / gamma < 1e-10
        assert np.std(g) / np.mean(g) < 1e-3

    def test_constant_trace_gives_zero(self):
        t = np.linspace(0.0, 1e-6, 101)
        g = nm.gamma_eff(np.full(101, 0.42), t[1])
        # roundoff in ln p is amplified by 1/h in the stencil
        assert np.abs(g).max() < 1e-7

    def test_backflow_interval_geometry(self):
        # underdamped kernel: c'' + Gamma c' + (A/2) c = 0 with
        # Omega = sqrt(A/2 - Gamma^2/4); negative-rate windows open at
        # each zero of c and repeat every pi/Omega
        amplitude_a, gamma_memory = memory_kernel()
        t = np.linspace(0.0, 400e-9, 4001)
        p = nm.evolve_kernel(amplitude_a, gamma_memory, t)
        g = nm.gamma_eff(np.maximum(p, 1e-300), t[1])
        neg = g < 0.0
        edges = np.flatnonzero(np.diff(neg.astype(int)) == 1)
        starts = t[edges + 1]
        assert starts.size >= 3
        omega = np.sqrt(0.5 * amplitude_a - 0.25 * gamma_memory ** 2)
        t_star = (np.pi - np.arctan(2.0 * omega / gamma_memory)) \
            / omega
        assert abs(starts[0] - t_star) < 1e-9
        spacing = np.diff(starts[:3])
        np.testing.assert_allclose(spacing, np.pi / omega, rtol=0.02)

    def test_rate_integrates_back_to_trace(self):
        # before the first population zero the rate and the trace are
        # mutual inverses
        t = np.linspace(0.0, 40e-9, 2001)
        p = nm.evolve_kernel(*memory_kernel(), t)
        g = nm.gamma_eff(p, t[1])
        chi = cumulative_trapezoid(g, t, initial=0.0)
        np.testing.assert_allclose(np.exp(-chi), p, atol=1e-4)

    def test_validation(self):
        t = np.linspace(0.0, 1e-6, 101)
        p = np.exp(-1e5 * t)
        with pytest.raises(ConfigError):
            nm.gamma_eff(p, t[1], smoothing_window=4)
        with pytest.raises(ConfigError):
            nm.gamma_eff(p, t[1], smoothing_window=3)
        with pytest.raises(ConfigError, match="smoothing_window"):
            nm.gamma_eff(p, t[1], smoothing_window=103)

    def test_smoothing_preserves_shape(self):
        t = np.linspace(0.0, 1e-6, 201)
        p = np.exp(-2e5 * t)
        g = nm.gamma_eff(p, t[1], smoothing_window=11)
        assert g.shape == t.shape
        assert np.abs(g - 2e5).max() / 2e5 < 1e-6

    @pytest.mark.parametrize("window", [5, 7, 9, 41, 101])
    def test_smoothing_matches_savgol_filter(self, window):
        kernel = memory_kernel()
        t = np.linspace(0.0, 400e-9, 4001)
        p = np.maximum(nm.evolve_kernel(*kernel, t),
                       1e-300)
        g = nm.gamma_eff(p, t[1])
        ref = savgol_filter(g, window, 2)
        got = nm.gamma_eff(p, t[1], smoothing_window=window)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        # a window spanning the whole grid is one quadratic fit
        np.testing.assert_allclose(
            nm._savgol_quadratic(g[:window], window),
            savgol_filter(g[:window], window, 2),
            rtol=0.0, atol=1e-12 * np.abs(g[:window]).max())


class TestNoiseSynthesis:
    def test_model_validation(self):
        with pytest.raises(ConfigError):
            nm.NoiseModel(kind="one-over-f", amplitude=1.0, f_min=1e5,
                          f_max=1e3)
        # the extreme band the bounds admit has finite, positive tones
        m = nm.NoiseModel(kind="one-over-f", amplitude=1.0,
                          f_min=nm._F_MIN, f_max=nm._F_MAX)
        f_k, amp_k = nm._tones(m)
        assert np.all(f_k > 0.0) and np.all(np.isfinite(f_k))
        assert np.all(np.isfinite(amp_k))

    def test_spectral_density_shapes(self):
        m1 = nm.NoiseModel(kind="one-over-f", amplitude=2e9)
        f = np.geomspace(1e3, 3e5, 50)
        np.testing.assert_allclose(nm.spectral_density(m1, f), 2e9 / f)
        mf = nm.NoiseModel(kind="filtered", amplitude=2e9,
                           filter_center=3e3, filter_depth=30.0)
        s = nm.spectral_density(mf, np.array([3e3]))[0]
        suppression_db = 10.0 * np.log10((2e9 / 3e3) / s)
        assert suppression_db >= 27.0   # full depth minus tolerance

    def test_synthesis_deterministic(self):
        m = nm.NoiseModel(kind="one-over-f", amplitude=1e10)
        x1 = nm.synthesize_noise(m, 1e-3, 1e-6, [5])
        x2 = nm.synthesize_noise(m, 1e-3, 1e-6, [5])
        np.testing.assert_array_equal(x1, x2)
        x3 = nm.synthesize_noise(m, 1e-3, 1e-6, [6])
        assert np.abs(x1 - x3).max() > 0.0

    def test_zero_amplitude_is_silent(self):
        m = nm.NoiseModel(kind="one-over-f", amplitude=0.0)
        assert np.abs(nm.synthesize_noise(m, 1e-4, 1e-6, [0])).max() \
            == 0.0
        tau = np.linspace(0.0, 1e-5, 11)
        for contrast in nm.dephasing([m], tau, 200, 0):
            np.testing.assert_allclose(contrast, 1.0, atol=1e-12)

    def test_batched_noise_matches_single_seeds_and_cos_sum(self):
        m = nm.NoiseModel(kind="one-over-f", amplitude=5.4e11,
                          n_components=256)
        # 700 samples: two full NOISE_BLOCKs and a partial one
        x = nm.synthesize_noise(m, 7e-4, 1e-6, [11, 12, 13])
        assert x.shape == (3, 700)
        for row, seed in zip(x, (11, 12, 13)):
            one = nm.synthesize_noise(m, 7e-4, 1e-6, [seed])[0]
            ref = loop_noise(m, 7e-4, 1e-6, seed)
            scale = np.abs(ref).max()
            assert np.abs(one - row).max() <= 1e-12 * scale
            assert np.abs(one - ref).max() <= 1e-9 * scale

    def test_block_rotation_matches_cos_sum_over_long_trace(self):
        # at 2 ms the top tone's phase w t0 passes 3.7e3 rad: each block's
        # start rotation is taken afresh, so no rounding builds up
        m = nm.NoiseModel(kind="one-over-f", amplitude=5.4e11,
                          n_components=256)
        x = nm.synthesize_noise(m, 2e-3, 1e-6, [21, 22])
        assert TWO_PI * m.f_max * 2e-3 > 1e3
        for row, seed in zip(x, (21, 22)):
            ref = loop_noise(m, 2e-3, 1e-6, seed)
            assert np.abs(row - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_phase_integral_matches_trapezoid(self):
        m = nm.NoiseModel(kind="one-over-f", amplitude=1e9, f_max=1e5,
                          n_components=128)
        f_k, amp_k = loop_tones(m)
        phi_k = loop_phases(m, 3)
        dt = 2e-8
        t = np.arange(0.0, 20e-6 + dt, dt)
        x = (amp_k[:, None] * np.cos(
            TWO_PI * f_k[:, None] * t[None, :]
            + phi_k[:, None])).sum(axis=0)
        acc = cumulative_trapezoid(x, t, initial=0.0)
        w = TWO_PI * f_k
        taus = np.array([5e-6, 1e-5, 2e-5])
        exact = nm._chunk_phases(nm._tone_tables(w, taus),
                                 (amp_k / w)[None, :],
                                 phi_k[None, :].copy(),
                                 np.empty((1, 1, w.size)),
                                 np.empty((2, 2 * taus.size, 1))
                                 )[:taus.size, 0, 0]
        for tau, phase in zip(taus, exact):
            idx = int(round(tau / dt))
            assert abs(acc[idx] - phase) < 1e-3 * max(1.0, abs(phase))

    def test_double_angle_tables_match_direct_transcendentals(self):
        # the packaged spectroscopy grid: w tau reaches 23 rad
        m = nm.NoiseModel(kind="one-over-f", amplitude=5.4e11,
                          n_components=1024)
        w = TWO_PI * nm._tones(m)[0]
        tau = np.geomspace(0.3e-6, 12e-6, 90)
        sin_t, cos_t = nm._tone_tables(w, tau)
        wt = np.outer(np.concatenate([tau, 0.5 * tau]), w)
        np.testing.assert_allclose(sin_t, np.sin(wt), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(cos_t, np.cos(wt) - 1.0, rtol=0.0,
                                   atol=1e-15)

    def test_spectrum_slope(self):
        m = nm.NoiseModel(kind="one-over-f", amplitude=5.4e11,
                          n_components=1024)
        f, psa = nm.averaged_periodogram(m, 2e-3, 1e-6,
                                         range(400, 410))
        band = (f > 3e3) & (f < 1e5)
        slope = np.polyfit(np.log10(f[band]), np.log10(psa[band]), 1)[0]
        assert abs(slope + 1.0) < 0.25

    def test_periodogram_averages_single_traces(self):
        m = nm.NoiseModel(kind="one-over-f", amplitude=1e10)
        dt, dur = 1e-6, 5e-4
        f, psa = nm.averaged_periodogram(m, dur, dt, [7, 8])
        pws = []
        for seed in (7, 8):
            x = loop_noise(m, dur, dt, seed)
            pws.append(np.abs(np.fft.rfft(x - x.mean())) ** 2 * dt / x.size)
        np.testing.assert_allclose(f, np.fft.rfftfreq(x.size, dt))
        np.testing.assert_allclose(psa, 0.5 * (pws[0] + pws[1]),
                                   rtol=1e-9, atol=1e-12 * psa.max())

    @pytest.mark.parametrize("kind", ["one-over-f", "filtered"])
    def test_ensembles_match_per_realization_loop(self, kind):
        # both models share one tone grid, so one phase draw and one pair
        # of matrix products serve them, whichever comes first
        models = [nm.NoiseModel(kind="one-over-f", amplitude=5.4e11,
                                n_components=128),
                  nm.NoiseModel(kind="filtered", amplitude=6e10,
                                n_components=128)]
        if kind == "filtered":
            models.reverse()
        tau = np.geomspace(0.3e-6, 12e-6, 12)
        ramsey, echo = nm.dephasing(models, tau, 200, 42)
        assert ramsey.shape == echo.shape == (2, 12)
        for k, m in enumerate(models):
            np.testing.assert_allclose(
                ramsey[k], loop_ensemble(m, tau, 200, 42, echo=False),
                rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(
                echo[k], loop_ensemble(m, tau, 200, 42, echo=True),
                rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_realizations", [200, 201, 263])
    def test_streamed_ensemble_matches_loop_off_chunk(self, n_realizations):
        # no ensemble size is a multiple of the chunk: the last chunk is
        # partial, and both models share every chunk's matrix products
        assert n_realizations % nm.CHUNK
        models = [nm.NoiseModel(kind="one-over-f", amplitude=5.4e11,
                                n_components=128),
                  nm.NoiseModel(kind="filtered", amplitude=6e10,
                                n_components=128)]
        tau = np.geomspace(0.3e-6, 12e-6, 8)
        ramsey, echo = nm.dephasing(models, tau, n_realizations, 9)
        for k, m in enumerate(models):
            for got, is_echo in ((ramsey[k], False), (echo[k], True)):
                np.testing.assert_allclose(
                    got, loop_ensemble(m, tau, n_realizations, 9, is_echo),
                    rtol=0.0, atol=1e-12)

    def test_split_tone_grids_match_single_model_runs(self):
        # models on different tone grids fall into separate groups of the
        # same pass (here the first and last share one); each row is the
        # model's own ensemble
        models = [nm.NoiseModel(kind="one-over-f", amplitude=5.4e11,
                                n_components=256),
                  nm.NoiseModel(kind="filtered", amplitude=6e10,
                                n_components=128),
                  nm.NoiseModel(kind="one-over-f", amplitude=2e11,
                                f_min=2e3, n_components=256),
                  nm.NoiseModel(kind="filtered", amplitude=6e10,
                                n_components=256)]
        tau = np.geomspace(0.3e-6, 12e-6, 10)
        ramsey, echo = nm.dephasing(models, tau, 200, 5)
        for k, m in enumerate(models):
            ramsey_one, echo_one = nm.dephasing([m], tau, 200, 5)
            np.testing.assert_allclose(ramsey[k], ramsey_one[0],
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(echo[k], echo_one[0],
                                       rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            echo[1], loop_ensemble(models[1], tau, 200, 5, echo=True),
            rtol=0.0, atol=1e-12)


class TestHalfAngleSinCos:
    """_sincos takes every tone-phase sine and cosine from tan(x/2):
    within 2^-51 of NumPy's sin and cos, in place."""

    @staticmethod
    def sincos(x):
        s, c = np.empty_like(x), np.empty_like(x)
        nm._sincos(x, s, c)
        return s, c

    @pytest.mark.parametrize("x", [
        pytest.param(np.random.default_rng(0).uniform(0.0, TWO_PI, 10 ** 6),
                     id="uniform-phases"),
        # the ranges of Phi and of w tau
        pytest.param(np.random.default_rng(1).uniform(-1e3, 1e3, 10 ** 6),
                     id="wide-arguments"),
        pytest.param(np.array([0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi]),
                     id="quadrants"),
        # tan(x/2) is largest just below pi
        pytest.param(np.array([np.nextafter(np.pi, 0.0),
                               -np.nextafter(np.pi, 0.0)]), id="below-pi"),
    ])
    def test_matches_numpy_sin_cos(self, x):
        s, c = self.sincos(x)
        np.testing.assert_allclose(s, np.sin(x), rtol=0.0, atol=2.0 ** -51)
        np.testing.assert_allclose(c, np.cos(x), rtol=0.0, atol=2.0 ** -51)
        assert np.abs(s * s + c * c - 1.0).max() <= 1e-15

    def test_in_place_into_either_output(self):
        x = np.random.default_rng(2).uniform(-50.0, 50.0, 1000)
        want = self.sincos(x)
        y, other = x.copy(), np.empty_like(x)
        nm._sincos(y, y, other)                 # x becomes its sine
        np.testing.assert_array_equal([y, other], want)
        y = x.copy()
        nm._sincos(y, other, y)                 # x becomes its cosine
        np.testing.assert_array_equal([other, y], want)


class TestSpectroscopyMemory:
    """The ensemble streams in chunks through buffers allocated once per
    call, and the tone tables are built in place: traced NumPy peaks at
    the packaged spectroscopy defaults (one ensemble held whole, and
    tables of direct transcendentals, peaked at about 18 and 11 MB)."""

    @staticmethod
    def traced_peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_dephasing_and_periodogram_peaks(self):
        cfg = cli.resolve_config("spectroscopy", None, [])
        models = [cli._noise_model(kind, section, cfg[section])
                  for kind, section in (("one-over-f", "one_over_f"),
                                        ("filtered", "filtered"))]
        t, p = cfg["tau"], cfg["spectrum"]
        tau = np.geomspace(t["start_s"], t["stop_s"], t["n"])

        def dephasing_peak(n_realizations):
            return self.traced_peak_mb(lambda: nm.dephasing(
                models, tau, n_realizations, cfg["seed"]))

        dephasing_peak(200)                     # warm-up
        peak = dephasing_peak(cfg["n_realizations"])
        # the peak does not grow with the ensemble (Python objects move
        # it by about 0.1 kB from call to call); the bound, the peak with
        # per-chunk arrays (5.33 MB) plus 0.25 MB, fails one more array
        # of the phase draw's size (0.5 MB) per chunk
        assert dephasing_peak(2000) == pytest.approx(peak, abs=1e-3)
        assert peak < 5.58
        assert self.traced_peak_mb(lambda: nm.averaged_periodogram(
            models[0], p["duration_s"], p["dt_s"],
            range(cfg["seed"], cfg["seed"] + p["n_avg"]))) < 9.5


class TestFitDecay:
    def test_stretched_recovers_known_exponents(self):
        t = np.linspace(0.1e-6, 8e-6, 40)
        for beta_true in (1.0, 2.0, 3.0):
            y = np.exp(-(t / 2.0e-6) ** beta_true)
            y = np.clip(y, 1e-280, 1.0)
            timescale, beta = nm.fit_decay(t, y)
            assert beta == pytest.approx(beta_true, abs=0.02)
            assert timescale == pytest.approx(2.0e-6, rel=0.01)

    def test_stretched_tolerates_noise(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0.1e-6, 6e-6, 40)
        y = np.exp(-(t / 2.0e-6) ** 2) + rng.normal(0.0, 0.01, t.size)
        y = np.clip(y, 1e-6, 1.0)
        assert nm.fit_decay(t, y)[1] == pytest.approx(2.0, abs=0.1)

    def test_fit_validation(self):
        t = np.linspace(0.1e-6, 8e-6, 25)
        y = np.exp(-t / 2e-6)
        with pytest.raises(ConfigError):
            nm.fit_decay(t[:5], y[:5])
        with pytest.raises(ConfigError):
            nm.fit_decay(t, y - 1.0)
        with pytest.raises(NumericalError):
            nm.fit_decay(t, np.ones(25))


class TestSpectroscopyProtocol:
    """Light version of the frozen dephasing protocol; the full
    500-realization run lives with the acceptance checks."""

    def test_echo_never_below_ramsey(self):
        m = nm.NoiseModel(kind="one-over-f", amplitude=5.4e11,
                          n_components=1024)
        tau = np.geomspace(0.3e-6, 12e-6, 30)
        (r,), (e,) = nm.dephasing([m], tau, 250, 42)
        mask = r > 0.15
        assert np.all(e[mask] >= r[mask] - 0.01)

    def test_exponent_separation_smoke(self):
        tau = np.geomspace(0.3e-6, 12e-6, 60)

        def fit_window(y):
            m = (y > 0.25) & (y < 0.85)
            return nm.fit_decay(tau[m], np.minimum(y[m], 1.0))[1]

        m1 = nm.NoiseModel(kind="one-over-f", amplitude=5.4e11,
                           n_components=1024)
        mf = nm.NoiseModel(kind="filtered", amplitude=6e10,
                           filter_center=3e3, filter_depth=30.0,
                           n_components=1024)
        echo_1f, echo_f = nm.dephasing([m1, mf], tau, 250, 42)[1]
        b1, bf = fit_window(echo_1f), fit_window(echo_f)
        assert 2.3 < b1 < 3.9
        assert 1.3 < bf < 2.7
        assert b1 > bf
