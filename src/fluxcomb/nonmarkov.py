"""Open-system dynamics of a single decaying two-level system: Lindblad
relaxation, an exponential-memory kernel with information backflow, the
effective decoherence rate, and Monte Carlo dephasing spectroscopy
(Ramsey and Hahn echo under synthesized classical frequency noise).

Every population trace is the excited population: evolve_* traces start
at 1 and relax toward 0.

Every tone sum is a matrix product in bounded blocks. dephasing streams
its realizations in chunks of CHUNK through buffers allocated once per
call, folds each model's amplitudes into a chunk's phases and adds the
chunk's sums of exp(i Phi) into accumulators. Every sine and cosine of a
tone phase (the tone tables, the phase draws, exp(i Phi) and the noise
synthesis's exp(i w t)) is taken in place by _sincos from one tan at half
the angle, which NumPy vectorizes where its float64 sin and cos may not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, shown

TWO_PI = 2.0 * math.pi
NOISE_BLOCK = 256       # time samples per block of the noise synthesis
CHUNK = 64              # realizations per chunk of the dephasing ensemble
# work caps, checked from a run's config before anything is allocated:
# floats in any one working array (128 MiB: a spectroscopy table or
# trace, or the complex amplitude of a nonmarkov kernel trace), and the
# multiply-adds of one spectroscopy tone sum (the dephasing ensemble or
# the noise synthesis; the packaged defaults need 3.7e8 and 1.7e8)
MAX_ARRAY = 1 << 24
MAX_TONE_TERMS = 10 ** 10
# the range of band edges and notch centres [Hz], held by cli.BOUNDS: a
# tone is the geometric mean of two bin edges, so their product neither
# underflows to 0 Hz nor overflows, and log10(f / filter_center) is finite
_F_MIN, _F_MAX = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)


def evolve_markovian(gamma: float, t_grid) -> np.ndarray:
    """Population trace under plain relaxation at rate gamma (H = 0,
    collapse operator sigma-minus), in closed form."""
    return np.exp(-gamma * np.asarray(t_grid, dtype=float))


def evolve_kernel(amplitude_a: float, gamma_memory: float, t_grid
                  ) -> np.ndarray:
    """Population trace under the exponential memory kernel
    K(t - tau) = A exp(-Gamma (t - tau)), with A = amplitude_a >= 0
    [1/s^2] and Gamma = gamma_memory > 0 [1/s], at times t >= 0.

    Solved at the amplitude level: the excited amplitude c obeys
    c'(t) = -integral K(t-tau)/2 c(tau) dtau, i.e.
        c'' + Gamma c' + (A/2) c = 0,   c(0) = 1,   c'(0) = 0,
    and p = c^2. This keeps the state physical through the backflow
    regime (a population-level embedding of the same kernel swings
    negative once A/Gamma^2 is of order 1, which no valid density matrix
    can do); the memoryless limit recovers the rate gamma = A/Gamma.
    The closed form is
        c(t) = exp(-Gamma t/2) [cosh(q t) + (Gamma/2) sinh(q t)/q]
    with q = sqrt(Gamma^2/4 - A/2), imaginary when underdamped.
    """
    gm = gamma_memory
    # the closed form takes Gamma^2/4 - A/2: both must be finite
    if not math.isfinite(gm * gm):
        raise ConfigError("gamma_memory squared overflows")
    if not math.isfinite(amplitude_a):
        raise ConfigError(f"amplitude_a overflows at gamma_memory = "
                          f"{gm:.3g} /s")
    t = np.asarray(t_grid, dtype=float)
    q = np.sqrt(complex(0.25 * gm * gm - 0.5 * amplitude_a))
    # the exponents (q - Gamma/2) t and -2 q t at the largest time
    t_top = float(np.max(t, initial=0.0))
    if not math.isfinite((2.0 * float(abs(q)) + gm) * t_top):
        raise ConfigError(f"t_grid reaches {t_top:.3e} s, where the "
                          "exponents of amplitude_a and gamma_memory "
                          "leave float range")
    # written with exponentials that never grow (Re q <= Gamma/2), so long
    # overdamped traces do not overflow; sinh(q t)/q -> t at q = 0
    z = -2.0 * q * t
    sinhc = -np.expm1(z) / (2.0 * q) if q != 0.0 else t
    c = (np.exp((q - 0.5 * gm) * t) * (
        0.5 * (1.0 + np.exp(z)) + 0.5 * gm * sinhc)).real
    return c * c


def _savgol_quadratic(y: np.ndarray, window: int) -> np.ndarray:
    """Least-squares quadratic over a sliding odd window, evaluated at its
    centre; the first and last window//2 samples take the quadratic fitted
    to the first and last `window` samples (SciPy's savgol_filter with
    mode="interp")."""
    m = window // 2
    vander = np.vander(np.arange(-m, m + 1.0), 3)
    hat = vander @ np.linalg.pinv(vander)     # window values -> fitted
    out = np.empty_like(y)
    out[m:y.size - m] = np.convolve(y, hat[m][::-1], mode="valid")
    out[:m] = hat[:m] @ y[:window]
    out[y.size - m:] = hat[m + 1:] @ y[y.size - window:]
    return out


def gamma_eff(trace, h: float, smoothing_window: int | None = None
              ) -> np.ndarray:
    """Instantaneous decay rate -d/dt ln p of a trace sampled every h
    seconds, via a 5-point central stencil (one-sided at the ends),
    optionally smoothed by a local quadratic (odd window >= 5)."""
    f = np.log(np.asarray(trace, dtype=float))
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d[0] = (f[1] - f[0]) / h
    d[1] = (f[2] - f[0]) / (2.0 * h)
    d[-2] = (f[-1] - f[-3]) / (2.0 * h)
    d[-1] = (f[-1] - f[-2]) / h
    g = -d
    if smoothing_window is not None:
        if smoothing_window < 5 or smoothing_window % 2 == 0:
            raise ConfigError("smoothing_window must be odd and >= 5")
        if smoothing_window > g.size:
            raise ConfigError(f"smoothing_window ({shown(smoothing_window)})"
                              f" must not exceed the {g.size} grid points")
        g = _savgol_quadratic(g, smoothing_window)
    return g


@dataclass(frozen=True)
class NoiseModel:
    kind: str                        # "one-over-f" | "filtered"
    amplitude: float                 # S(f) = amplitude / f  [(rad/s)^2/Hz]
    f_min: float = 1e3               # [Hz]
    f_max: float = 3e5               # [Hz]
    filter_center: float = 3e3       # [Hz]
    filter_depth: float = 30.0       # [dB]
    n_components: int = 256

    def __post_init__(self):
        if not self.f_max > self.f_min:
            raise ConfigError("f_max must be > f_min")
        # S(f) is at most amplitude / f times the notch's largest factor,
        # 10^(-filter_depth / 10) at a negative depth, and a tone's variance
        # S(f) df, with the same df / f = rho - 1 / rho at every tone
        boost = max(-self.filter_depth / 10.0, 0.0)
        top = self.amplitude * (10.0 ** boost if boost < 308.0 else math.inf)
        rho = (self.f_max / self.f_min) ** (0.5 / self.n_components)
        if not math.isfinite(top * max(1.0 / self.f_min,
                                       2.0 * (rho - 1.0 / rho))):
            raise ConfigError("amplitude, f_min, f_max, n_components, "
                              "filter_depth: the noise spectrum or a tone's "
                              "variance is out of float range")


def spectral_density(model: NoiseModel, f) -> np.ndarray:
    """One-sided S(f) of the frequency noise, [(rad/s)^2/Hz]. The
    filtered kind carves a Gaussian notch (in log10 f, half-decade sigma)
    of filter_depth dB at filter_center."""
    f = np.asarray(f, dtype=float)
    s = model.amplitude / f
    if model.kind == "filtered":
        logdist = np.log10(f / model.filter_center)
        s = s * 10.0 ** (-(model.filter_depth / 10.0)
                         * np.exp(-logdist ** 2 / (2.0 * 0.5 ** 2)))
    return s


def _tones(model: NoiseModel):
    """Log-spaced tone frequencies f_k [Hz] and amplitudes sqrt(2 var_k),
    with var_k integrating S(f) over each bin. A trajectory is
    sum_k sqrt(2 var_k) cos(2 pi f_k t + phi_k); only the phases phi_k
    depend on the seed."""
    edges = np.geomspace(model.f_min, model.f_max, model.n_components + 1)
    f_k = np.sqrt(edges[:-1] * edges[1:])
    var_k = spectral_density(model, f_k) * np.diff(edges)
    return f_k, np.sqrt(2.0 * var_k)


def _sincos(x, sin_out, cos_out):
    """sin x into sin_out and cos x into cos_out, from t = tan(x/2) by
    sin x = t r and cos x = r - 1 with r = 2/(1 + t^2). NumPy vectorizes
    float64 tan where its sin and cos may take the scalar libm path, and
    the halving is exact. x may be either output; nothing is allocated."""
    t = np.multiply(x, 0.5, out=sin_out)
    np.tan(t, out=t)
    r = np.multiply(t, t, out=cos_out)
    r += 1.0
    np.divide(2.0, r, out=r)
    t *= r
    r -= 1.0


def _view(buf, *shape):
    """The leading elements of the flat buffer buf, as an array of shape."""
    return buf[:math.prod(shape)].reshape(shape)


def _phases(seeds, out) -> np.ndarray:
    """Uniform tone phases in [0, 2 pi) into out, one row per seed, each
    row drawn from its own default_rng(seed) stream."""
    for row, s in zip(out, seeds):
        np.random.default_rng(s).random(out=row)
    out *= TWO_PI
    return out


def synthesize_noise(model: NoiseModel, duration: float, dt: float,
                     seeds) -> np.ndarray:
    """Realizations of the frequency-noise trajectory delta-omega(t)
    [rad/s] on a uniform grid, one row per seed; row k is deterministic
    under seeds[k] alone."""
    seeds = list(seeds)
    f_k, amp_k = _tones(model)
    w = TWO_PI * f_k
    t = np.arange(0.0, duration, dt)
    # amp cos(w (t0 + s) + phi) = Re[amp exp(i (phi + w t0)) exp(i w s)]:
    # one table over a block's offsets s, and each block's start t0 turned
    # into the coefficients; exp(i w t0) is taken afresh per block, so no
    # rounding accumulates along the trace.
    n_s, k = min(NOISE_BLOCK, t.size), w.size
    table = np.empty((2 * k, n_s))
    cos_s, sin_s = table[:k], table[k:]
    _sincos(np.multiply.outer(w, t[:n_s], out=cos_s), sin_s, cos_s)
    np.negative(sin_s, out=sin_s)
    coeff = np.empty((len(seeds), k), dtype=complex)
    _sincos(_phases(seeds, np.empty(coeff.shape)), coeff.imag, coeff.real)
    coeff *= amp_k
    turn = np.empty(k, dtype=complex)
    x = np.empty((len(seeds), t.size))
    for start in range(0, t.size, NOISE_BLOCK):
        _sincos(np.multiply(w, t[start], out=turn.real), turn.imag,
                turn.real)
        rotated = coeff * turn
        block = x[:, start:start + NOISE_BLOCK]
        block[:] = np.concatenate([rotated.real, rotated.imag], axis=1) \
            @ table[:, :block.shape[1]]
    return x


def averaged_periodogram(model: NoiseModel, duration: float, dt: float,
                         seeds):
    """One-sided periodogram of the mean-removed trajectory, averaged over
    one realization per seed: (f [Hz], S [(rad/s)^2/Hz])."""
    x = synthesize_noise(model, duration, dt, list(seeds))
    n_t = x.shape[1]
    # |rfft| of a mean-removed trace is at most 2 n_t times its largest
    # value, the sum of the tone amplitudes; the periodogram squares it
    top = 2.0 * n_t * float(np.sum(_tones(model)[1]))
    if not math.isfinite(top * top * dt):
        raise ConfigError("amplitude, f_min, f_max, n_components, duration, "
                          "dt: the periodogram of the noise trace is out of "
                          "float range")
    pw = np.abs(np.fft.rfft(x - x.mean(axis=1, keepdims=True), axis=1)) \
        ** 2 * dt / n_t
    return np.fft.rfftfreq(n_t, dt), pw.mean(axis=0)


def _tone_tables(w, tau):
    """sin(w t) and cos(w t) - 1 for t in tau, then in tau/2: two
    (2 tau.size, w.size) tables."""
    sin_t, cos_t = np.empty((2, 2 * tau.size, w.size))
    np.multiply.outer(np.concatenate([tau, 0.5 * tau]), w, out=cos_t)
    _sincos(cos_t, sin_t, cos_t)
    cos_t -= 1.0
    return sin_t, cos_t


def _chunk_phases(tables, amp_over_w, phi, folded, out):
    """Exact integral of the tone sum from 0 to each time of the tables,
    for every model and realization at once, into out[0] (returned as
    Phi[t, m, r] [rad]). Row m of amp_over_w holds model m's amp_k/w_k,
    folded into sin(phi) and cos(phi) with the models' rows stacked, so
    sin(w t + phi) - sin(phi) is one pair of matrix products. phi (a row
    per realization), folded (models x realizations x tones) and out[1]
    are scratch."""
    sin_t, cos_t = tables
    stacked = folded.reshape(-1, phi.shape[1]).T      # a view of folded
    _sincos(phi, folded[0], phi)
    np.multiply(amp_over_w[1:, None], folded[0], out=folded[1:])
    folded[0] *= amp_over_w[0]
    phase = np.matmul(cos_t, stacked, out=out[0])
    np.multiply(amp_over_w[:, None], phi, out=folded)
    phase += np.matmul(sin_t, stacked, out=out[1])
    return phase.reshape(sin_t.shape[0], *folded.shape[:2])


def dephasing(models, tau_grid, n_realizations: int, seed: int):
    """Ramsey and Hahn-echo contrasts of every noise model from one
    ensemble, (ramsey, echo), each shaped (len(models), n_tau):
    |<exp(i Phi(tau))>| for free induction, and the same with a refocusing
    flip at tau/2, whose phase is 2 Phi(tau/2) - Phi(tau). Realization r
    draws its tone phases from default_rng((seed, r)), so every contrast
    shares every trajectory and echo >= Ramsey comparisons are paired.
    Models with the same tone grid (f_min, f_max, n_components) share one
    phase draw and one pair of matrix products per chunk of realizations.
    The exact mean is prod_k J0(B_k(tau)) (Ithier et al., Phys. Rev. B 72,
    134519 (2005)), and test_nonmarkov's TestExactEnsembleMean checks the
    ensemble against it; the Monte Carlo stays because the packaged CSVs
    and the benchmark references are its seeded draws."""
    tau = np.asarray(tau_grid, dtype=float)
    groups = {}
    for m, model in enumerate(models):
        grid = (model.f_min, model.f_max, model.n_components)
        groups.setdefault(grid, []).append(m)
    # one chunk's buffers, sized for the largest group and shared by all
    k_max = max(k for _, _, k in groups)
    m_max = max(map(len, groups.values()))
    phi_buf = np.empty(CHUNK * k_max)
    folded_buf = np.empty(m_max * CHUNK * k_max)
    phase_bufs = [np.empty(2 * tau.size * m_max * CHUNK) for _ in range(2)]
    # sums of exp(i Phi) over the realizations: Ramsey, then echo
    acc = np.zeros((2, tau.size, len(models)), dtype=complex)
    for (_, _, k), members in groups.items():
        w = TWO_PI * _tones(models[members[0]])[0]
        amp_over_w = np.array([_tones(models[m])[1] for m in members]) / w
        tables = _tone_tables(w, tau)
        n_m = len(members)
        for r0 in range(0, n_realizations, CHUNK):
            n = min(CHUNK, n_realizations - r0)
            phi = _phases(((seed, r) for r in range(r0, r0 + n)),
                          _view(phi_buf, n, k))
            out = [_view(b, 2 * tau.size, n_m * n) for b in phase_bufs]
            phase = _chunk_phases(tables, amp_over_w, phi,
                                  _view(folded_buf, n_m, n, k),
                                  out).reshape(2, tau.size, n_m, n)
            phase[1] *= 2.0
            phase[1] -= phase[0]
            sin_phase = out[1].reshape(phase.shape)
            _sincos(phase, sin_phase, phase)
            acc[..., members] += (phase.sum(axis=3)
                                  + 1j * sin_phase.sum(axis=3))
    return tuple(np.abs(acc.transpose(0, 2, 1)) / n_realizations)


def fit_decay(t, y) -> tuple[float, float]:
    """Fit the stretched exponential y = exp(-(t/T)^beta) by damped
    Gauss-Newton on log residuals, seeded by a log-log line through the
    usable points: (T [s], beta)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size != y.size or t.size < 8:
        raise ConfigError("need >= 8 samples")
    if np.any(y <= 0.0) or np.any(y > 1.0):
        raise ConfigError("samples must lie in (0, 1]")

    ln_y = np.log(y)
    usable = (t > 0.0) & (y < 1.0)
    if usable.sum() < 4:
        raise NumericalError("too few decaying samples to seed the fit")
    u = np.log(-ln_y[usable])
    v = np.log(t[usable])
    beta, intercept = np.polyfit(v, u, 1)
    ln_t0 = -intercept / beta

    theta = np.array([ln_t0, beta])
    def residuals(th):
        return ln_y + np.exp(th[1] * (np.log(np.maximum(t, 1e-300))
                                      - th[0]))

    r = residuals(theta)
    cost = float(r @ r)
    for _ in range(60):
        # Jacobian of exp(beta (ln t - ln T)) wrt (ln T, beta)
        with np.errstate(divide="ignore"):
            lt = np.log(np.maximum(t, 1e-300))
        core = np.exp(theta[1] * (lt - theta[0]))
        jac = np.column_stack([-theta[1] * core, (lt - theta[0]) * core])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        lam = 1.0
        for _ in range(20):
            trial = theta + lam * step
            rt = residuals(trial)
            ct = float(rt @ rt)
            if ct < cost:
                theta, r, cost = trial, rt, ct
                break
            lam *= 0.5
        else:
            break
        if np.abs(lam * step).max() < 1e-12:
            break
    timescale, beta = math.exp(theta[0]), float(theta[1])
    if not (0.0 < beta <= 4.0) or not np.isfinite(timescale):
        raise NumericalError(
            f"fit left the admissible region (beta = {beta:.3f})")
    return timescale, beta
