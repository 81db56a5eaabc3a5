"""Open-system dynamics of a single decaying two-level system: Lindblad
relaxation, an exponential-memory kernel with information backflow, the
effective decoherence rate, and Monte Carlo dephasing spectroscopy
(Ramsey / Hahn echo under synthesized classical frequency noise).

Population convention: rho00 labels the DECAYING (excited) population
throughout, so evolve_* traces start at rho00(0) and relax toward 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

TWO_PI = 2.0 * math.pi
NOISE_BLOCK = 256       # time samples per block of the noise synthesis


@dataclass
class TwoLevelState:
    rho: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=complex)
        if r.shape != (2, 2):
            raise ConfigError("rho must be 2x2")
        if np.abs(r - r.conj().T).max() > 1e-12:
            raise ConfigError("rho must be Hermitian")
        if abs(r.trace() - 1.0) > 1e-12:
            raise ConfigError("rho must have unit trace")
        if np.linalg.eigvalsh(r).min() < -1e-10:
            raise ConfigError("rho must be positive semidefinite")
        self.rho = r

    @property
    def population(self) -> float:
        """The decaying population rho00."""
        return float(self.rho[0, 0].real)


def excited_state(p0: float = 1.0) -> TwoLevelState:
    if not 0.0 <= p0 <= 1.0:
        raise ConfigError("p0 must lie in [0, 1]")
    return TwoLevelState(np.diag([p0, 1.0 - p0]).astype(complex))


@dataclass(frozen=True)
class KernelSpec:
    kind: str                        # "markovian" | "exponential-kernel"
    amplitude_a: float = 0.0         # kernel amplitude A [1/s^2]
    gamma_memory: float = 0.0        # memory decay rate Gamma [1/s]
    markovian_gamma: float = 0.0     # gamma for the memoryless kind [1/s]

    def __post_init__(self):
        if self.kind not in ("markovian", "exponential-kernel"):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        for name in ("amplitude_a", "gamma_memory", "markovian_gamma"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.kind == "exponential-kernel" and self.gamma_memory <= 0.0:
            raise ConfigError("gamma_memory must be > 0 for an exponential "
                              "kernel")


def default_kernel() -> KernelSpec:
    """Memory regime calibrated so the decay rate transiently turns
    negative within the first 100 ns, then frozen."""
    gamma_mem = TWO_PI * 5e6
    return KernelSpec(kind="exponential-kernel",
                      amplitude_a=4.0 * gamma_mem ** 2,
                      gamma_memory=gamma_mem,
                      markovian_gamma=gamma_mem / 100.0)


def _check_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ConfigError("t_grid must be 1-D with at least 2 points")
    if t[0] != 0.0:
        raise ConfigError("t_grid must start at 0")
    if np.any(np.diff(t) <= 0.0):
        raise ConfigError("t_grid must be strictly increasing")
    return t


def evolve_markovian(state: TwoLevelState, gamma: float,
                     t_grid) -> np.ndarray:
    """Population trace under plain relaxation at rate gamma (H = 0,
    collapse operator sigma-minus), in closed form."""
    t = _check_grid(t_grid)
    if gamma < 0.0:
        raise ConfigError("gamma must be nonnegative")
    return state.population * np.exp(-gamma * t)


def evolve_kernel(state: TwoLevelState, kernel: KernelSpec,
                  t_grid) -> np.ndarray:
    """Population trace under the exponential memory kernel
    K(t - tau) = A exp(-Gamma (t - tau)).

    Solved at the amplitude level: the excited amplitude c obeys
    c'(t) = -integral K(t-tau)/2 c(tau) dtau, i.e.
        c'' + Gamma c' + (A/2) c = 0,   c(0) = sqrt(p0),   c'(0) = 0,
    and p = c^2. This keeps the state physical through the backflow
    regime (a population-level embedding of the same kernel swings
    negative once A/Gamma^2 is of order 1, which no valid density matrix
    can do); the memoryless limit recovers the rate gamma = A/Gamma.
    The closed form is
        c(t) = c(0) exp(-Gamma t/2) [cosh(q t) + (Gamma/2) sinh(q t)/q]
    with q = sqrt(Gamma^2/4 - A/2), imaginary when underdamped.
    """
    if kernel.kind != "exponential-kernel":
        raise ConfigError("evolve_kernel needs an exponential-kernel spec")
    t = _check_grid(t_grid)
    gm = kernel.gamma_memory
    q = np.sqrt(complex(0.25 * gm * gm - 0.5 * kernel.amplitude_a))
    # written with exponentials that never grow (Re q <= Gamma/2), so long
    # overdamped traces do not overflow; sinh(q t)/q -> t at q = 0
    z = -2.0 * q * t
    sinhc = -np.expm1(z) / (2.0 * q) if q != 0.0 else t
    c = math.sqrt(state.population) * (np.exp((q - 0.5 * gm) * t) * (
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


def gamma_eff(t_grid, trace, smoothing_window: int | None = None
              ) -> np.ndarray:
    """Instantaneous decay rate -d/dt ln p via a 5-point central stencil
    (one-sided at the ends), optionally smoothed by a local quadratic
    (odd window >= 5)."""
    t = np.asarray(t_grid, dtype=float)
    p = np.asarray(trace, dtype=float)
    if t.shape != p.shape or t.ndim != 1 or t.size < 5:
        raise ConfigError("need matching 1-D grids with >= 5 points")
    if np.any(p <= 0.0):
        raise ConfigError("gamma_eff needs a strictly positive trace")
    h = np.diff(t)
    if np.abs(h - h[0]).max() > 1e-9 * h[0]:
        raise ConfigError("gamma_eff needs a uniform grid")
    h = h[0]
    f = np.log(p)
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
            raise ConfigError(f"smoothing_window ({smoothing_window}) must "
                              f"not exceed the {g.size} grid points")
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
        if self.kind not in ("one-over-f", "filtered"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if not self.f_min > 0.0:
            raise ConfigError("f_min must be > 0")
        if not self.f_max > self.f_min:
            raise ConfigError("f_max must be > f_min")
        if self.n_components < 100:
            raise ConfigError("n_components must be >= 100")
        if self.amplitude < 0.0:
            raise ConfigError("amplitude must be nonnegative")


def spectral_density(model: NoiseModel, f) -> np.ndarray:
    """One-sided S(f) of the frequency noise, [(rad/s)^2/Hz]. The
    filtered kind carves a Gaussian notch (in log10 f, half-decade sigma)
    of filter_depth dB at filter_center."""
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0.0):
        raise ConfigError("spectral density needs f > 0")
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


def _phases(model: NoiseModel, seeds) -> np.ndarray:
    """Uniform tone phases, one row per seed, each row drawn from its own
    default_rng(seed) stream."""
    rows = [np.random.default_rng(s).uniform(0.0, TWO_PI,
                                             size=model.n_components)
            for s in seeds]
    if not rows:
        raise ConfigError("need at least one seed")
    return np.array(rows)


def synthesize_noise(model: NoiseModel, duration: float, dt: float,
                     seed) -> np.ndarray:
    """Realizations of the frequency-noise trajectory delta-omega(t)
    [rad/s] on a uniform grid, deterministic under seed: a 1-D trace for
    an int seed, or one row per seed for a sequence of ints (row k equals
    the trace for seed[k] alone)."""
    if duration <= 0.0 or dt <= 0.0 or dt >= duration:
        raise ConfigError("need 0 < dt < duration")
    single = np.ndim(seed) == 0
    f_k, amp_k = _tones(model)
    phi = _phases(model, [seed] if single else seed)
    a_cos, a_sin = amp_k * np.cos(phi), amp_k * np.sin(phi)
    w = TWO_PI * f_k
    t = np.arange(0.0, duration, dt)
    x = np.empty((phi.shape[0], t.size))
    # cos(w t + phi) = cos(w t) cos(phi) - sin(w t) sin(phi); blocks of
    # NOISE_BLOCK samples bound the tables of w t
    for start in range(0, t.size, NOISE_BLOCK):
        wt = np.outer(w, t[start:start + NOISE_BLOCK])
        x[:, start:start + NOISE_BLOCK] = a_cos @ np.cos(wt) \
            - a_sin @ np.sin(wt)
    return x[0] if single else x


def averaged_periodogram(model: NoiseModel, duration: float, dt: float,
                         seeds):
    """One-sided periodogram of the mean-removed trajectory, averaged over
    one realization per seed: (f [Hz], S [(rad/s)^2/Hz])."""
    x = synthesize_noise(model, duration, dt, list(seeds))
    n_t = x.shape[1]
    pw = np.abs(np.fft.rfft(x - x.mean(axis=1, keepdims=True), axis=1)) \
        ** 2 * dt / n_t
    return np.fft.rfftfreq(n_t, dt), pw.mean(axis=0)


def _phase_integral(w, a_cos, a_sin, tau):
    """Exact integral of the tone sum from 0 to each tau, for every
    realization at once: Phi[tau, r] [rad]. Column r of a_cos (a_sin)
    holds amp_k/w_k cos(phi_k) (sin(phi_k)) of realization r, so
    sin(w tau + phi) - sin(phi) becomes two matrix products."""
    wt = np.outer(tau, w)
    return np.sin(wt) @ a_cos + (np.cos(wt) - 1.0) @ a_sin


def _ensemble(model, tau_grid, n_realizations, seed, echo):
    tau = np.asarray(tau_grid, dtype=float)
    if np.any(tau < 0.0):
        raise ConfigError("tau grid must be nonnegative")
    if n_realizations < 200:
        raise ConfigError("n_realizations must be >= 200")
    f_k, amp_k = _tones(model)
    w = TWO_PI * f_k
    phi = _phases(model, ((seed, r) for r in range(n_realizations))).T
    a_k = (amp_k / w)[:, None]
    a_cos, a_sin = a_k * np.cos(phi), a_k * np.sin(phi)
    if echo:
        phase = 2.0 * _phase_integral(w, a_cos, a_sin, 0.5 * tau) \
            - _phase_integral(w, a_cos, a_sin, tau)
    else:
        phase = _phase_integral(w, a_cos, a_sin, tau)
    return np.abs(np.exp(1j * phase).sum(axis=1)) / n_realizations


def ramsey(model: NoiseModel, tau_grid, n_realizations: int,
           seed: int) -> np.ndarray:
    """Free-induction contrast |<exp(i Phi(tau))>| over the ensemble."""
    return _ensemble(model, tau_grid, n_realizations, seed, echo=False)


def hahn_echo(model: NoiseModel, tau_grid, n_realizations: int,
              seed: int) -> np.ndarray:
    """Echo amplitude with a refocusing flip at tau/2, same ensemble
    construction (paired seeds make echo >= Ramsey comparisons exact)."""
    return _ensemble(model, tau_grid, n_realizations, seed, echo=True)


@dataclass
class DecayFit:
    model: str                       # "exponential" | "stretched-exponential"
    timescale: float                 # [s]
    beta: float
    residual: float                  # rms in linear space


def fit_decay(t, y, kind: str = "stretched-exponential") -> DecayFit:
    """Fit y = exp(-(t/T)^beta) by damped Gauss-Newton on log residuals,
    seeded by a log-log line through the usable points. The exponential
    kind pins beta = 1 (closed-form least squares)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size != y.size or t.size < 8:
        raise ConfigError("need >= 8 samples")
    if np.any(y <= 0.0) or np.any(y > 1.0):
        raise ConfigError("samples must lie in (0, 1]")
    if kind not in ("exponential", "stretched-exponential"):
        raise ConfigError(f"unknown decay model {kind!r}")

    ln_y = np.log(y)
    if kind == "exponential":
        # minimize sum (ln y + t/T)^2 in 1/T
        denom = float(np.sum(t * ln_y))
        if denom >= 0.0:
            raise ConvergenceError("samples do not decay")
        timescale = -float(np.sum(t * t)) / denom
        resid = float(np.sqrt(np.mean((y - np.exp(-t / timescale)) ** 2)))
        return DecayFit("exponential", timescale, 1.0, resid)

    usable = (t > 0.0) & (y < 1.0)
    if usable.sum() < 4:
        raise ConvergenceError("too few decaying samples to seed the fit")
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
        raise ConvergenceError(
            f"fit left the admissible region (beta = {beta:.3f})")
    resid = float(np.sqrt(np.mean(
        (y - np.exp(-(t / timescale) ** beta)) ** 2)))
    return DecayFit("stretched-exponential", timescale, beta, resid)
