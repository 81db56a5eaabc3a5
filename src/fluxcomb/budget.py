"""Gate-error budget for a frequency-multiplexed qubit array on a shared
bus: Purcell decay through the bus, engineered dephasing suppression, and
coherent crosstalk between comb neighbors.

One formula path serves both bus variants; the `kind` field is a label.
The dimensionless suppression constants and the gain profile are the
calibration set: tuned once against the target coherence and error bands,
then frozen here and in the default config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QubitArraySpec:
    """Comb of transmons at omega_i = n_i * omega_m on a shared bus."""

    n_qubits: int = 25
    omega_m: float = TWO_PI * 3e9        # comb spacing [rad/s]
    harmonic_indices: tuple = None       # default 1..N
    positions: tuple = None              # [m], default unit pitch
    t1_intrinsic: float = 150e-6         # [s]
    t2_intrinsic: float = 40e-6          # [s]
    g_coupling: float = TWO_PI * 50e6    # qubit-bus coupling [rad/s]
    kappa_bus: float = TWO_PI * 100e6    # bus dissipation [rad/s]
    t_gate: float = 0.5e-9               # [s]
    lambda_c: float = 12.0               # coupling decay length [m]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ConfigError("n_qubits must be >= 1")
        for name in ("omega_m", "t_gate", "t1_intrinsic", "t2_intrinsic",
                     "lambda_c"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.t2_intrinsic > 2.0 * self.t1_intrinsic:
            raise ConfigError("t2_intrinsic cannot exceed 2 * t1_intrinsic")
        if self.harmonic_indices is None:
            object.__setattr__(self, "harmonic_indices",
                               tuple(range(1, self.n_qubits + 1)))
        hi = self.harmonic_indices
        if len(hi) != self.n_qubits:
            raise ConfigError("harmonic_indices length must match n_qubits")
        if any(b <= a for a, b in zip(hi, hi[1:])):
            raise ConfigError("harmonic_indices must be strictly increasing")
        if self.positions is None:
            object.__setattr__(self, "positions",
                               tuple(float(i) for i in range(1,
                                                             self.n_qubits + 1)))
        if len(self.positions) != self.n_qubits:
            raise ConfigError("positions length must match n_qubits")

    @property
    def omega(self) -> np.ndarray:
        """Qubit frequencies [rad/s]."""
        return np.asarray(self.harmonic_indices, dtype=float) * self.omega_m


@dataclass(frozen=True)
class BusIsolationModel:
    kind: str                            # "reciprocal" | "nonreciprocal"
    c_purcell: float                     # Purcell suppression
    c_phi: float                         # dephasing suppression
    c0: float                            # residual bus leakage
    delta_bw: float                      # isolation bandwidth [rad/s]
    omega_res: float                     # bus resonance [rad/s]
    gain_floor: float = 0.5
    gain_peak: float = 2.0
    gain_center: float = None            # default omega_res
    gain_width: float = None             # [rad/s], default 8/13 of omega_res
    purcell_bw: float = None             # Lorentzian width [rad/s]; None ->
                                         # the bare bus linewidth kappa

    def __post_init__(self):
        if self.kind not in ("reciprocal", "nonreciprocal"):
            raise ConfigError(f"unknown bus kind {self.kind!r}")
        if not 0.0 < self.c_purcell <= 1.0:
            raise ConfigError("c_purcell must be in (0, 1]")
        if not 0.0 < self.c_phi <= 1.0:
            raise ConfigError("c_phi must be in (0, 1]")
        if not 0.0 < self.c0 < 1.0:
            raise ConfigError("c0 must be in (0, 1)")
        if self.delta_bw <= 0 or self.omega_res <= 0:
            raise ConfigError("delta_bw and omega_res must be positive")
        if self.gain_center is None:
            object.__setattr__(self, "gain_center", self.omega_res)
        if self.gain_width is None:
            object.__setattr__(self, "gain_width",
                               8.0 / 13.0 * self.omega_res)
        if self.gain_floor <= 0 or self.gain_peak <= 0:
            raise ConfigError("gain must be positive everywhere")


@dataclass
class ErrorBudget:
    """Per-qubit lifetimes and gate-error components."""

    omega: np.ndarray                    # [rad/s]
    t1_eff: np.ndarray                   # [s]
    t2_eff: np.ndarray                   # [s]
    e_relax: np.ndarray
    e_dephase: np.ndarray
    e_crosstalk: np.ndarray

    @property
    def e_total(self) -> np.ndarray:
        return self.e_relax + self.e_dephase + self.e_crosstalk


def reciprocal_bus(omega_m: float = TWO_PI * 3e9) -> BusIsolationModel:
    """Plain shared bus. Flat sub-unity gain (insertion loss raises the
    effective environment coupling); no isolation engineering."""
    return BusIsolationModel(
        kind="reciprocal",
        c_purcell=4.8251e-5, c_phi=1.0, c0=0.3,
        delta_bw=0.4 * omega_m, omega_res=13.0 * omega_m,
        gain_floor=0.07, gain_peak=0.07,
        purcell_bw=16.0 * omega_m)


def nonreciprocal_bus(omega_m: float = TWO_PI * 3e9) -> BusIsolationModel:
    """Direction-selective bus: decay paths back into the bus are strongly
    suppressed, in-band gain peaks at the bus resonance."""
    return BusIsolationModel(
        kind="nonreciprocal",
        c_purcell=1.9e-6, c_phi=0.002, c0=0.005,
        delta_bw=0.4 * omega_m, omega_res=13.0 * omega_m,
        gain_floor=0.5, gain_peak=2.0, gain_width=8.0 * omega_m,
        purcell_bw=16.0 * omega_m)


def gain(model: BusIsolationModel, omega) -> float | np.ndarray:
    """Frequency-dependent insertion gain G(omega), Gaussian around the
    gain center with a flat floor."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise ConfigError("gain needs omega > 0")
    out = model.gain_floor + (model.gain_peak - model.gain_floor) * np.exp(
        -((omega - model.gain_center) ** 2)
        / (2.0 * model.gain_width ** 2))
    return float(out) if out.ndim == 0 else out


def purcell_rate(array: QubitArraySpec, model: BusIsolationModel,
                 i: int) -> float:
    """Bus-mediated decay rate of qubit i: Lorentzian filter around the bus
    resonance, gain-screened coupling, suppression constant."""
    _check_index(array, i)
    w = array.kappa_bus if model.purcell_bw is None else model.purcell_bw
    omega_i = array.harmonic_indices[i] * array.omega_m
    g_eff_sq = array.g_coupling ** 2 / gain(model, omega_i)
    lor = (w / 2.0) ** 2 / ((omega_i - model.omega_res) ** 2 + (w / 2.0) ** 2)
    return g_eff_sq / array.kappa_bus * lor * model.c_purcell


def t1_effective(array: QubitArraySpec, model: BusIsolationModel,
                 i: int) -> float:
    _check_index(array, i)
    return 1.0 / (1.0 / array.t1_intrinsic + purcell_rate(array, model, i))


def t2_effective(array: QubitArraySpec, model: BusIsolationModel,
                 i: int) -> float:
    gamma_phi = 1.0 / array.t2_intrinsic - 0.5 / array.t1_intrinsic
    t1 = t1_effective(array, model, i)
    return 1.0 / (0.5 / t1 + gamma_phi * model.c_phi)


def crosstalk_error(array: QubitArraySpec, model: BusIsolationModel,
                    i: int) -> float:
    """Coherent swap error on qubit i from every other comb tooth, with
    exponentially decaying coupling and gain screening at the victim."""
    _check_index(array, i)
    if array.n_qubits == 1:
        return 0.0
    omega = array.omega
    x = np.asarray(array.positions)
    others = np.arange(array.n_qubits) != i
    delta = np.abs(omega - omega[i])[others]
    if np.any(delta == 0.0):
        raise ConfigError("degenerate comb: two qubits share a frequency")
    g_ij = array.g_coupling * np.exp(
        -np.abs(x - x[i])[others] / array.lambda_c)
    c_bus = model.c0 + (1.0 - model.c0) * np.exp(
        -((delta / model.delta_bw) ** 2))
    terms = (g_ij / delta) ** 2 * np.sin(
        0.5 * delta * array.t_gate) ** 2 * c_bus
    return float(np.sum(terms)) / gain(model, omega[i])


def gate_error(array: QubitArraySpec, model: BusIsolationModel,
               i: int) -> dict:
    """Single-qubit error row: relaxation, dephasing, crosstalk, total."""
    t1 = t1_effective(array, model, i)
    t2 = t2_effective(array, model, i)
    row = {
        "qubit": i,
        "omega": array.harmonic_indices[i] * array.omega_m,
        "t1_eff": t1,
        "t2_eff": t2,
        "e_relax": array.t_gate / t1,
        "e_dephase": 1.0 - math.exp(-array.t_gate / t2),
        "e_crosstalk": crosstalk_error(array, model, i),
    }
    row["e_total"] = row["e_relax"] + row["e_dephase"] + row["e_crosstalk"]
    return row


def full_budget(array: QubitArraySpec, model: BusIsolationModel) -> ErrorBudget:
    rows = [gate_error(array, model, i) for i in range(array.n_qubits)]
    pull = lambda k: np.array([r[k] for r in rows])  # noqa: E731
    return ErrorBudget(
        omega=pull("omega"), t1_eff=pull("t1_eff"), t2_eff=pull("t2_eff"),
        e_relax=pull("e_relax"), e_dephase=pull("e_dephase"),
        e_crosstalk=pull("e_crosstalk"))


def scalability_sweep(array: QubitArraySpec, model: BusIsolationModel,
                      n_range) -> list[float]:
    """Worst-case total gate error as the comb is grown, keeping the
    template's per-qubit parameters."""
    n_range = list(n_range)
    if not n_range:
        raise ConfigError("n_range must be nonempty")
    out = []
    for n in n_range:
        arr = replace(array, n_qubits=int(n), harmonic_indices=None,
                      positions=None)
        out.append(float(np.max(full_budget(arr, model).e_total)))
    return out


def budget_decomposition(array: QubitArraySpec, model: BusIsolationModel,
                         i: int | None = None) -> dict:
    """Component breakdown for one qubit (default: the tooth nearest
    12x the comb spacing, mid-band). Separates the bus-induced part of
    relaxation (gamma_purcell * t_gate) from the intrinsic floor so
    isolation improvements can be read off directly."""
    if i is None:
        target = 12.0 * array.omega_m
        i = int(np.argmin(np.abs(array.omega - target)))
    row = gate_error(array, model, i)
    gamma_p = purcell_rate(array, model, i)
    total = row["e_total"]
    comp = {
        "qubit": i,
        "omega": row["omega"],
        "e_relax": row["e_relax"],
        "e_dephase": row["e_dephase"],
        "e_crosstalk": row["e_crosstalk"],
        "e_total": total,
        "gamma_purcell": gamma_p,
        "e_purcell": gamma_p * array.t_gate,
    }
    for k in ("e_relax", "e_dephase", "e_crosstalk"):
        comp[f"frac_{k[2:]}"] = comp[k] / total if total > 0.0 else 0.0
    return comp


def _check_index(array: QubitArraySpec, i: int):
    if not 0 <= i < array.n_qubits:
        raise ConfigError(f"qubit index {i} outside 0..{array.n_qubits - 1}")
