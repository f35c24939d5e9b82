"""System model: job classes, VM profiles, the shared network link, and size sampling.

The system serves jobs from J Poisson classes. A job of class j carries a compute
size (units of work for the compute phase) and an output size (units of data for
the networking phase). Each VM v serves its queue FCFS with shifted-exponential
service: for a class-j job the exponential rate is vm.rate / compute_size and the
deterministic shift is vm.shift * compute_size, so the mean compute time is
compute_size * (shift + 1/rate). The single network link behaves the same way in
the job's output size. Rates are per millisecond and shifts are milliseconds per
unit size throughout.

Class sizes may be drawn from a bounded Pareto distribution (heavy-tailed sizes
clipped at a multiple of the unclipped mean) instead of being listed explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

MOMENT_MODES = ("exact", "paper_literal")
AOI_WEIGHTINGS = ("paper_theorem1", "unweighted")

# Measured per-node service parameters used by the evaluation defaults:
# (exponential rate in 1/ms, deterministic shift in ms), both per unit size.
REFERENCE_VM_PARAMS = [
    (82.0, 10.0),
    (76.0, 12.0),
    (71.0, 13.0),
    (65.0, 17.0),
    (60.0, 16.0),
    (51.0, 18.0),
    (44.0, 20.0),
    (39.0, 21.0),
    (34.0, 23.0),
    (29.0, 25.0),
]

REFERENCE_NETWORK_PARAMS = (112.0, 18.0)


class ConfigError(ValueError):
    """Raised when a configuration cannot be used for the requested operation."""


@dataclass(frozen=True)
class ParetoSpec:
    """Bounded Pareto size distribution.

    P(X > u) = (scale/u)**shape for u >= scale, then clipped at
    cap_multiplier * (shape*scale/(shape-1)), the unclipped mean.
    shape must exceed 1 so the mean exists.
    """

    shape: float = 2.0
    scale: float = 300.0
    cap_multiplier: float = 5.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.shape) and self.shape > 1.0):
            raise ConfigError(
                f"pareto shape must be finite and exceed 1, got {self.shape}"
            )
        for name in ("scale", "cap_multiplier"):
            if not _positive(getattr(self, name)):
                raise ConfigError(
                    f"pareto {name} must be positive and finite, "
                    f"got {getattr(self, name)}"
                )

    @property
    def raw_mean(self) -> float:
        return self.shape * self.scale / (self.shape - 1.0)

    @property
    def cap(self) -> float:
        return self.cap_multiplier * self.raw_mean


@dataclass(frozen=True)
class JobClass:
    """One Poisson arrival class.

    update_rate and info_set only matter when the simulator measures source
    staleness: info_set lists the class ids whose update processes feed this
    class's jobs (defaults to the class itself).
    """

    id: int
    arrival_rate: float
    compute_size: float
    output_size: float
    update_rate: float | None = None
    info_set: tuple[int, ...] | None = None


@dataclass(frozen=True)
class VmProfile:
    """Shifted-exponential compute service parameters, per unit compute size."""

    id: int
    rate: float
    shift: float


@dataclass(frozen=True)
class NetworkProfile:
    """Shifted-exponential network service parameters, per unit output size."""

    rate: float
    shift: float


@dataclass(frozen=True)
class SystemConfig:
    """Full system description plus the tradeoff weight theta.

    theta = 1 weights completion time only, theta = 0 weights age only.
    moment_mode selects the second-moment formula used by the analytics
    ("exact" is the algebraically correct shifted-exponential moment,
    "paper_literal" reproduces a published variant that drops size scaling
    on two terms). aoi_network_weighting selects whether the per-class age
    formula scales its networking terms by the class share of traffic
    ("paper_theorem1") or not ("unweighted").
    """

    classes: tuple[JobClass, ...]
    vms: tuple[VmProfile, ...]
    network: NetworkProfile
    theta: float
    moment_mode: str = "exact"
    aoi_network_weighting: str = "paper_theorem1"
    seed: int = 0
    pareto: ParetoSpec | None = None

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def num_vms(self) -> int:
        return len(self.vms)

    def arrival_rates(self) -> np.ndarray:
        return np.array([c.arrival_rate for c in self.classes], dtype=np.float64)

    def compute_sizes(self) -> np.ndarray:
        return np.array([c.compute_size for c in self.classes], dtype=np.float64)

    def output_sizes(self) -> np.ndarray:
        return np.array([c.output_size for c in self.classes], dtype=np.float64)

    @property
    def total_rate(self) -> float:
        return float(self.arrival_rates().sum())

    def with_rates(self, rates: np.ndarray) -> "SystemConfig":
        """Copy of the config with per-class arrival rates replaced."""
        if len(rates) != self.num_classes:
            raise ConfigError(
                f"expected {self.num_classes} rates, got {len(rates)}"
            )
        new_classes = tuple(
            replace(c, arrival_rate=float(r)) for c, r in zip(self.classes, rates)
        )
        return replace(self, classes=new_classes)


# Both checks fail for NaN, which passes every "x <= 0" style test.
def _positive(x: float) -> bool:
    return bool(np.isfinite(x) and x > 0.0)


def _non_negative(x: float) -> bool:
    return bool(np.isfinite(x) and x >= 0.0)


def validate_config(config: SystemConfig) -> list[str]:
    """Collect rule violations as human-readable strings.

    An empty list means the config is usable. Violations are data, not
    exceptions; callers decide whether to stop.
    """
    problems: list[str] = []
    if not config.classes:
        problems.append("config has no job classes")
    if not config.vms:
        problems.append("config has no VMs")
    if not 0.0 <= config.theta <= 1.0:
        problems.append(f"theta must lie in [0, 1], got {config.theta}")
    if config.moment_mode not in MOMENT_MODES:
        problems.append(
            f"moment_mode must be one of {MOMENT_MODES}, got {config.moment_mode!r}"
        )
    if config.aoi_network_weighting not in AOI_WEIGHTINGS:
        problems.append(
            "aoi_network_weighting must be one of "
            f"{AOI_WEIGHTINGS}, got {config.aoi_network_weighting!r}"
        )

    class_ids = [c.id for c in config.classes]
    if class_ids != list(range(1, len(class_ids) + 1)):
        problems.append(f"class ids must be 1..J contiguous, got {class_ids}")
    vm_ids = [v.id for v in config.vms]
    if vm_ids != list(range(1, len(vm_ids) + 1)):
        problems.append(f"vm ids must be 1..V contiguous, got {vm_ids}")

    known = set(class_ids)
    for c in config.classes:
        if not _positive(c.arrival_rate):
            problems.append(f"class {c.id}: arrival_rate must be positive and finite")
        if not _positive(c.compute_size):
            problems.append(f"class {c.id}: compute_size must be positive and finite")
        if not _positive(c.output_size):
            problems.append(f"class {c.id}: output_size must be positive and finite")
        if c.update_rate is not None and not _positive(c.update_rate):
            problems.append(f"class {c.id}: update_rate must be positive and finite when set")
        if c.info_set is not None:
            missing = [i for i in c.info_set if i not in known]
            if missing:
                problems.append(
                    f"class {c.id}: info_set references unknown class ids {missing}"
                )
    for v in config.vms:
        if not _positive(v.rate):
            problems.append(f"vm {v.id}: rate must be positive and finite")
        if not _non_negative(v.shift):
            problems.append(f"vm {v.id}: shift must be non-negative and finite")
    if not _positive(config.network.rate):
        problems.append("network rate must be positive and finite")
    if not _non_negative(config.network.shift):
        problems.append("network shift must be non-negative and finite")

    if not problems:
        # Networking load does not depend on the schedule, so an overloaded
        # link makes every schedule infeasible and is worth flagging here.
        lam = config.arrival_rates()
        mean_s2 = config.output_sizes() * (
            config.network.shift + 1.0 / config.network.rate
        )
        rho_net = float(np.dot(lam, mean_s2))
        if rho_net >= 1.0:
            problems.append(
                f"networking queue unstable: utilization {rho_net:.4f} >= 1"
            )
    return problems


def sample_class_sizes(
    spec: ParetoSpec, count: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Draw `count` sizes from the bounded Pareto spec.

    Draws above the cap are clipped to it (clipping, not rejection, keeps the
    draw count deterministic). Every returned value lies in [scale, cap].
    """
    if count < 0:
        raise ConfigError(f"count must be non-negative, got {count}")
    rng = np.random.default_rng(seed) if isinstance(seed, int) else seed
    raw = spec.scale * (1.0 + rng.pareto(spec.shape, size=count))
    return np.minimum(raw, spec.cap)


def _class_to_dict(c: JobClass) -> dict:
    out: dict = {
        "arrival_rate": c.arrival_rate,
        "compute_size": c.compute_size,
        "output_size": c.output_size,
    }
    if c.update_rate is not None:
        out["update_rate"] = c.update_rate
    if c.info_set is not None:
        out["info_set"] = list(c.info_set)
    return out


def config_to_dict(config: SystemConfig) -> dict:
    out = {
        "theta": config.theta,
        "seed": config.seed,
        "moment_mode": config.moment_mode,
        "aoi_network_weighting": config.aoi_network_weighting,
        "network": {"rate": config.network.rate, "shift": config.network.shift},
        "vms": [{"rate": v.rate, "shift": v.shift} for v in config.vms],
        "classes": [_class_to_dict(c) for c in config.classes],
    }
    if config.pareto is not None:
        out["pareto"] = {
            "shape": config.pareto.shape,
            "scale": config.pareto.scale,
            "cap_multiplier": config.pareto.cap_multiplier,
        }
    return out


def config_from_dict(data: dict) -> SystemConfig:
    """Build a SystemConfig from the documented JSON schema.

    Required keys: theta, vms, network, and either classes or num_classes.
    Generated classes get arrival rates proportional to 1/(j+1) scaled to
    total_arrival_rate (default 0.035/ms); missing sizes are drawn from the
    pareto section using the config seed.
    """
    try:
        theta = float(data["theta"])
        net = data["network"]
        network = NetworkProfile(rate=float(net["rate"]), shift=float(net["shift"]))
        vms = tuple(
            VmProfile(id=i + 1, rate=float(v["rate"]), shift=float(v["shift"]))
            for i, v in enumerate(data["vms"])
        )
    except KeyError as exc:
        raise ConfigError(f"config missing required key: {exc}") from exc

    seed = int(data.get("seed", 0))
    pareto = None
    if "pareto" in data:
        p = data["pareto"]
        pareto = ParetoSpec(
            shape=float(p.get("shape", 2.0)),
            scale=float(p.get("scale", 300.0)),
            cap_multiplier=float(p.get("cap_multiplier", 5.0)),
        )

    if "classes" in data:
        raw_classes = data["classes"]
        need_compute = [i for i, c in enumerate(raw_classes) if "compute_size" not in c]
        need_output = [i for i, c in enumerate(raw_classes) if "output_size" not in c]
        drawn_compute = drawn_output = None
        if need_compute or need_output:
            if pareto is None:
                raise ConfigError(
                    "classes omit sizes but config has no pareto section"
                )
            # Compute sizes are drawn first, then output sizes, so adding or
            # removing one kind of override does not shift the other stream.
            drawn_compute = sample_class_sizes(pareto, len(raw_classes), seed)
            drawn_output = sample_class_sizes(pareto, len(raw_classes), seed + 1)
        classes = []
        for i, c in enumerate(raw_classes):
            try:
                rate = float(c["arrival_rate"])
            except KeyError as exc:
                raise ConfigError(
                    f"class {i + 1} missing required key: {exc}"
                ) from exc
            compute = float(c.get("compute_size", np.nan))
            output = float(c.get("output_size", np.nan))
            if np.isnan(compute):
                compute = float(drawn_compute[i])
            if np.isnan(output):
                output = float(drawn_output[i])
            classes.append(
                JobClass(
                    id=i + 1,
                    arrival_rate=rate,
                    compute_size=compute,
                    output_size=output,
                    update_rate=(
                        float(c["update_rate"]) if "update_rate" in c else None
                    ),
                    info_set=(
                        tuple(int(x) for x in c["info_set"])
                        if "info_set" in c
                        else None
                    ),
                )
            )
        classes = tuple(classes)
    elif "num_classes" in data:
        count = int(data["num_classes"])
        total = float(data.get("total_arrival_rate", 0.035))
        if pareto is None:
            raise ConfigError("num_classes requires a pareto section for sizes")
        classes = generate_classes(count, total, pareto, seed)
    else:
        raise ConfigError("config needs either classes or num_classes")

    return SystemConfig(
        classes=classes,
        vms=vms,
        network=network,
        theta=theta,
        moment_mode=str(data.get("moment_mode", "exact")),
        aoi_network_weighting=str(
            data.get("aoi_network_weighting", "paper_theorem1")
        ),
        seed=seed,
        pareto=pareto,
    )


def generate_classes(
    count: int, total_arrival_rate: float, pareto: ParetoSpec, seed: int
) -> tuple[JobClass, ...]:
    """Classes with rates proportional to 1/(j+1) and Pareto-drawn sizes."""
    if count <= 0:
        raise ConfigError(f"num_classes must be positive, got {count}")
    weights = 1.0 / (np.arange(1, count + 1) + 1.0)
    rates = total_arrival_rate * weights / weights.sum()
    compute = sample_class_sizes(pareto, count, seed)
    output = sample_class_sizes(pareto, count, seed + 1)
    return tuple(
        JobClass(
            id=j + 1,
            arrival_rate=float(rates[j]),
            compute_size=float(compute[j]),
            output_size=float(output[j]),
        )
        for j in range(count)
    )


def load_config(path: str | Path) -> SystemConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config_from_dict(data)


def save_config(config: SystemConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


def reference_vms(count: int) -> tuple[VmProfile, ...]:
    """VMs with ids 1..count, cycling through REFERENCE_VM_PARAMS."""
    n = len(REFERENCE_VM_PARAMS)
    return tuple(VmProfile(v + 1, *REFERENCE_VM_PARAMS[v % n]) for v in range(count))


def default_config(
    num_classes: int = 20,
    num_vms: int = 5,
    theta: float = 0.3,
    total_arrival_rate: float = 0.035,
    pareto: ParetoSpec | None = None,
    seed: int = 7,
    moment_mode: str = "exact",
) -> SystemConfig:
    """Desk-scale reference config: measured VM profiles, light-tailed sizes.

    Sizes default to Pareto(shape 2, scale 0.5, cap 5x mean) so per-job service
    sits on the tens-of-ms scale and both phases stay stable at the default
    total arrival rate.
    """
    pareto = pareto or ParetoSpec(shape=2.0, scale=0.5, cap_multiplier=5.0)
    classes = generate_classes(num_classes, total_arrival_rate, pareto, seed)
    network = NetworkProfile(*REFERENCE_NETWORK_PARAMS)
    return SystemConfig(
        classes=classes,
        vms=reference_vms(num_vms),
        network=network,
        theta=theta,
        moment_mode=moment_mode,
        seed=seed,
        pareto=pareto,
    )
