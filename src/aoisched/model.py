"""System model: job classes, the VMs and the shared network link, and size sampling.

The system serves jobs from J Poisson classes. A job of class j carries a compute
size (units of work for the compute phase) and an output size (units of data for
the networking phase). Each VM v serves its queue FCFS with shifted-exponential
service: for a class-j job the exponential rate is vm.rate / compute_size and the
deterministic shift is vm.shift * compute_size, so the mean compute time is
compute_size * (shift + 1/rate). The single network link behaves the same way in
the job's output size, so a VM and the link share one type, ServiceProfile.
Rates are per millisecond and shifts are milliseconds per unit size throughout.

A class or a VM is its place in the config, class j being classes[j-1], and
every config problem names the JSON path of the value at fault.

Class sizes may be drawn from a bounded Pareto distribution (heavy-tailed sizes
clipped at a multiple of the unclipped mean) instead of being listed explicitly.

This module also owns the artifact formats: the config JSON round trip, and
`write_table` and `write_json`, through which every CSV table and JSON report
is written.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields, replace
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
                f"pareto.shape must be finite and exceed 1, got {self.shape}"
            )
        for name in ("scale", "cap_multiplier"):
            positive(getattr(self, name), f"pareto.{name}")
        if not math.isfinite(self.cap):
            raise ConfigError(
                "pareto size cap cap_multiplier * shape * scale / (shape - 1) "
                f"overflows: pareto.shape {self.shape}, pareto.scale {self.scale}, "
                f"pareto.cap_multiplier {self.cap_multiplier}"
            )

    @property
    def raw_mean(self) -> float:
        return self.shape * self.scale / (self.shape - 1.0)

    @property
    def cap(self) -> float:
        return self.cap_multiplier * self.raw_mean


@dataclass(frozen=True)
class JobClass:
    """One Poisson arrival class; its number is its place in the config, so
    SystemConfig.classes[j - 1] is class j.

    update_rate and info_set only matter when the simulator measures source
    staleness: info_set lists the numbers of the classes whose update
    processes feed this class's jobs (at least one; defaults to the class
    itself).
    """

    arrival_rate: float
    compute_size: float
    output_size: float
    update_rate: float | None = None
    info_set: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ServiceProfile:
    """Shifted-exponential service parameters of a VM or of the link, per
    unit compute size or unit output size of the job served."""

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
    vms: tuple[ServiceProfile, ...]
    network: ServiceProfile
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


def positive(value: float, name: str) -> float:
    """value if it is positive and finite, otherwise a ConfigError: the one
    rule for a length of time or a size parameter checked where it enters."""
    # Written to fail for NaN, which passes every "x <= 0" style test.
    if not (np.isfinite(value) and value > 0.0):
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return value


def validate_config(config: SystemConfig) -> list[str]:
    """Collect rule violations as human-readable strings.

    An empty list means the config is usable. Violations are data, not
    exceptions; callers decide whether to stop.
    """
    problems: list[str] = []
    if not config.classes:
        problems.append("classes must list at least one job class")
    if not config.vms:
        problems.append("vms must list at least one VM")
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

    num_classes = config.num_classes
    # The per-class numeric checks run over one array; an unset update_rate
    # reads as 1.0, which passes.
    fields = np.array(
        [
            (
                c.arrival_rate,
                c.compute_size,
                c.output_size,
                1.0 if c.update_rate is None else c.update_rate,
            )
            for c in config.classes
        ],
        dtype=np.float64,
    ).reshape(-1, 4)
    bad_fields = (~(np.isfinite(fields) & (fields > 0.0))).tolist()
    names = ("arrival_rate", "compute_size", "output_size", "update_rate")
    for j, (c, bad) in enumerate(zip(config.classes, bad_fields)):
        where = f"classes[{j}]"
        for name, is_bad in zip(names, bad):
            if is_bad:
                when = " when set" if name == "update_rate" else ""
                problems.append(f"{where}.{name} must be positive and finite{when}")
        if c.info_set is not None:
            if not c.info_set:
                problems.append(f"{where}.info_set must name at least one class")
            missing = [i for i in c.info_set if not 1 <= i <= num_classes]
            if missing:
                problems.append(
                    f"{where}.info_set names classes {missing} outside 1..{num_classes}"
                )
    services = [(f"vms[{k}]", v) for k, v in enumerate(config.vms)]
    for where, service in [*services, ("network", config.network)]:
        if not (np.isfinite(service.rate) and service.rate > 0.0):
            problems.append(f"{where}.rate must be positive and finite")
        if not (np.isfinite(service.shift) and service.shift >= 0.0):
            problems.append(f"{where}.shift must be non-negative and finite")

    if not problems:
        # Imported here: analytics imports this module.
        from .analytics import (
            link_utilization,
            net_service_moments,
            service_moment_matrices,
        )

        # Finite inputs can still overflow the service moments (a size near
        # 1e308 times a shift) or a class's offered load (a rate near 1e308
        # times a mean), and no queue formula holds with one of them infinite.
        lam = config.arrival_rates()
        with np.errstate(over="ignore", invalid="ignore"):
            m1, m2 = service_moment_matrices(config)
            n1, n2 = net_service_moments(config)
            compute_ok = np.isfinite([m1, m2, lam[:, None] * m1]).all(axis=0)
            network_ok = np.isfinite([n1, n2, lam * n1]).all(axis=0)
        moments = "service moments or offered load are not finite"
        for j, (row, net_ok) in enumerate(zip(compute_ok.tolist(), network_ok)):
            bad = ", ".join(f"vms[{k}]" for k, ok in enumerate(row) if not ok)
            if bad:
                problems.append(f"classes[{j}]: compute {moments} on {bad}")
            if not net_ok:
                problems.append(f"classes[{j}]: network {moments}")
    if not problems:
        # Networking load does not depend on the schedule, so an overloaded
        # link makes every schedule infeasible and is worth flagging here.
        with np.errstate(over="ignore"):  # a sum that overflows reads inf
            rho_net = float(link_utilization(config)[1][-1])
        if rho_net >= 1.0:
            problems.append(
                f"network: networking queue unstable: utilization {rho_net:.4f} >= 1"
            )
    return problems


def sample_class_sizes(
    spec: ParetoSpec, count: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Draw `count` sizes from the bounded Pareto spec.

    Draws above the cap are clipped to it (clipping, not rejection, keeps the
    draw count deterministic). Every returned value lies in [scale, cap].
    """
    integer(count, "count", 0)
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
        out["pareto"] = asdict(config.pareto)
    return out


def integer(value, name: str, low: int, high: float = math.inf) -> int:
    """value as an int in [low, high]: a JSON integer or an integral float
    such as 4.0, never a bool or a string; else a ConfigError naming it.
    The one integer rule, for config files, class maps and flags alike."""
    number = int(value) if isinstance(value, float) and value.is_integer() else value
    if (
        isinstance(number, bool)
        or not isinstance(number, numbers.Integral)
        or not low <= number <= high
    ):
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")
    return int(number)


_REQUIRED = object()
_KINDS = {float: "a number", str: "a string", dict: "an object", list: "a list"}


def _json_field(container, key, where: str = "", kind: type = float, default=_REQUIRED):
    """container[key] as a JSON number (returned as a float), string, object
    or list; a key absent from an object gives `default`. A missing required
    key, a value of another JSON type (a bool, a string, null or NaN where a
    number belongs) or an integer beyond any float raises a ConfigError
    naming the value's JSON path, where + key: theta, vms[0], pareto.scale."""
    path = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}".lstrip(".")
    if isinstance(container, dict) and key not in container:
        if default is _REQUIRED:
            raise ConfigError(f"config missing required key: {path}")
        return default
    value = container[key]
    # A bool is no number here, and NaN is the one value unequal to itself.
    types = numbers.Real if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, types) or value != value:
        raise ConfigError(f"{path} must be {_KINDS[kind]}, got {value!r}")
    if kind is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got an integer past 1e308")
    return float(value) if kind is float else value


def _service(obj: dict, where: str) -> ServiceProfile:
    """The ServiceProfile of a VM or of the link at JSON path `where`."""
    return ServiceProfile(*(_json_field(obj, k, where) for k in ("rate", "shift")))


def _objects(data: dict, key: str) -> list[dict]:
    """data[key] as a JSON list of objects, each checked with its path."""
    items = _json_field(data, key, kind=list)
    return [_json_field(items, i, key, dict) for i in range(len(items))]


def config_from_dict(data: dict) -> SystemConfig:
    """Build a SystemConfig from the documented JSON schema.

    Required keys: theta, vms, network, and either classes or num_classes.
    Generated classes get arrival rates proportional to 1/(j+1) scaled to
    total_arrival_rate (default 0.035/ms); missing sizes are drawn from the
    pareto section using the config seed. seed must be a non-negative integer.
    """
    theta = _json_field(data, "theta")
    network = _service(_json_field(data, "network", kind=dict), "network")
    vms = tuple(_service(v, f"vms[{i}]") for i, v in enumerate(_objects(data, "vms")))
    seed = integer(data.get("seed", 0), "seed", 0)
    pareto = _json_field(data, "pareto", kind=dict, default=None)
    if pareto is not None:
        # A parameter the section omits takes ParetoSpec's own default.
        spec = fields(ParetoSpec)
        pareto = ParetoSpec(
            *(_json_field(pareto, f.name, "pareto", float, f.default) for f in spec)
        )

    if "classes" in data:
        raw_classes = _objects(data, "classes")
        # Without draws, every class must give both sizes.
        drawn = [[_REQUIRED] * len(raw_classes)] * 2
        if any("compute_size" not in c or "output_size" not in c for c in raw_classes):
            if pareto is None:
                raise ConfigError(
                    "classes omit sizes but config has no pareto section"
                )
            # Compute sizes are drawn first, then output sizes, so adding or
            # removing one kind of override does not shift the other stream.
            # A size the class gives overrides its draw.
            drawn = [
                sample_class_sizes(pareto, len(raw_classes), seed + k).tolist()
                for k in (0, 1)
            ]
        classes = []
        for i, (c, d, e) in enumerate(zip(raw_classes, *drawn)):
            where = f"classes[{i}]"
            sources = _json_field(c, "info_set", where, list, None)
            if sources is not None:
                sources = tuple(
                    integer(x, f"{where}.info_set[{k}]", 1) for k, x in enumerate(sources)
                )
            classes.append(
                JobClass(
                    arrival_rate=_json_field(c, "arrival_rate", where),
                    compute_size=_json_field(c, "compute_size", where, default=d),
                    output_size=_json_field(c, "output_size", where, default=e),
                    update_rate=_json_field(c, "update_rate", where, default=None),
                    info_set=sources,
                )
            )
        classes = tuple(classes)
    elif "num_classes" in data:
        # One number becomes that many classes; the cap keeps a value such
        # as 1e308 from exhausting memory.
        count = integer(data["num_classes"], "num_classes", 1, 100_000)
        total = _json_field(data, "total_arrival_rate", default=0.035)
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
        moment_mode=_json_field(data, "moment_mode", kind=str, default="exact"),
        aoi_network_weighting=_json_field(
            data, "aoi_network_weighting", kind=str, default="paper_theorem1"
        ),
        seed=seed,
        pareto=pareto,
    )


def generate_classes(
    count: int, total_arrival_rate: float, pareto: ParetoSpec, seed: int
) -> tuple[JobClass, ...]:
    """Classes with rates proportional to 1/(j+1) and Pareto-drawn sizes."""
    integer(count, "num_classes", 1)
    weights = 1.0 / (np.arange(1, count + 1) + 1.0)
    rates = total_arrival_rate * weights / weights.sum()
    compute = sample_class_sizes(pareto, count, seed)
    output = sample_class_sizes(pareto, count, seed + 1)
    return tuple(
        JobClass(float(r), float(d), float(e)) for r, d, e in zip(rates, compute, output)
    )


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the file at `path`; `what` names the file in errors."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge integers
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} is not a JSON object")
    return data


def load_config(path: str | Path) -> SystemConfig:
    return config_from_dict(read_json_object(path, "config file"))


def save_config(config: SystemConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


def config_hash(config: SystemConfig) -> str:
    """SHA-256 of the config's canonical JSON (sorted keys, no indent)."""
    canon = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def write_table(path: str | Path, header, rows) -> None:
    """CSV table: every float cell as repr(float(x)), which round-trips at
    full precision, and every other cell as csv writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row]
            for row in rows
        )


def _finite_or_none(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return obj


def dumps_json(payload) -> str:
    """Strict JSON: sorted keys, indent 2, and null for every non-finite
    number, so no NaN or Infinity token reaches a report."""
    return json.dumps(
        _finite_or_none(payload), indent=2, sort_keys=True, allow_nan=False
    )


def write_json(path: str | Path, payload) -> None:
    Path(path).write_text(dumps_json(payload) + "\n")


def reference_vms(count: int) -> tuple[ServiceProfile, ...]:
    """`count` VMs, cycling through REFERENCE_VM_PARAMS."""
    n = len(REFERENCE_VM_PARAMS)
    return tuple(ServiceProfile(*REFERENCE_VM_PARAMS[v % n]) for v in range(count))


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
    return SystemConfig(
        classes=classes,
        vms=reference_vms(num_vms),
        network=ServiceProfile(*REFERENCE_NETWORK_PARAMS),
        theta=theta,
        moment_mode=moment_mode,
        seed=seed,
        pareto=pareto,
    )
