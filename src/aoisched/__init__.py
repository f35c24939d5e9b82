"""Tradeoff analysis between information age and completion time for jobs
scheduled probabilistically across heterogeneous compute queues that share a
priority-served network link.

The pieces: `model` holds the configuration types, `analytics` the
closed-form queueing results, `optimizer` the projected-gradient schedule
solver and baselines, `simulator` the discrete-event cross-check, `online`
the window-based trace-driven driver, and `cli` the command-line front-end.
"""

__version__ = "0.1.0"

from .analytics import (
    STABILITY_MARGIN,
    AnalyticReport,
    StabilityError,
    StabilityReport,
    analytic_report,
    check_schedule,
    fcfs_waiting_time,
    net_service_moments,
    priority_waiting_times,
    service_moment_matrices,
    stability_report,
    weighted_metrics,
    wsept_order,
)
from .model import (
    REFERENCE_NETWORK_PARAMS,
    REFERENCE_VM_PARAMS,
    ConfigError,
    JobClass,
    ParetoSpec,
    ServiceProfile,
    SystemConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    generate_classes,
    load_config,
    reference_vms,
    sample_class_sizes,
    save_config,
    validate_config,
)
from .online import (
    OnlineResult,
    Trace,
    TraceWindow,
    default_window,
    ingest_trace,
    offline_reference,
    online_driver,
    resolve_classes,
    synthesize_poisson_trace,
    template_class_map,
)
from .optimizer import (
    InfeasibleError,
    OptimizeTrace,
    OptimizerSettings,
    StartRecord,
    baseline_pca,
    baseline_rca,
    optimize_many,
    optimize_pps,
    project_simplex_rows,
)
from .simulator import (
    ScriptedJob,
    SimConfig,
    SimResult,
    interdeparture_stats,
    policy_tradeoff_example,
    run_simulation,
    scripted_arrivals,
)
