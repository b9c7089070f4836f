"""Byte-exact goldens of the grid experiments.

Each experiment averages its ``(setting, policy, run)`` grid cell by
cell, so these fixtures pin more than the replay: they pin which runs
land in which cell and the order each mean adds them in.  Three runs per
cell, because a two-run mean is the same in either order.  Every golden
is checked at ``n_jobs=1`` (the grid runs in-process) and ``n_jobs=2``
(the grid fans out over a process pool) against the same literals, with
``==``.  The reactive, fault and streaming goldens hold every cell; the
cache-size sweeps (Figures 5-12 and ``hetero``) hold every surface's
axis and headline metrics and a digest of the rendered report.
Regenerate by running :func:`observe_reactive`, :func:`observe_faults`,
:func:`observe_streaming` and :func:`observe_sweeps` once and updating
the literals; do that only for a deliberate change of behaviour.
"""

import hashlib
import json
import math

import pytest

import repro.analysis.parallel as parallel
from repro.analysis.experiments import (
    experiment_client_heterogeneity,
    experiment_fault_tolerance,
    experiment_fig5_constant_bandwidth,
    experiment_fig6_zipf_sweep,
    experiment_fig7_high_variability,
    experiment_fig8_low_variability,
    experiment_fig9_estimator_sweep,
    experiment_fig10_value_constant,
    experiment_fig11_value_variable,
    experiment_fig12_value_estimator,
    experiment_reactive_rekeying,
    experiment_streaming_delivery,
)
from repro.analysis.report import render_experiment
from repro.sim.config import SimulationConfig
from repro.sim.runner import SweepResult

#: The fixed golden parameters shared by the three experiments.
GOLDEN_PARAMS = dict(policies=("PB",), scale=0.02, num_runs=3, seed=0)

#: The fixed golden parameters shared by the sweep experiments.
SWEEP_PARAMS = dict(scale=0.02, num_runs=3, cache_fractions=(0.05, 0.17), seed=0)

#: Each sweep experiment and the arguments its golden fixes beyond
#: :data:`SWEEP_PARAMS`.  Figures 9 and 12 run the re-measurement
#: ablation, so their goldens hold all three kinds of estimator surface.
SWEEP_EXPERIMENTS = {
    "fig5": (experiment_fig5_constant_bandwidth, {}),
    "fig6": (experiment_fig6_zipf_sweep, {"alphas": (0.6, 0.9)}),
    "fig7": (experiment_fig7_high_variability, {}),
    "fig8": (experiment_fig8_low_variability, {}),
    "fig9": (
        experiment_fig9_estimator_sweep,
        {"estimator_values": (0.4, 1.0), "remeasurement_interval": 600.0},
    ),
    "fig10": (experiment_fig10_value_constant, {}),
    "fig11": (experiment_fig11_value_variable, {}),
    "fig12": (
        experiment_fig12_value_estimator,
        {"estimator_values": (0.5, 1.0), "remeasurement_interval": 600.0},
    ),
    "hetero": (experiment_client_heterogeneity, {}),
}

#: The per-cell metrics each golden records.
HEADLINE_METRICS = (
    "traffic_reduction_ratio",
    "average_service_delay",
    "average_stream_quality",
    "total_added_value",
    "byte_hit_ratio",
    "availability",
)


def _exact(value):
    """NaN as a string, so ``==`` can compare it; anything else as is."""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def _headline(metrics):
    return {name: getattr(metrics, name) for name in HEADLINE_METRICS}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def observe_reactive(result):
    observed = {}
    for setting in result.data["settings"]:
        comparison = result.data["comparisons_by_setting"][setting]
        for policy in comparison.policies():
            observed[(setting, policy)] = {
                **_headline(comparison.metrics_by_policy[policy]),
                **result.data["reactive_counters"][setting][policy],
            }
    return observed


def observe_faults(result):
    cells = {}
    for fault_label in result.data["fault_settings"]:
        for reaction_label in result.data["reaction_settings"]:
            comparison = result.data["comparisons"][fault_label][reaction_label]
            counters = result.data["fault_counters"][fault_label][reaction_label]
            for policy in comparison.policies():
                cells[(fault_label, reaction_label, policy)] = {
                    **_headline(comparison.metrics_by_policy[policy]),
                    **{
                        name: _exact(value)
                        for name, value in counters[policy].items()
                    },
                }
    timelines = result.data["recovery_timelines"]
    return {
        "cells": cells,
        "post_outage_byte_hit": result.data["post_outage_byte_hit"],
        "post_outage_warmup_fraction": result.data["post_outage_warmup_fraction"],
        "timeline_windows": {
            label: timeline.num_windows for label, timeline in timelines.items()
        },
        "timeline_sha256": {
            label: _digest(timeline.as_dict())
            for label, timeline in timelines.items()
        },
    }


def _surface(sweep):
    return {
        "parameter_name": sweep.parameter_name,
        "parameter_values": sweep.parameter_values,
        "metrics": {
            policy: {
                name: [_exact(value) for value in sweep.series(policy, name)]
                for name in HEADLINE_METRICS
            }
            for policy in sweep.policies()
        },
    }


def observe_sweeps(result):
    """Every surface of a sweep experiment, keyed by where ``data`` holds it,
    and the sha256 of the report ``repro experiment`` prints for it."""
    surfaces = {}
    for key, value in result.data.items():
        if isinstance(value, SweepResult):
            surfaces[key] = _surface(value)
        elif isinstance(value, dict):
            for label, surface in value.items():
                if isinstance(surface, SweepResult):
                    surfaces[(key, label)] = _surface(surface)
    report = render_experiment(result).encode()
    return {"surfaces": surfaces, "render_sha256": hashlib.sha256(report).hexdigest()}


def observe_streaming(result):
    observed = {}
    for caching_label in result.data["caching_settings"]:
        for reaction_label in result.data["reaction_settings"]:
            comparison = result.data["comparisons"][caching_label][reaction_label]
            qoe = result.data["qoe"][caching_label][reaction_label]
            for policy in comparison.policies():
                observed[(caching_label, reaction_label, policy)] = {
                    **_headline(comparison.metrics_by_policy[policy]),
                    **qoe[policy],
                }
    return observed


# ----------------------------------------------------------------------
# The goldens, recorded before the experiments submitted job grids.  The
# fault ablation's outages cells, post-outage byte-hit ratios and warm-up
# fraction and recovery timelines were re-recorded when its default
# outage moved from 35-50% to 60-75% of the span, past the warm-up; its
# no-faults and flaps cells did not change.
# ----------------------------------------------------------------------
GOLDEN_REACTIVE = {
    ("passive", "PB"): {
        "traffic_reduction_ratio": 0.10832515959556112,
        "average_service_delay": 2387.949522064376,
        "average_stream_quality": 0.8128333333333333,
        "total_added_value": 3705.4006624604986,
        "byte_hit_ratio": 0.10832515959556112,
        "availability": 1.0,
        "shifts": 0,
        "rekeys": 0,
        "suppressed": 0,
    },
    ("remeasured", "PB"): {
        "traffic_reduction_ratio": 0.10969132425562651,
        "average_service_delay": 2379.165796302985,
        "average_stream_quality": 0.8135,
        "total_added_value": 3708.405709724975,
        "byte_hit_ratio": 0.10969132425562651,
        "availability": 1.0,
        "shifts": 0,
        "rekeys": 0,
        "suppressed": 0,
    },
    ("reactive-probe", "PB"): {
        "traffic_reduction_ratio": 0.1105155025145906,
        "average_service_delay": 2338.797805467298,
        "average_stream_quality": 0.8150000000000001,
        "total_added_value": 3699.726423298526,
        "byte_hit_ratio": 0.1105155025145906,
        "availability": 1.0,
        "shifts": 651,
        "rekeys": 503,
        "suppressed": 0,
    },
    ("reactive-passive", "PB"): {
        "traffic_reduction_ratio": 0.11052042297186966,
        "average_service_delay": 2382.8634467077804,
        "average_stream_quality": 0.8135833333333334,
        "total_added_value": 3705.592253929808,
        "byte_hit_ratio": 0.11052042297186966,
        "availability": 1.0,
        "shifts": 375,
        "rekeys": 157,
        "suppressed": 0,
    },
}

GOLDEN_FAULTS = {
    "cells": {
        ("no-faults", "static", "PB"): {
            "traffic_reduction_ratio": 0.10832515959556112,
            "average_service_delay": 2387.949522064376,
            "average_stream_quality": 0.8128333333333333,
            "total_added_value": 3705.4006624604986,
            "byte_hit_ratio": 0.10832515959556112,
            "availability": 1.0,
            "degraded_requests": 0.0,
            "retried_requests": 0.0,
            "failed_fetches": 0.0,
            "stale_serves": 0.0,
            "failed_requests": 0.0,
            "recovered_outages": 0.0,
            "shifts": 0.0,
            "rekeys": 0.0,
            "mean_time_to_recovery_s": "nan",
        },
        ("no-faults", "reactive-passive", "PB"): {
            "traffic_reduction_ratio": 0.10770987216086843,
            "average_service_delay": 2381.3847831493536,
            "average_stream_quality": 0.8130833333333333,
            "total_added_value": 3699.8018362304297,
            "byte_hit_ratio": 0.10770987216086843,
            "availability": 1.0,
            "degraded_requests": 0.0,
            "retried_requests": 0.0,
            "failed_fetches": 0.0,
            "stale_serves": 0.0,
            "failed_requests": 0.0,
            "recovered_outages": 0.0,
            "shifts": 362.0,
            "rekeys": 155.0,
            "mean_time_to_recovery_s": "nan",
        },
        ("outages", "static", "PB"): {
            "traffic_reduction_ratio": 0.11978373031589824,
            "average_service_delay": 2320.8469226981924,
            "average_stream_quality": 0.7341666666666665,
            "total_added_value": 3257.7143707538758,
            "byte_hit_ratio": 0.11978373031589824,
            "availability": 0.9209999999999999,
            "degraded_requests": 0.0,
            "retried_requests": 315.0,
            "failed_fetches": 315.0,
            "stale_serves": 78.0,
            "failed_requests": 237.0,
            "recovered_outages": 6.0,
            "shifts": 0.0,
            "rekeys": 0.0,
            "mean_time_to_recovery_s": 73.2433593844659,
        },
        ("outages", "reactive-passive", "PB"): {
            "traffic_reduction_ratio": 0.12182885243883228,
            "average_service_delay": 2249.710213374087,
            "average_stream_quality": 0.7355833333333334,
            "total_added_value": 3262.557998542901,
            "byte_hit_ratio": 0.12182885243883228,
            "availability": 0.9209999999999999,
            "degraded_requests": 0.0,
            "retried_requests": 315.0,
            "failed_fetches": 315.0,
            "stale_serves": 78.0,
            "failed_requests": 237.0,
            "recovered_outages": 6.0,
            "shifts": 347.0,
            "rekeys": 164.0,
            "mean_time_to_recovery_s": 73.2433593844659,
        },
        ("flaps", "static", "PB"): {
            "traffic_reduction_ratio": 0.11417096658169158,
            "average_service_delay": 2287.6643937343347,
            "average_stream_quality": 0.7806666666666665,
            "total_added_value": 3490.4470694221677,
            "byte_hit_ratio": 0.11417096658169158,
            "availability": 0.9583333333333334,
            "degraded_requests": 0.0,
            "retried_requests": 203.0,
            "failed_fetches": 201.0,
            "stale_serves": 13.0,
            "failed_requests": 188.0,
            "recovered_outages": 0.0,
            "shifts": 0.0,
            "rekeys": 0.0,
            "mean_time_to_recovery_s": "nan",
        },
        ("flaps", "reactive-passive", "PB"): {
            "traffic_reduction_ratio": 0.1131845592129691,
            "average_service_delay": 2317.331408243278,
            "average_stream_quality": 0.7796666666666666,
            "total_added_value": 3477.236897183295,
            "byte_hit_ratio": 0.1131845592129691,
            "availability": 0.96,
            "degraded_requests": 0.0,
            "retried_requests": 203.0,
            "failed_fetches": 201.0,
            "stale_serves": 18.0,
            "failed_requests": 183.0,
            "recovered_outages": 0.0,
            "shifts": 351.0,
            "rekeys": 164.0,
            "mean_time_to_recovery_s": "nan",
        },
    },
    "post_outage_byte_hit": {
        "static": {
            "PB": 0.1111598299128053,
        },
        "reactive-passive": {
            "PB": 0.11593016693907497,
        },
    },
    "post_outage_warmup_fraction": 0.734,
    "timeline_windows": {
        "static": 41,
        "reactive-passive": 41,
    },
    "timeline_sha256": {
        "static": "d053243e103e50c75d62001712667ec4de78a12fba03543244e83ac80d7ff262",
        "reactive-passive": "21462a1965e1272dea92ac8625f4e36959f6199588f40fe7f0308607b4597bd5",
    },
}

GOLDEN_STREAMING = {
    ("prefix", "static", "PB"): {
        "traffic_reduction_ratio": 0.19539580344223864,
        "average_service_delay": 12.23673298317461,
        "average_stream_quality": 0.5478333333333333,
        "total_added_value": 2141.876761925123,
        "byte_hit_ratio": 0.19539580344223864,
        "availability": 1.0,
        "mean_startup_delay_s": 12.23673298317461,
        "rebuffer_ratio": 0.004599210973173363,
        "mean_quality": 0.5478333333333333,
        "abandonment_rate": 0.20133333333333334,
        "waited_sessions": 4.666666666666667,
        "degraded_sessions": 411.0,
        "abandoned_sessions": 201.33333333333334,
        "prefetch_extensions": 540.6666666666666,
        "pressure_trimmed_kb": 25678250.98767838,
    },
    ("prefix", "reactive-passive", "PB"): {
        "traffic_reduction_ratio": 0.19856307204128057,
        "average_service_delay": 12.27673298317461,
        "average_stream_quality": 0.5486666666666666,
        "total_added_value": 2140.9881658973814,
        "byte_hit_ratio": 0.19856307204128057,
        "availability": 1.0,
        "mean_startup_delay_s": 12.27673298317461,
        "rebuffer_ratio": 0.00461298650024925,
        "mean_quality": 0.5486666666666666,
        "abandonment_rate": 0.20199999999999999,
        "waited_sessions": 4.666666666666667,
        "degraded_sessions": 408.6666666666667,
        "abandoned_sessions": 202.0,
        "prefetch_extensions": 539.3333333333334,
        "pressure_trimmed_kb": 27989101.405006975,
    },
    ("whole-object", "static", "PB"): {
        "traffic_reduction_ratio": 0.19441932989357183,
        "average_service_delay": 12.37673298317461,
        "average_stream_quality": 0.5461666666666667,
        "total_added_value": 2140.194344710538,
        "byte_hit_ratio": 0.19441932989357183,
        "availability": 1.0,
        "mean_startup_delay_s": 12.37673298317461,
        "rebuffer_ratio": 0.004662419196057084,
        "mean_quality": 0.5461666666666667,
        "abandonment_rate": 0.20366666666666666,
        "waited_sessions": 4.666666666666667,
        "degraded_sessions": 408.6666666666667,
        "abandoned_sessions": 203.66666666666666,
        "prefetch_extensions": 0.0,
        "pressure_trimmed_kb": 0.0,
    },
    ("whole-object", "reactive-passive", "PB"): {
        "traffic_reduction_ratio": 0.19653939164211245,
        "average_service_delay": 12.396732983174608,
        "average_stream_quality": 0.5465,
        "total_added_value": 2135.520342566266,
        "byte_hit_ratio": 0.19653939164211245,
        "availability": 1.0,
        "mean_startup_delay_s": 12.396732983174608,
        "rebuffer_ratio": 0.004666281834490752,
        "mean_quality": 0.5465,
        "abandonment_rate": 0.204,
        "waited_sessions": 4.666666666666667,
        "degraded_sessions": 407.6666666666667,
        "abandoned_sessions": 204.0,
        "prefetch_extensions": 0.0,
        "pressure_trimmed_kb": 0.0,
    },
}


# ----------------------------------------------------------------------
# The sweep goldens, recorded while Figures 6, 9 and 12 and hetero still
# submitted one grid per surface.
# ----------------------------------------------------------------------
GOLDEN_SWEEPS = {
    "fig5": {
        "surfaces": {
            "sweep": {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "IF": {
                        "traffic_reduction_ratio": [0.26948770081271783, 0.49087212791543183],
                        "average_service_delay": [2473.068821563307, 1938.7286471048112],
                        "average_stream_quality": [0.8258333333333333, 0.8680833333333334],
                        "total_added_value": [3903.7364868558457, 4408.36943579743],
                        "byte_hit_ratio": [0.26948770081271783, 0.49087212791543183],
                        "availability": [1.0, 1.0],
                    },
                    "PB": {
                        "traffic_reduction_ratio": [0.0926009369033169, 0.1744507980268767],
                        "average_service_delay": [1278.9541291070084, 118.14005758100302],
                        "average_stream_quality": [0.8821666666666667, 0.9793333333333334],
                        "total_added_value": [4047.426163847457, 4682.285941250736],
                        "byte_hit_ratio": [0.0926009369033169, 0.1744507980268767],
                        "availability": [1.0, 1.0],
                    },
                    "IB": {
                        "traffic_reduction_ratio": [0.13701911348395393, 0.2511233105284373],
                        "average_service_delay": [1639.0825064922356, 391.4309921431716],
                        "average_stream_quality": [0.8569166666666667, 0.94375],
                        "total_added_value": [4122.83937499155, 4850.517941639041],
                        "byte_hit_ratio": [0.13701911348395393, 0.2511233105284373],
                        "availability": [1.0, 1.0],
                    },
                },
            },
        },
        "render_sha256": "a60810a567a3557a60dd49a290d5786ace6d57bfe55c08639a1c7c6cd3b605a6",
    },
    "fig6": {
        "surfaces": {
            ("sweeps_by_alpha", 0.6): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB": {
                        "traffic_reduction_ratio": [0.08288324467568252, 0.18993233006284785],
                        "average_service_delay": [1536.5321674172394, 120.50689355815605],
                        "average_stream_quality": [0.8470833333333333, 0.9740833333333333],
                        "total_added_value": [3843.919941788765, 4643.793609932116],
                        "byte_hit_ratio": [0.08288324467568252, 0.18993233006284785],
                        "availability": [1.0, 1.0],
                    },
                    "IB": {
                        "traffic_reduction_ratio": [0.11821574790705662, 0.2497852434529908],
                        "average_service_delay": [1806.4999341906594, 451.143877029359],
                        "average_stream_quality": [0.8394166666666667, 0.9336666666666668],
                        "total_added_value": [4024.829332503848, 4789.25830957334],
                        "byte_hit_ratio": [0.11821574790705662, 0.2497852434529908],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_alpha", 0.9): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB": {
                        "traffic_reduction_ratio": [0.10935735051622532, 0.18866879345446008],
                        "average_service_delay": [1063.3850212154348, 59.46102793055828],
                        "average_stream_quality": [0.8928333333333334, 0.9865833333333334],
                        "total_added_value": [3914.4797220198566, 4632.437106263725],
                        "byte_hit_ratio": [0.10935735051622532, 0.18866879345446008],
                        "availability": [1.0, 1.0],
                    },
                    "IB": {
                        "traffic_reduction_ratio": [0.18345426073628665, 0.29405360423528387],
                        "average_service_delay": [1455.2174787282445, 253.2829679878034],
                        "average_stream_quality": [0.8815833333333334, 0.9584166666666666],
                        "total_added_value": [4124.5542753126465, 4778.681620033357],
                        "byte_hit_ratio": [0.18345426073628665, 0.29405360423528387],
                        "availability": [1.0, 1.0],
                    },
                },
            },
        },
        "render_sha256": "9f32141cc6bf3dc415d176a307372294fd6ebd08a6812db26b09df1de59f6b24",
    },
    "fig7": {
        "surfaces": {
            "sweep": {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "IF": {
                        "traffic_reduction_ratio": [0.26948770081271783, 0.49087212791543183],
                        "average_service_delay": [3538.2130954505606, 2769.603053492594],
                        "average_stream_quality": [0.79325, 0.8461666666666666],
                        "total_added_value": [3721.823584194832, 4258.810082783723],
                        "byte_hit_ratio": [0.26948770081271783, 0.49087212791543183],
                        "availability": [1.0, 1.0],
                    },
                    "PB": {
                        "traffic_reduction_ratio": [0.0926009369033169, 0.1744507980268767],
                        "average_service_delay": [2247.1610278423414, 854.2460281188056],
                        "average_stream_quality": [0.80075, 0.87475],
                        "total_added_value": [3395.819816227319, 3661.428655381678],
                        "byte_hit_ratio": [0.0926009369033169, 0.1744507980268767],
                        "availability": [1.0, 1.0],
                    },
                    "IB": {
                        "traffic_reduction_ratio": [0.13701911348395393, 0.2511233105284373],
                        "average_service_delay": [2460.0986826941057, 832.852522807612],
                        "average_stream_quality": [0.81, 0.9017500000000002],
                        "total_added_value": [3793.0734409066076, 4469.203633730669],
                        "byte_hit_ratio": [0.13701911348395393, 0.2511233105284373],
                        "availability": [1.0, 1.0],
                    },
                },
            },
        },
        "render_sha256": "aa0634a9aa00d64b6d6fc76e0e12175d8d278bdf139d94767bf14daa970b8e19",
    },
    "fig8": {
        "surfaces": {
            "sweep": {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "IF": {
                        "traffic_reduction_ratio": [0.26948770081271783, 0.49087212791543183],
                        "average_service_delay": [2615.3736330642823, 2046.579483223485],
                        "average_stream_quality": [0.8187500000000001, 0.8641666666666666],
                        "total_added_value": [3893.961552484536, 4397.322214178254],
                        "byte_hit_ratio": [0.26948770081271783, 0.49087212791543183],
                        "availability": [1.0, 1.0],
                    },
                    "PB": {
                        "traffic_reduction_ratio": [0.0926009369033169, 0.1744507980268767],
                        "average_service_delay": [1440.9521620539472, 292.6635205569972],
                        "average_stream_quality": [0.8493333333333334, 0.9282499999999999],
                        "total_added_value": [3782.2168394900523, 4197.3222560978875],
                        "byte_hit_ratio": [0.0926009369033169, 0.1744507980268767],
                        "availability": [1.0, 1.0],
                    },
                    "IB": {
                        "traffic_reduction_ratio": [0.13701911348395393, 0.2511233105284373],
                        "average_service_delay": [1739.0154933723595, 458.43508892777135],
                        "average_stream_quality": [0.8488333333333333, 0.9390833333333334],
                        "total_added_value": [4104.49967283819, 4823.495780268598],
                        "byte_hit_ratio": [0.13701911348395393, 0.2511233105284373],
                        "availability": [1.0, 1.0],
                    },
                },
            },
        },
        "render_sha256": "5d8d9c7174739c8d6f28282661268424a6b1f602771e849933def8ecf867d71f",
    },
    "fig9": {
        "surfaces": {
            ("sweeps_by_e", 0.4): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB(e)": {
                        "traffic_reduction_ratio": [0.1319904913522353, 0.26405520870575533],
                        "average_service_delay": [2224.4252616751673, 653.6608003209182],
                        "average_stream_quality": [0.8131666666666666, 0.91775],
                        "total_added_value": [3728.9281525889032, 4510.603046458779],
                        "byte_hit_ratio": [0.1319904913522353, 0.26405520870575533],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_e", 1.0): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB(e)": {
                        "traffic_reduction_ratio": [0.0926009369033169, 0.1744507980268767],
                        "average_service_delay": [2247.1610278423414, 854.2460281188056],
                        "average_stream_quality": [0.80075, 0.87475],
                        "total_added_value": [3395.819816227319, 3661.428655381678],
                        "byte_hit_ratio": [0.0926009369033169, 0.1744507980268767],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_e_passive", 0.4): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB(e)": {
                        "traffic_reduction_ratio": [0.14294709527781946, 0.3011183594431827],
                        "average_service_delay": [2311.909491945615, 704.5934349284316],
                        "average_stream_quality": [0.8128333333333333, 0.9173333333333332],
                        "total_added_value": [3780.9432764097132, 4602.796591452103],
                        "byte_hit_ratio": [0.14294709527781946, 0.3011183594431827],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_e_passive", 1.0): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB(e)": {
                        "traffic_reduction_ratio": [0.10979921582896486, 0.21405223269860332],
                        "average_service_delay": [2231.895237107447, 654.9826384137148],
                        "average_stream_quality": [0.8097500000000001, 0.9023333333333333],
                        "total_added_value": [3603.720229459646, 4152.617835097485],
                        "byte_hit_ratio": [0.10979921582896486, 0.21405223269860332],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_e_remeasured", 0.4): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB(e)": {
                        "traffic_reduction_ratio": [0.14487789251176153, 0.299740515323727],
                        "average_service_delay": [2298.8361571876762, 705.7222008818493],
                        "average_stream_quality": [0.8136666666666666, 0.9161666666666667],
                        "total_added_value": [3789.417744166578, 4587.041539271121],
                        "byte_hit_ratio": [0.14487789251176153, 0.299740515323727],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_e_remeasured", 1.0): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB(e)": {
                        "traffic_reduction_ratio": [0.10978940437635025, 0.21461210358918414],
                        "average_service_delay": [2233.5506283978884, 655.0536197668143],
                        "average_stream_quality": [0.8095, 0.9028333333333333],
                        "total_added_value": [3604.536923707421, 4159.916349600874],
                        "byte_hit_ratio": [0.10978940437635025, 0.21461210358918414],
                        "availability": [1.0, 1.0],
                    },
                },
            },
        },
        "render_sha256": "b3c9879638dfaf8993cb72e5279eefd9774e8d9e512fb60994bf58cc413010c6",
    },
    "fig10": {
        "surfaces": {
            "sweep": {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "IF": {
                        "traffic_reduction_ratio": [0.26948770081271783, 0.49087212791543183],
                        "average_service_delay": [2473.068821563307, 1938.7286471048112],
                        "average_stream_quality": [0.8258333333333333, 0.8680833333333334],
                        "total_added_value": [3903.7364868558457, 4408.36943579743],
                        "byte_hit_ratio": [0.26948770081271783, 0.49087212791543183],
                        "availability": [1.0, 1.0],
                    },
                    "PB-V": {
                        "traffic_reduction_ratio": [0.0901164484485883, 0.16833309176437972],
                        "average_service_delay": [1831.806072688684, 520.0527451242916],
                        "average_stream_quality": [0.8865833333333333, 0.9798333333333332],
                        "total_added_value": [4356.56794060929, 4820.703784113846],
                        "byte_hit_ratio": [0.0901164484485883, 0.16833309176437972],
                        "availability": [1.0, 1.0],
                    },
                    "IB-V": {
                        "traffic_reduction_ratio": [0.0790699293836704, 0.24609851610066757],
                        "average_service_delay": [1767.140976633901, 667.5124412291387],
                        "average_stream_quality": [0.842, 0.9435833333333333],
                        "total_added_value": [4213.036886880845, 4955.071151506706],
                        "byte_hit_ratio": [0.0790699293836704, 0.24609851610066757],
                        "availability": [1.0, 1.0],
                    },
                },
            },
        },
        "render_sha256": "b2618bee19321729d8fe9aa6ba98a2ad4f266fb4c51244d7528cd52f01c65af6",
    },
    "fig11": {
        "surfaces": {
            "sweep": {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "IF": {
                        "traffic_reduction_ratio": [0.26948770081271783, 0.49087212791543183],
                        "average_service_delay": [2615.3736330642823, 2046.579483223485],
                        "average_stream_quality": [0.8187500000000001, 0.8641666666666666],
                        "total_added_value": [3893.961552484536, 4397.322214178254],
                        "byte_hit_ratio": [0.26948770081271783, 0.49087212791543183],
                        "availability": [1.0, 1.0],
                    },
                    "PB-V": {
                        "traffic_reduction_ratio": [0.0901164484485883, 0.16833309176437972],
                        "average_service_delay": [2014.7339183536671, 702.0623852852659],
                        "average_stream_quality": [0.848, 0.9245],
                        "total_added_value": [3958.581844598348, 4248.448371533375],
                        "byte_hit_ratio": [0.0901164484485883, 0.16833309176437972],
                        "availability": [1.0, 1.0],
                    },
                    "IB-V": {
                        "traffic_reduction_ratio": [0.0790699293836704, 0.24609851610066757],
                        "average_service_delay": [1886.306846871562, 752.4140159668799],
                        "average_stream_quality": [0.8389166666666666, 0.93825],
                        "total_added_value": [4198.213973953559, 4923.094612249667],
                        "byte_hit_ratio": [0.0790699293836704, 0.24609851610066757],
                        "availability": [1.0, 1.0],
                    },
                },
            },
        },
        "render_sha256": "82a3e043e532d149ac0aa7164d2d96dcdc3250d7f50ca7eeda8ed75760bcfed3",
    },
    "fig12": {
        "surfaces": {
            ("sweeps_by_e", 0.5): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB-V(e)": {
                        "traffic_reduction_ratio": [0.12977733924552107, 0.23265995952345087],
                        "average_service_delay": [2215.343661787443, 1250.8557049163037],
                        "average_stream_quality": [0.85275, 0.94],
                        "total_added_value": [4374.287212688709, 5145.950750717813],
                        "byte_hit_ratio": [0.12977733924552107, 0.23265995952345087],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_e", 1.0): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB-V(e)": {
                        "traffic_reduction_ratio": [0.0901164484485883, 0.16833309176437972],
                        "average_service_delay": [2014.7339183536671, 702.0623852852659],
                        "average_stream_quality": [0.848, 0.9245],
                        "total_added_value": [3958.581844598348, 4248.448371533375],
                        "byte_hit_ratio": [0.0901164484485883, 0.16833309176437972],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            "ibv_reference": {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "IB-V": {
                        "traffic_reduction_ratio": [0.0790699293836704, 0.24609851610066757],
                        "average_service_delay": [1886.306846871562, 752.4140159668799],
                        "average_stream_quality": [0.8389166666666666, 0.93825],
                        "total_added_value": [4198.213973953559, 4923.094612249667],
                        "byte_hit_ratio": [0.0790699293836704, 0.24609851610066757],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_e_passive", 0.5): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB-V(e)": {
                        "traffic_reduction_ratio": [0.13887534281032657, 0.2541129589288954],
                        "average_service_delay": [2365.780134728298, 1377.186345847292],
                        "average_stream_quality": [0.8442500000000001, 0.9298333333333333],
                        "total_added_value": [4263.131860891061, 5049.108067519438],
                        "byte_hit_ratio": [0.13887534281032657, 0.2541129589288954],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_e_passive", 1.0): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB-V(e)": {
                        "traffic_reduction_ratio": [0.10548275552923651, 0.18558240835026676],
                        "average_service_delay": [2023.0044030735353, 801.2539491077008],
                        "average_stream_quality": [0.8595833333333333, 0.9443333333333334],
                        "total_added_value": [4269.853361813372, 4760.6793579202795],
                        "byte_hit_ratio": [0.10548275552923651, 0.18558240835026676],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_e_remeasured", 0.5): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB-V(e)": {
                        "traffic_reduction_ratio": [0.13877481943321993, 0.2544152471170055],
                        "average_service_delay": [2366.9285213597745, 1382.5305174551975],
                        "average_stream_quality": [0.8435833333333335, 0.9296666666666668],
                        "total_added_value": [4255.026739227448, 5047.5777548239375],
                        "byte_hit_ratio": [0.13877481943321993, 0.2544152471170055],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_e_remeasured", 1.0): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "PB-V(e)": {
                        "traffic_reduction_ratio": [0.105472707433669, 0.1854854133700943],
                        "average_service_delay": [2024.0263187540907, 802.5046090213756],
                        "average_stream_quality": [0.8593333333333333, 0.9439166666666666],
                        "total_added_value": [4262.254221359789, 4754.161658421632],
                        "byte_hit_ratio": [0.105472707433669, 0.1854854133700943],
                        "availability": [1.0, 1.0],
                    },
                },
            },
        },
        "render_sha256": "573adab4addadf1e7de65ec3059634ef0a35082add6fe540b4e8dd7224b938fa",
    },
    "hetero": {
        "surfaces": {
            ("sweeps_by_setting", "unconstrained"): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "IF": {
                        "traffic_reduction_ratio": [0.26948770081271783, 0.49087212791543183],
                        "average_service_delay": [3538.2130954505606, 2769.603053492594],
                        "average_stream_quality": [0.79325, 0.8461666666666666],
                        "total_added_value": [3721.823584194832, 4258.810082783723],
                        "byte_hit_ratio": [0.26948770081271783, 0.49087212791543183],
                        "availability": [1.0, 1.0],
                    },
                    "PB": {
                        "traffic_reduction_ratio": [0.0926009369033169, 0.1744507980268767],
                        "average_service_delay": [2247.1610278423414, 854.2460281188056],
                        "average_stream_quality": [0.80075, 0.87475],
                        "total_added_value": [3395.819816227319, 3661.428655381678],
                        "byte_hit_ratio": [0.0926009369033169, 0.1744507980268767],
                        "availability": [1.0, 1.0],
                    },
                    "IB": {
                        "traffic_reduction_ratio": [0.13701911348395393, 0.2511233105284373],
                        "average_service_delay": [2460.0986826941057, 832.852522807612],
                        "average_stream_quality": [0.81, 0.9017500000000002],
                        "total_added_value": [3793.0734409066076, 4469.203633730669],
                        "byte_hit_ratio": [0.13701911348395393, 0.2511233105284373],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_setting", "homogeneous"): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "IF": {
                        "traffic_reduction_ratio": [0.26948770081271783, 0.49087212791543183],
                        "average_service_delay": [3831.825512790839, 2961.7635744601193],
                        "average_stream_quality": [0.6931666666666666, 0.782],
                        "total_added_value": [1286.7534520332515, 2688.8138372840226],
                        "byte_hit_ratio": [0.26948770081271783, 0.49087212791543183],
                        "availability": [1.0, 1.0],
                    },
                    "PB": {
                        "traffic_reduction_ratio": [0.10734482873564621, 0.2171311602161763],
                        "average_service_delay": [2604.403253638453, 1108.3104935719737],
                        "average_stream_quality": [0.6868333333333334, 0.8125],
                        "total_added_value": [599.2142856228828, 1597.901213689368],
                        "byte_hit_ratio": [0.10734482873564621, 0.2171311602161763],
                        "availability": [1.0, 1.0],
                    },
                    "IB": {
                        "traffic_reduction_ratio": [0.20704241313144958, 0.4354286366991778],
                        "average_service_delay": [2940.452320594708, 1327.0369298343253],
                        "average_stream_quality": [0.6905833333333334, 0.8005833333333334],
                        "total_added_value": [935.8918185997958, 2160.553054345932],
                        "byte_hit_ratio": [0.20704241313144958, 0.4354286366991778],
                        "availability": [1.0, 1.0],
                    },
                },
            },
            ("sweeps_by_setting", "heterogeneous"): {
                "parameter_name": "cache_fraction",
                "parameter_values": [0.05, 0.17],
                "metrics": {
                    "IF": {
                        "traffic_reduction_ratio": [0.26948770081271783, 0.49087212791543183],
                        "average_service_delay": [4555.40981812228, 3447.5410284711666],
                        "average_stream_quality": [0.7115, 0.794],
                        "total_added_value": [3091.870757290686, 3856.743210111241],
                        "byte_hit_ratio": [0.26948770081271783, 0.49087212791543183],
                        "availability": [1.0, 1.0],
                    },
                    "PB": {
                        "traffic_reduction_ratio": [0.15942652100495022, 0.32310449600708063],
                        "average_service_delay": [3634.237464315242, 2010.7939874708138],
                        "average_stream_quality": [0.7093333333333334, 0.8085833333333333],
                        "total_added_value": [2838.6732477163573, 3467.9699537496067],
                        "byte_hit_ratio": [0.15942652100495022, 0.32310449600708063],
                        "availability": [1.0, 1.0],
                    },
                    "IB": {
                        "traffic_reduction_ratio": [0.17502407552402058, 0.3813103296592039],
                        "average_service_delay": [3936.9793911347515, 2148.769259207322],
                        "average_stream_quality": [0.7070833333333333, 0.8097499999999999],
                        "total_added_value": [3075.082397928543, 3806.9745812067904],
                        "byte_hit_ratio": [0.17502407552402058, 0.3813103296592039],
                        "availability": [1.0, 1.0],
                    },
                },
            },
        },
        "render_sha256": "757b6d9820cc6e98c44a19ea61897ccb308ef7a3efc09fce933e454d88a98c36",
    },
}


@pytest.fixture(scope="module", params=(1, 2), ids=lambda n: f"n_jobs={n}")
def n_jobs(request):
    return request.param


def test_reactive_golden(n_jobs):
    result = experiment_reactive_rekeying(**GOLDEN_PARAMS, n_jobs=n_jobs)
    assert observe_reactive(result) == GOLDEN_REACTIVE


def test_faults_golden(n_jobs):
    result = experiment_fault_tolerance(**GOLDEN_PARAMS, n_jobs=n_jobs)
    assert observe_faults(result) == GOLDEN_FAULTS


def test_outages_fall_inside_the_measured_phase():
    """The default outage is measured: it starts after the warm-up ends.

    The outages cells lose availability, and the post-outage window
    starts later than the headline metrics' warm-up.
    """
    result = experiment_fault_tolerance(**GOLDEN_PARAMS)
    for reaction_label in result.data["reaction_settings"]:
        comparison = result.data["comparisons"]["outages"][reaction_label]
        assert comparison.metrics_by_policy["PB"].availability < 1.0
    assert (
        result.data["post_outage_warmup_fraction"]
        > SimulationConfig().warmup_fraction
    )


def test_streaming_golden(n_jobs):
    result = experiment_streaming_delivery(**GOLDEN_PARAMS, n_jobs=n_jobs)
    assert observe_streaming(result) == GOLDEN_STREAMING


@pytest.mark.parametrize("name", sorted(SWEEP_EXPERIMENTS))
def test_sweep_golden(name, n_jobs):
    experiment, arguments = SWEEP_EXPERIMENTS[name]
    result = experiment(**SWEEP_PARAMS, **arguments, n_jobs=n_jobs)
    assert observe_sweeps(result) == GOLDEN_SWEEPS[name]


@pytest.mark.parametrize(
    "name, arguments, submissions",
    [
        ("fig6", {"alphas": (0.6, 0.9)}, 2),
        ("fig7", {}, 1),
        ("fig9", {}, 1),
        ("fig9", {"remeasurement_interval": 600.0}, 1),
        ("fig12", {}, 1),
        ("fig12", {"remeasurement_interval": 600.0}, 1),
        ("hetero", {}, 1),
    ],
)
def test_sweep_experiment_submits_one_grid_per_workload(
    name, arguments, submissions, monkeypatch
):
    """Every surface on one workload goes out in one submission; only
    Figure 6, whose alphas are different workloads, submits one per alpha."""
    calls = []
    dispatch = parallel._dispatch_jobs

    def counted(*args, **kwargs):
        calls.append(args)
        return dispatch(*args, **kwargs)

    monkeypatch.setattr(parallel, "_dispatch_jobs", counted)
    experiment, _ = SWEEP_EXPERIMENTS[name]
    experiment(**{**SWEEP_PARAMS, "num_runs": 1}, **arguments)
    assert len(calls) == submissions
