"""Byte-exact goldens of the reactive, fault and streaming experiments.

Each experiment averages its ``(setting, policy, run)`` grid cell by
cell, so these fixtures pin more than the replay: they pin which runs
land in which cell and the order each mean adds them in.  Three runs per
cell, because a two-run mean is the same in either order.  Every golden
is checked at ``n_jobs=1`` (the grid runs in-process) and ``n_jobs=2``
(the grid fans out over a process pool) against the same literals, with
``==``.  Regenerate by running :func:`observe_reactive`,
:func:`observe_faults` and :func:`observe_streaming` once and updating
the literals; do that only for a deliberate change of behaviour.
"""

import hashlib
import json
import math

import pytest

from repro.analysis.experiments import (
    experiment_fault_tolerance,
    experiment_reactive_rekeying,
    experiment_streaming_delivery,
)
from repro.sim.config import SimulationConfig

#: The fixed golden parameters shared by the three experiments.
GOLDEN_PARAMS = dict(policies=("PB",), scale=0.02, num_runs=3, seed=0)

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
