"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class at API boundaries while the library keeps the
distinct failure modes separate internally.
"""

from __future__ import annotations

import numbers


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object (workload, simulation, policy) is invalid."""


def check_scalar(name: str, value, kind: type, optional: bool = False) -> None:
    """Raise :class:`ConfigurationError` naming ``name`` unless ``value``
    is a ``kind``: ``numbers.Real``, ``numbers.Integral``, ``bool`` or
    ``str``.  Numpy scalars count as their Python kind, and a bool counts
    only as a bool (``True`` is no cache size).  With ``optional`` a
    ``None`` passes.
    """
    if value is None and optional:
        return
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        noun = {bool: "a bool", numbers.Integral: "an integer", str: "a string"}.get(
            kind, "a number"
        )
        raise ConfigurationError(f"{name} must be {noun}, got {value!r}")


def check_scalars(config, kind: type, *names: str, optional: bool = False) -> None:
    """:func:`check_scalar` on each of ``names``, read off ``config``.

    Configs call this before their range checks, which would otherwise
    raise a bare ``TypeError`` on a string, or accept one.
    """
    for name in names:
        check_scalar(name, getattr(config, name), kind, optional=optional)


class CapacityError(ReproError):
    """An operation would violate the cache's capacity constraint."""


class UnknownObjectError(ReproError, KeyError):
    """A media object id was referenced that is not in the catalog."""


class TraceFormatError(ReproError):
    """A request trace file could not be parsed."""


class MeasurementError(ReproError):
    """A bandwidth measurement could not be carried out or is unusable."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class PolicyError(ReproError):
    """A cache policy was asked to do something inconsistent with its state."""
