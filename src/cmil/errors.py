"""Exception hierarchy shared across the package."""

import dataclasses
import math
import numbers


class CmilError(Exception):
    """Base class for all package errors."""


class ConfigError(CmilError):
    """Invalid or inconsistent configuration."""


def _has_type_of(value, default) -> bool:
    if isinstance(value, bool) and not isinstance(default, bool):
        return False
    if isinstance(default, tuple):
        return (isinstance(value, tuple) and len(value) == len(default)
                and all(map(_has_type_of, value, default)))
    if isinstance(default, int):
        return isinstance(value, numbers.Integral)
    if isinstance(default, float):
        return isinstance(value, numbers.Real) and math.isfinite(value)
    return isinstance(value, type(default))


def check_field_types(config) -> None:
    """Raise ConfigError unless every field of a config dataclass has its default's type.

    An int field takes an integer, a float field any finite real number, and
    a tuple field a tuple of its default's length and element types; a bool
    is neither an integer nor a real number here.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _has_type_of(value, f.default):
            raise ConfigError(f"{f.name}={value!r} does not have the type of its "
                              f"default {f.default!r}")


def config_from_dict(cls, doc: dict):
    """Build the config dataclass `cls` from a JSON object.

    A key that names no field, at any level, is a ConfigError. A field whose
    default is a config takes a JSON object, built the same way, and a tuple
    field a JSON list; every value is then checked by the class itself.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    extra = set(doc) - set(defaults)
    if extra:
        name = cls.__name__.removesuffix("Config").lower()
        raise ConfigError(f"unknown {name} config keys: {sorted(extra)}")

    def convert(value, default):
        if dataclasses.is_dataclass(default) and isinstance(value, dict):
            return config_from_dict(type(default), value)
        return tuple(value) if isinstance(default, tuple) and isinstance(value, list) else value

    return cls(**{k: convert(v, defaults[k]) for k, v in doc.items()})


class FormatError(CmilError):
    """Malformed on-disk file: bad magic, version, truncation, bad manifest."""


class ShapeError(CmilError):
    """Tensor or model shape mismatch."""


class DataValidationError(CmilError):
    """Dataset-level inconsistency (split collisions, label problems)."""


class DegenerateEmbeddingError(CmilError):
    """A row that cannot be normalized (zero or non-finite norm)."""


class TrainingDivergedError(CmilError):
    """Loss or gradients became non-finite during optimization."""

    def __init__(self, message, epoch=None, step=None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
