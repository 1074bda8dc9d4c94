"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Shape or convolution-geometry violation."""


class KernelTooLargeError(GeometryError):
    """Kernel window does not fit the input even once."""


class DataError(ValueError):
    """Malformed dataset, label, or file content."""


class ConfigError(ValueError):
    """Inconsistent or unsupported configuration."""


class UninitializedStateError(RuntimeError):
    """A stateful block was used before it collected any statistics."""


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradients during optimization."""
