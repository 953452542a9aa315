"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ValidationError -> 1, volume I/O
failures -> 2, metric computation failures -> 3, ResourceError -> 4.
"""


class VoxevalError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VoxevalError):
    """Invalid manifest, configuration, or phantom specification."""


class VolumeIOError(VoxevalError):
    """A volume file could not be read or written."""


class FormatError(VolumeIOError):
    """Malformed header or magic bytes."""


class UnsupportedDtypeError(VolumeIOError):
    """Datatype code outside the supported subset."""


class ShapeError(VolumeIOError):
    """Dimensionality incompatible with the requested volume kind."""


class ChannelSumError(VolumeIOError):
    """Probability channels of some voxel do not sum to one within tolerance."""


class MetricError(VoxevalError):
    """A metric computation failed."""


class GeometryMismatchError(MetricError):
    """Volumes that must share a grid do not."""


class ParameterError(MetricError):
    """A metric parameter is out of its valid range."""


class ResourceError(VoxevalError):
    """Reading or evaluating a case ran out of memory, or its worker process died, or
    generating a phantom dataset ran out of memory."""
