"""Exception hierarchy shared across the package.

Each of the four error families carries the CLI's exit code for it as
``exit_code``, and its subclasses inherit it: ValidationError 1,
VolumeIOError 2, MetricError 3, ResourceError 4.
"""


class VoxevalError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VoxevalError):
    """Invalid manifest, configuration, or phantom specification."""

    exit_code = 1


class VolumeIOError(VoxevalError):
    """A volume file could not be read or written."""

    exit_code = 2


class FormatError(VolumeIOError):
    """Malformed header or magic bytes."""


class UnsupportedDtypeError(VolumeIOError):
    """Datatype code outside the supported subset."""


class ShapeError(VolumeIOError):
    """Dimensionality incompatible with the requested volume kind."""


class ChannelSumError(VolumeIOError):
    """Probability channels of some voxel do not sum to one within tolerance."""


class MetricError(VoxevalError):
    """A metric computation failed, or some other unexpected exception while a case was
    read or evaluated, or in ranking, the bootstrap or the report."""

    exit_code = 3


class GeometryMismatchError(MetricError):
    """Volumes that must share a grid do not."""


class ParameterError(MetricError):
    """A metric parameter is out of its valid range."""


class ResourceError(VoxevalError):
    """Reading or evaluating a case ran out of memory, or its worker process died, or
    ranking, the bootstrap, the report or generating a phantom dataset ran out of memory."""

    exit_code = 4
