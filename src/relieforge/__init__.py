"""relieforge: turn raster images into watertight, printable STL reliefs.

The pipeline is a chain of small pure stages -- decode, grayscale,
orient, piecewise transfer, pad, physical extent, solidify, validate,
serialize -- each usable on its own. ``cli.main`` wires them together
behind the ``relieforge`` command.

Each module's ``__all__`` lists its public names; the package exports
them all.
"""

from .errors import *
from .image_io import *
from .heightfield import *
from .transfer import *
from .mesh import *
from .stl_io import *
from .cli import *
from . import cli, errors, heightfield, image_io, mesh, stl_io, transfer

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, image_io, heightfield, transfer, mesh, stl_io, cli)
    for name in module.__all__
] + ["__version__"]
