"""Tree-graded graph spaces: piece colorings, assembly, and verification."""

from .graph import ChainPredicate, Graph, GraphError, Path, strict_chain, weak_chain
from .space import InvalidSpaceError, Space, ValidationReport, Violation
from .coloring import (
    MagnitudeReport,
    PieceColoring,
    ScaleSetup,
    SpaceColoring,
    StrategyPlan,
    build_piece_colorings,
    magnitude_report,
)
from .assemble import (
    ColorBreakdown,
    GeodesicTrace,
    color_space,
    combined_color,
    cut_final_piece,
    trace,
)
from .forge import ForgeSpec, PieceTemplate, gen_free_product_model, gen_random, subdivide_space

__all__ = [
    "ChainPredicate",
    "ColorBreakdown",
    "ForgeSpec",
    "GeodesicTrace",
    "Graph",
    "GraphError",
    "InvalidSpaceError",
    "MagnitudeReport",
    "Path",
    "PieceColoring",
    "PieceTemplate",
    "ScaleSetup",
    "Space",
    "SpaceColoring",
    "StrategyPlan",
    "ValidationReport",
    "Violation",
    "build_piece_colorings",
    "color_space",
    "combined_color",
    "cut_final_piece",
    "gen_free_product_model",
    "gen_random",
    "magnitude_report",
    "strict_chain",
    "subdivide_space",
    "trace",
    "weak_chain",
]
