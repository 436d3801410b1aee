"""Exact-arithmetic toolkit for 2D point-line incidence arrangements."""

from .geometry import (CoincidentPointsError, IdenticalLinesError, Line, Point,
                       Rational, as_rational, collinear, concurrent, incident,
                       intersection, line_through, strictly_between)
from .arrangement import (Arrangement, BoundRow, FewerThanTwoPointsError,
                          IncidenceStats, VerticalLinePresentError, dualize,
                          generic_shear_value, grid_construction, incidence_stats,
                          measured_density, rich_lines, shear, spanned_lines,
                          st_bound_report)
from .cliques import (CompleteTuple, DecompositionStats, IntersectionGraph,
                      MonitorResult, build_graph, count_triangles,
                      de_caen_szekely_monitor, degenerate_filter,
                      edge_disjoint_decomposition_stats,
                      enumerate_complete_tuples, multiplicity_filter,
                      point_multiplicities)
from .partition import (CrossingProfile, DegenerateInputError, PartitionCell,
                        PartitionResult, Rect, crossing_number,
                        crossing_profile, line_crosses_rect, partition)
from .pipeline import (CellAttempt, CertificateError, CompleteTupleCertificate,
                       InequalityAudit, NotFoundReport, PipelineConfig,
                       RichCellReport, SegmentLine, break_into_segments,
                       find_complete_tuple, inequality_audit, locality_counts,
                       rank_cells, revalidate_certificate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
