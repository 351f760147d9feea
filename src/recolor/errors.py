"""Exception types shared across the library.

Every checked failure gets its own class so callers can tell a bad input
apart from a violated guarantee without parsing messages.
"""

from __future__ import annotations


class RecolorError(Exception):
    """Base class for all library errors."""


class PaletteViolation(RecolorError):
    """A coloring uses a color outside {1..t}."""

    def __init__(self, vertex: int, color: int, palette: int):
        self.vertex = vertex
        self.color = color
        self.palette = palette
        super().__init__(
            f"vertex {vertex} has color {color}, outside palette 1..{palette}"
        )


class NotChordal(RecolorError):
    """The clique certification of an elimination ordering failed."""

    def __init__(self, vertex: int, missing_edge: tuple[int, int]):
        self.vertex = vertex
        self.missing_edge = missing_edge
        a, b = missing_edge
        super().__init__(
            f"back-neighborhood of vertex {vertex} is not a clique: "
            f"{a} and {b} are not adjacent"
        )


class PaletteExhausted(RecolorError):
    """Greedy coloring found no free color for some vertex."""

    def __init__(self, vertex: int, palette: int):
        self.vertex = vertex
        self.palette = palette
        super().__init__(f"no free color in 1..{palette} for vertex {vertex}")


class EmptyValidSet(RecolorError):
    """Color selection was invoked with no valid color available."""

    def __init__(self, vertex: int, step_index: int | None = None):
        self.vertex = vertex
        self.step_index = step_index
        where = "" if step_index is None else f" at step {step_index}"
        super().__init__(f"no valid color for vertex {vertex}{where}")


class NullStep(RecolorError):
    """A step recolors a vertex to the color it already has."""

    def __init__(self, step_index: int, vertex: int, color: int):
        self.step_index = step_index
        self.vertex = vertex
        self.color = color
        super().__init__(
            f"step {step_index} recolors vertex {vertex} to its current color {color}"
        )


class ImproperIntermediate(RecolorError):
    """Applying a step produced a monochromatic edge."""

    def __init__(self, step_index: int, edge: tuple[int, int], color: int):
        self.step_index = step_index
        self.edge = edge
        self.color = color
        u, v = edge
        super().__init__(
            f"step {step_index} makes edge {u}-{v} monochromatic (color {color})"
        )


class ImproperEndpoint(RecolorError):
    """A sequence was expected to end at a given coloring but did not."""


class ImproperInput(RecolorError):
    """A coloring handed in as proper is not."""


class DecompositionError(RecolorError):
    """Base class for tree decomposition check failures."""


class UncoveredVertex(DecompositionError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} appears in no bag")


class UncoveredEdge(DecompositionError):
    def __init__(self, edge: tuple[int, int]):
        self.edge = edge
        u, v = edge
        super().__init__(f"edge {u}-{v} is contained in no bag")


class DisconnectedTrace(DecompositionError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"bags containing vertex {vertex} do not form a subtree")


class OracleInfeasible(RecolorError):
    """An oracle query (a pipeline bridge, an all-pairs diameter) was
    requested but the instance is too large."""


class StateCapExceeded(OracleInfeasible):
    """The implicit state space is larger than the configured cap."""

    def __init__(self, t: int, n: int, cap: int):
        self.t = t
        self.n = n
        self.cap = cap
        super().__init__(f"state space {t}**{n} exceeds cap {cap}")


class NotAClique(RecolorError):
    def __init__(self, vertices, missing_edge: tuple[int, int]):
        self.vertices = tuple(vertices)
        self.missing_edge = missing_edge
        a, b = missing_edge
        super().__init__(f"{a} and {b} are not adjacent; set is not a clique")


class InvalidParams(RecolorError):
    """An experiment or CLI configuration is malformed."""
