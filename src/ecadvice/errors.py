"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed stream or coloring file content."""


class SelfLoop(ParseError):
    """An edge joins a vertex to itself; raised when a stream or graph is built."""


class DuplicateEdge(ParseError):
    """The same unordered vertex pair appears twice in one stream; raised
    when a stream or graph is built."""


class PreconditionViolated(ValueError):
    """An operation was invoked outside its documented domain."""


class ResourceLimit(RuntimeError):
    """Exact search exhausted its node budget."""


class NotBipartite(ValueError):
    """A bipartite-only routine received a graph with an odd cycle."""


class MalformedTape(ValueError):
    """Advice tape header is truncated or inconsistent."""


class MalformedAdvice(ValueError):
    """An advice record decodes to an out-of-range value."""


class AdviceExhausted(RuntimeError):
    """More advice bits were requested than were provided."""


class ImproperColoring(RuntimeError):
    """An online algorithm returned a color already present at an endpoint."""


class NoMonochromeFamily(RuntimeError):
    """Star selection found no family of identically colored stars."""
