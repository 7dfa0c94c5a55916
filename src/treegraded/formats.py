"""Line-oriented text formats for spaces and colorings.

tgspace (bit-exact; `# key value` comment lines are ignored anywhere):

    tgspace 1
    vertices N
    edges M
    u v            (M lines, 0-based, u < v)
    basepoint b
    pieces K
    k v1 ... vk    (K lines: vertex count then sorted vertex ids)

tgcolor:

    tgcolor 1
    v c            (one line per colored vertex, sorted by v)
"""

from __future__ import annotations

import io
from typing import IO, Mapping

from .graph import Graph, GraphError
from .space import Space

SPACE_MAGIC = "tgspace 1"
COLOR_MAGIC = "tgcolor 1"


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class _Lines:
    """Iterator over meaningful lines that remembers line numbers."""

    def __init__(self, stream: IO[str]):
        self._it = enumerate(stream, start=1)
        self.lineno = 0

    def next(self, what: str) -> str:
        for lineno, raw in self._it:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            self.lineno = lineno
            return line
        raise FormatError(f"unexpected end of file, expected {what}", self.lineno + 1)

    def expect_end(self):
        for lineno, raw in self._it:
            line = raw.strip()
            if line and not line.startswith("#"):
                raise FormatError(f"unexpected trailing content {line!r}", lineno)


def _read_file(path: str, reader):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return reader(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc}") from None


def _int_field(lines: _Lines, key: str) -> int:
    line = lines.next(f"'{key} <int>'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise FormatError(f"expected '{key} <int>', got {line!r}", lines.lineno)
    try:
        value = int(parts[1])
    except ValueError:
        raise FormatError(f"malformed integer in '{line}'", lines.lineno) from None
    if value < 0:
        raise FormatError(f"{key} must be non-negative", lines.lineno)
    return value


def read_space(stream: IO[str] | str) -> Space:
    if isinstance(stream, str):
        return _read_file(stream, read_space)
    lines = _Lines(stream)
    magic = lines.next("header")
    if magic != SPACE_MAGIC:
        raise FormatError(f"bad header {magic!r}, expected {SPACE_MAGIC!r}", lines.lineno)
    n = _int_field(lines, "vertices")
    m = _int_field(lines, "edges")
    if n > m + 1:
        raise FormatError(f"{n} vertices need at least {n - 1} edges to be connected", lines.lineno)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for _ in range(m):
        line = lines.next("edge 'u v'")
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected edge 'u v', got {line!r}", lines.lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"malformed edge {line!r}", lines.lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u}, {v}) out of range", lines.lineno)
        if u >= v:
            raise FormatError(f"edge must satisfy u < v, got ({u}, {v})", lines.lineno)
        if (u, v) in seen:
            raise FormatError(f"duplicate edge ({u}, {v})", lines.lineno)
        seen.add((u, v))
        edges.append((u, v))
    basepoint = _int_field(lines, "basepoint")
    if basepoint >= n:
        raise FormatError(f"basepoint {basepoint} out of range", lines.lineno)
    k = _int_field(lines, "pieces")
    pieces: list[list[int]] = []
    for _ in range(k):
        line = lines.next("piece line")
        parts = line.split()
        try:
            nums = [int(x) for x in parts]
        except ValueError:
            raise FormatError(f"malformed piece line {line!r}", lines.lineno) from None
        if not nums or len(nums) != nums[0] + 1:
            raise FormatError(
                f"piece line count mismatch (declared {nums[0] if nums else '?'}, got {len(nums) - 1})",
                lines.lineno,
            )
        verts = nums[1:]
        if any(not (0 <= v < n) for v in verts):
            raise FormatError("piece vertex out of range", lines.lineno)
        if len(set(verts)) != len(verts):
            raise FormatError("duplicate vertex in piece", lines.lineno)
        pieces.append(verts)
    lines.expect_end()
    try:
        graph = Graph(n, edges)
        return Space(graph, pieces, basepoint)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def write_space(space: Space, stream: IO[str] | str, metadata: Mapping[str, object] | None = None):
    if isinstance(stream, str):
        with open(stream, "w", encoding="utf-8") as fh:
            write_space(space, fh, metadata)
            return
    stream.write(SPACE_MAGIC + "\n")
    for key in sorted(metadata or {}):
        stream.write(f"# {key} {metadata[key]}\n")
    stream.write(f"vertices {space.graph.vertex_count}\n")
    edges = sorted(space.graph.edges)
    stream.write(f"edges {len(edges)}\n")
    for u, v in edges:
        stream.write(f"{u} {v}\n")
    stream.write(f"basepoint {space.basepoint}\n")
    stream.write(f"pieces {len(space.pieces)}\n")
    for piece in space.pieces:
        verts = sorted(piece)
        stream.write(" ".join([str(len(verts))] + [str(v) for v in verts]) + "\n")


def space_to_text(space: Space, metadata: Mapping[str, object] | None = None) -> str:
    buf = io.StringIO()
    write_space(space, buf, metadata)
    return buf.getvalue()


def read_coloring(stream: IO[str] | str) -> dict[int, int]:
    if isinstance(stream, str):
        return _read_file(stream, read_coloring)
    first: str | None = None
    colors: dict[int, int] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if first is None:
            first = line
            if first != COLOR_MAGIC:
                raise FormatError(f"bad header {line!r}, expected {COLOR_MAGIC!r}", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'v c', got {line!r}", lineno)
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"malformed coloring line {line!r}", lineno) from None
        if v in colors:
            raise FormatError(f"duplicate vertex {v}", lineno)
        if c < 0:
            raise FormatError(f"negative color {c}", lineno)
        colors[v] = c
    if first is None:
        raise FormatError("empty coloring file", 1)
    return colors


def write_coloring(colors: Mapping[int, int], stream: IO[str] | str):
    if isinstance(stream, str):
        with open(stream, "w", encoding="utf-8") as fh:
            write_coloring(colors, fh)
            return
    stream.write(COLOR_MAGIC + "\n")
    for v in sorted(colors):
        stream.write(f"{v} {colors[v]}\n")
