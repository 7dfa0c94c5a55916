"""tgspace/tgcolor parsing, rejection cases, and byte-exact round trips."""

from __future__ import annotations

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treegraded import formats
from treegraded.formats import (
    FormatError,
    read_coloring,
    read_space,
    space_to_text,
    write_coloring,
    write_space,
)
from treegraded.space import Space

from conftest import chain_of_three_paths, small_spaces, tripod_space

GOOD = """tgspace 1
vertices 4
edges 3
0 1
1 2
2 3
basepoint 0
pieces 3
2 0 1
2 1 2
2 2 3
"""


def test_round_trip_from_text():
    space = read_space(io.StringIO(GOOD))
    assert space.graph.vertex_count == 4
    assert space.basepoint == 0
    assert space.pieces == (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}))
    assert space_to_text(space) == GOOD


def test_comments_and_blank_lines_ignored():
    text = GOOD.replace("vertices 4", "# seed 99\n\nvertices 4")
    assert space_to_text(read_space(io.StringIO(text))) == GOOD


def test_metadata_written_as_comments():
    space = read_space(io.StringIO(GOOD))
    text = space_to_text(space, {"seed": 7, "generator": "random"})
    assert "# generator random\n" in text and "# seed 7\n" in text
    assert space_to_text(read_space(io.StringIO(text))) == GOOD


@settings(max_examples=30, deadline=None)
@given(small_spaces())
def test_round_trip_generated(space):
    text = space_to_text(space)
    again = read_space(io.StringIO(text))
    assert space_to_text(again) == text
    assert again.basepoint == space.basepoint
    assert set(again.pieces) == set(space.pieces)
    assert again.graph.edges == space.graph.edges


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda t: t.replace("tgspace 1", "tgspace 2"), "bad header"),
        (lambda t: t.replace("edges 3", "edges 4"), "malformed edge"),
        (lambda t: t.replace("1 2\n", "1 2\n1 2\n").replace("edges 3", "edges 4"), "duplicate edge"),
        (lambda t: t.replace("0 1", "1 0"), "u < v"),
        (lambda t: t.replace("2 3\n", "2 9\n"), "out of range"),
        (lambda t: t.replace("basepoint 0", "basepoint 11"), "out of range"),
        (lambda t: t.replace("2 0 1", "3 0 1"), "count mismatch"),
        (lambda t: t.replace("2 2 3", "2 2 2"), "duplicate vertex"),
        (lambda t: t.replace("vertices 4", "vertices x"), "malformed integer"),
        (lambda t: t + "2 0 1\n", "trailing content"),
    ],
)
def test_malformed_inputs_rejected(mutation, fragment):
    with pytest.raises(FormatError) as err:
        read_space(io.StringIO(mutation(GOOD)))
    assert fragment in str(err.value)


def test_truncation_reports_line_number():
    truncated = "".join(GOOD.splitlines(keepends=True)[:4])
    with pytest.raises(FormatError) as err:
        read_space(io.StringIO(truncated))
    assert err.value.line == 5
    assert "line 5" in str(err.value)


def test_too_few_edges_rejected_before_graph_is_built(monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("Graph built before the edge count was checked")

    monkeypatch.setattr(formats, "Graph", no_graph)
    text = "tgspace 1\nvertices 5\nedges 1\n0 1\nbasepoint 0\npieces 1\n2 0 1\n"
    with pytest.raises(FormatError) as err:
        read_space(io.StringIO(text))
    assert err.value.line == 3
    assert "5 vertices need at least 4 edges" in str(err.value)


def test_coloring_round_trip():
    colors = {0: 1, 3: 0, 2: 2}
    buf = io.StringIO()
    write_coloring(colors, buf)
    text = buf.getvalue()
    assert text == "tgcolor 1\n0 1\n2 2\n3 0\n"
    assert read_coloring(io.StringIO(text)) == colors


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("tgcolor 2\n0 1\n", "bad header"),
        ("tgcolor 1\n0 1\n0 2\n", "duplicate vertex"),
        ("tgcolor 1\n0\n", "expected 'v c'"),
        ("tgcolor 1\n0 -1\n", "negative color"),
        ("", "empty coloring"),
    ],
)
def test_bad_colorings_rejected(text, fragment):
    with pytest.raises(FormatError) as err:
        read_coloring(io.StringIO(text))
    assert fragment in str(err.value)


def test_write_to_disk(tmp_path):
    space = tripod_space(arm=2)
    path = tmp_path / "tripod.tgspace"
    write_space(space, str(path), {"seed": 1})
    again = read_space(str(path))
    assert space_to_text(again) == space_to_text(space)


def test_non_utf8_file_is_format_error(tmp_path):
    path = tmp_path / "bad.tgspace"
    path.write_bytes(GOOD.replace("2 2 3", "2 2 \xff3").encode("latin-1"))
    for reader in (read_space, read_coloring):
        with pytest.raises(FormatError) as err:
            reader(str(path))
        assert "not UTF-8 text" in str(err.value)


# -- fuzzing: every input ends in FormatError or a valid object -------------------

WRITTEN = (
    GOOD,
    space_to_text(tripod_space(arm=2), {"seed": 3}),
    space_to_text(chain_of_three_paths()),
    "tgcolor 1\n0 1\n1 0\n2 3\n",
)
TOKENS = st.one_of(
    st.integers(min_value=-3, max_value=12).map(str),
    st.sampled_from(["", "x", "-0", "1_0", "\u0663", "9" * 30, "0x1", "1e3", "#", "tgspace", "edges", "tgcolor"]),
    st.text(max_size=4),
)


@st.composite
def near_valid_texts(draw) -> str:
    """A written space or coloring with a few lines dropped, doubled, swapped or
    with one token replaced or appended."""
    lines = draw(st.sampled_from(WRITTEN)).splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1)) if lines else 0
        op = draw(st.sampled_from(["drop", "double", "swap", "replace", "append"]))
        if not lines:
            lines = [draw(TOKENS)]
        elif op == "drop":
            del lines[i]
        elif op == "double":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            parts = lines[i].split()
            if op == "append" or not parts:
                parts.append(draw(TOKENS))
            else:
                parts[draw(st.integers(min_value=0, max_value=len(parts) - 1))] = draw(TOKENS)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def assert_format_error_or_valid(text: str):
    try:
        space = read_space(io.StringIO(text))
    except FormatError:
        pass
    else:
        assert isinstance(space, Space)
        assert space_to_text(read_space(io.StringIO(space_to_text(space)))) == space_to_text(space)
    try:
        colors = read_coloring(io.StringIO(text))
    except FormatError:
        pass
    else:
        assert all(type(v) is int and type(c) is int and c >= 0 for v, c in colors.items())
        buf = io.StringIO()
        write_coloring(colors, buf)
        assert read_coloring(io.StringIO(buf.getvalue())) == colors


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_fuzz_arbitrary_text(text):
    assert_format_error_or_valid(text)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(near_valid_texts())
def test_fuzz_near_valid_mutations(text):
    assert_format_error_or_valid(text)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(WRITTEN), st.binary(min_size=1, max_size=3), st.data())
def test_fuzz_bytes_on_disk(tmp_path_factory, text, junk, data):
    raw = text.encode()
    at = data.draw(st.integers(min_value=0, max_value=len(raw)))
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(raw[:at] + junk + raw[at:])
    for reader in (read_space, read_coloring):
        try:
            reader(str(path))
        except FormatError:
            pass
