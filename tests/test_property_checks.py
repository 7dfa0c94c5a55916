"""Property suites exercised on deterministic and generated instances."""

from __future__ import annotations

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegraded import checks
from treegraded import coloring as coloring_module
from treegraded.assemble import color_space, decompose_path
from treegraded.coloring import (
    BASE_COMPONENT_FACTOR,
    ScaleSetup,
    SpaceColoring,
    build_piece_colorings,
    magnitude_report,
    natural_color_count,
)
from treegraded.forge import PieceTemplate, gen_free_product_model
from treegraded.graph import Graph, weak_chain
from treegraded.oracles import bfs_dists
from treegraded.rng import SplitMix64
from treegraded.space import Space

from conftest import chain_of_three_paths, path_graph, small_spaces, tripod_space, validated_spaces


def full_cell(space, r):
    setup = ScaleSetup(r=r, n=natural_color_count(space))
    colorings = build_piece_colorings(space, setup)
    coloring = color_space(space, setup, colorings)
    return setup, colorings, coloring


def cell_report(space, setup, coloring):
    """The cell's magnitude report, measured as an experiment cell measures it."""
    return magnitude_report(space.graph, coloring.as_mapping(), setup.chain, color_range=setup.colors)


def run_all(space, r, seed=7, chain_samples=60, trace_samples=24, geodesic_samples=12):
    ana = checks.SpaceAnalysis(space)
    setup, colorings, coloring = full_cell(space, r)
    results = checks.space_suite(ana, SplitMix64(seed), stability_samples=800)
    results += checks.cell_suite(
        ana,
        setup,
        colorings,
        coloring,
        cell_report(space, setup, coloring),
        SplitMix64(seed + 1),
        chain_samples=chain_samples,
        trace_samples=trace_samples,
        geodesic_chain_samples=geodesic_samples,
    )
    return results


# checks whose hypotheses can be genuinely empty on small instances
VACUOUS_OK = {
    "projected_chain_color",
    "near_projection_color",
    "in_piece_chain_distance",
    "geodesic_chain_distance",
}


def assert_all_ok(results):
    bad = [r for r in results if not r.ok]
    assert not bad, {r.name: r.violations[:2] for r in bad}
    empty = [r.name for r in results if r.checked == 0 and r.name not in VACUOUS_OK]
    assert not empty, empty


class TestDeterministicInstances:
    def test_tripod(self):
        assert_all_ok(run_all(tripod_space(arm=6), r=2))

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_free_product_of_lines(self, r):
        space = gen_free_product_model(
            PieceTemplate.parse("path:10"), PieceTemplate.parse("path:10"), depth=3,
            attach_spacing=3,
        )
        assert_all_ok(run_all(space, r))

    def test_plane_times_line(self):
        space = gen_free_product_model(
            PieceTemplate.parse("grid:6x6"), PieceTemplate.parse("path:8"), depth=3,
            attach_spacing=3,
        )
        assert_all_ok(run_all(space, r=2))


class TestGeneratedInstances:
    @settings(max_examples=12, deadline=None)
    @given(small_spaces(max_budget=5), st.sampled_from([2, 3, 4]))
    def test_all_suites_hold(self, space, r):
        assert_all_ok(run_all(space, r, chain_samples=30, trace_samples=12, geodesic_samples=8))

    @settings(max_examples=10, deadline=None)
    @given(small_spaces(max_budget=4))
    def test_offset_constant_per_piece_reported(self, space):
        ana = checks.SpaceAnalysis(space)
        setup, colorings, coloring = full_cell(space, 2)
        res = checks.check_piece_offset(space, setup, colorings, coloring)
        assert res.ok
        # reported as info, asserted here because the canonical-prefix
        # construction does make the offset constant within each piece
        assert res.info["offset_constant_per_piece"] is True


class TestDegeneratePointMeets:
    def test_single_vertex_meet_claim_genuinely_fails(self):
        # Documented finding: when a geodesic meets a piece in a single vertex
        # that sits inside another piece with several geodesics, a chain can
        # route around that vertex, so no chain point projects onto it from
        # within r. The edge-crossing form of the claim (the one the distance
        # bounds rely on) is checked by check_chain_entry_projection; this
        # pins the minimal counterexample for the single-vertex form.
        from treegraded.graph import Graph
        from treegraded.space import Space

        g = Graph(13, [(i, (i + 1) % 12) for i in range(12)] + [(3, 12)])
        space = Space(g, [set(range(12)), {3, 12}], 0)
        assert space.validate().ok
        r = 2
        chain = [0, 10, 8, 6]
        assert all(
            g.shortest_dist(a, b) <= r for a, b in zip(chain, chain[1:])
        )
        omega = g.canonical_geodesic(chain[0], chain[-1])
        assert 3 in omega.vertices  # the geodesic does pass the attachment vertex
        hang = 1  # the edge piece {3, 12}
        assert all(space.project(hang, x) == 3 for x in chain)
        assert min(g.shortest_dist(x, 3) for x in chain) > r


def moved_projection(monkeypatch):
    """Space.project answers 3, not 4, for vertex 6 and the middle piece."""
    project = Space.project
    monkeypatch.setattr(Space, "project", lambda self, pid, x: 3 if (pid, x) == (1, 6) else project(self, pid, x))


def shrunk_base_components(monkeypatch):
    """Every base component is its piece's base vertex alone."""
    monkeypatch.setattr(coloring_module, "base_component", lambda recolored, space, pid, base, setup: (frozenset({base}), 0))


def small_magnitude(monkeypatch):
    """Every check reads a piece magnitude of 0, so every bound is 0."""
    monkeypatch.setattr(ScaleSetup, "require_magnitude", lambda self: 0)


def run_check(name, space, r=2, seed=7):
    """One cell check at its default sample count on a fresh cell of space."""
    ana = checks.SpaceAnalysis(space)
    setup, colorings, coloring = full_cell(space, r)
    rng = SplitMix64(seed)
    if name == "chain_entry_projection":
        return checks.check_chain_entry_projection(ana, r, rng)
    if name == "trace_shape":
        return checks.check_trace_shape(ana, setup, colorings, rng)
    report = cell_report(space, setup, coloring)
    return checks.check_geodesic_chain_distance(ana, setup, colorings, report, rng)


# fault, the check that must report it on chain_of_three_paths() (a 7-vertex
# path cut into pieces {0,1,2}, {2,3,4}, {4,5,6}), its count of hits (kept and
# suppressed), and its first witness
FAULTS = [
    pytest.param(
        moved_projection,
        "chain_entry_projection",
        27,
        {"piece": 1, "chain": [6, 5, 6, 4, 4, 4, 2, 4, 6, 4, 2, 1], "expected_endpoints": (4, 2), "projections": (3, 2)},
        id="moved-projection-chain-entry",
    ),
    pytest.param(
        moved_projection,
        "trace_shape",
        1,
        {"vertex": 6, "piece": 1, "reason": "exit is not the projection", "exit": 4, "projection": 3},
        id="moved-projection-trace",
    ),
    pytest.param(
        shrunk_base_components,
        "trace_shape",
        12,
        {"vertex": 1, "piece": 0, "reason": "long run too short", "length": 1},
        id="shrunk-base-component-trace",
    ),
    pytest.param(
        small_magnitude,
        "geodesic_chain_distance",
        21,
        {"vertex": 1, "landing": 0, "distance": 1, "bound": 0},
        id="small-magnitude-geodesic-chain",
    ),
]


class TestWitnessReporting:
    @pytest.mark.parametrize("fault, name, hits, first", FAULTS)
    def test_faults_are_reported(self, monkeypatch, fault, name, hits, first):
        # the same inputs report nothing until the fault is patched in
        assert run_check(name, chain_of_three_paths()).to_dict()["violations"] == []
        fault(monkeypatch)
        res = run_check(name, chain_of_three_paths())
        assert res.violations[0] == first
        assert len(res.violations) + res.info.get("suppressed", 0) == hits

    def test_broken_color_transfer_detected(self):
        # three long path pieces in a chain: vertex 25 sits one step past piece
        # 1's far end (vertex 24, far outside the base component around 12)
        from conftest import path_graph
        from treegraded.space import Space

        space = Space(
            path_graph(37), [set(range(13)), set(range(12, 25)), set(range(24, 37))], 0
        )
        ana = checks.SpaceAnalysis(space)
        setup, colorings, coloring = full_cell(space, 2)
        from treegraded.coloring import SpaceColoring

        res = checks.check_near_projection_color(ana, setup, colorings, coloring)
        assert res.ok and res.checked > 0
        flipped = list(coloring.colors)
        flipped[25] = (flipped[25] + 1) % setup.colors
        broken = checks.check_near_projection_color(
            ana, setup, colorings, SpaceColoring(tuple(flipped), setup)
        )
        assert not broken.ok
        assert all("vertex" in w and "projection" in w for w in broken.violations)


def scalar_weak_chain(g, r, rng):
    """The chain sampler as it read the row of every point it steps from:
    the reference for checks._weak_chains."""
    cur = rng.randint(0, g.vertex_count - 1)
    chain = [cur]
    for _ in range(rng.randint(2, 12)):
        near = np.nonzero(g.dist_row(cur) <= r)[0]
        cur = int(near[rng.randint(0, len(near) - 1)])
        chain.append(cur)
    return chain


def lockstep_chains(g, r, rng, samples):
    """The chains of checks._weak_chains as lists, and its balls."""
    points, steps, balls = checks._weak_chains(g, r, rng, samples)
    return [points[c, : k + 1].tolist() for c, k in enumerate(steps.tolist())], balls


def scalar_chain_entry_projection(ana, r, rng, samples=250):
    """check_chain_entry_projection as it drew, walked and tested one chain
    at a time: the reference for the lockstep check."""
    res = checks.CheckResult("chain_entry_projection")
    res.info["chains_sampled"] = samples
    space = ana.space
    g = space.graph
    for _ in range(samples):
        chain = scalar_weak_chain(g, r, rng)
        x0, xm = chain[0], chain[-1]
        omega = g.canonical_geodesic(x0, xm)
        met = [(pid, omega[i], omega[j]) for pid, i, j in decompose_path(space, omega)] if omega.length else []
        for pid, entry, exit_vertex in met:
            res.checked += 1
            proj = ana.proj_array(pid)
            if int(proj[x0]) != entry or int(proj[xm]) != exit_vertex:
                res.hit(
                    {
                        "piece": pid,
                        "chain": chain,
                        "expected_endpoints": (entry, exit_vertex),
                        "projections": (int(proj[x0]), int(proj[xm])),
                    }
                )
                continue
            if not any(int(proj[xk]) == entry and g.shortest_dist(xk, entry) <= r for xk in chain):
                res.hit({"piece": pid, "chain": chain, "entry": entry})
    return res


class TestChainSampler:
    @settings(max_examples=40, deadline=None)
    @given(validated_spaces, st.integers(2, 8), st.integers(0, 2**64 - 1))
    def test_lockstep_sampler_draws_the_scalar_chains(self, space, r, seed):
        g = space.graph
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        chains, (members, start, count) = lockstep_chains(g, r, rng, 50)
        assert chains == [scalar_weak_chain(g, r, ref) for _ in range(50)]
        assert rng.next_u64() == ref.next_u64()  # the same state after 50 chains
        # a ball for each point stepped from, holding what BFS puts within r
        held = np.flatnonzero(start >= 0).tolist()
        assert held == sorted({v for chain in chains for v in chain[:-1]})
        for v in held:
            ball = members[start.item(v) : start.item(v) + count.item(v)].tolist()
            assert ball == [w for w, d in enumerate(bfs_dists(g, v)) if d <= r]

    def test_no_chains_and_one_vertex(self):
        rng, ref = SplitMix64(5), SplitMix64(5)
        assert lockstep_chains(path_graph(4), 2, rng, 0)[0] == []
        assert rng.next_u64() == ref.next_u64()  # no draw was used
        point = Graph(1, [])
        chains, _ = lockstep_chains(point, 2, rng, 50)
        assert chains == [scalar_weak_chain(point, 2, ref) for _ in range(50)]
        assert rng.next_u64() == ref.next_u64()


def assert_check_equals_the_scalar_check(space, r, seed, pid=0, center=0, radius=-1, to=0, samples=250):
    """The lockstep and the scalar check agree, results and generator state,
    with the projections onto piece pid of the radius-ball around center
    moved to to, as in FAULTS (radius -1: none moved)."""
    moved = {x: to for x, d in enumerate(bfs_dists(space.graph, center)) if d <= radius}
    project = Space.project

    def moved_project(self, p, x):
        return moved[x] if p == pid and x in moved else project(self, p, x)

    rng, ref = SplitMix64(seed), SplitMix64(seed)
    with mock.patch.object(Space, "project", moved_project):
        got = checks.check_chain_entry_projection(checks.SpaceAnalysis(space), r, rng, samples)
        want = scalar_chain_entry_projection(checks.SpaceAnalysis(space), r, ref, samples)
    assert got.to_dict() == want.to_dict()
    assert rng.next_u64() == ref.next_u64()
    return got


class TestChainEntryLockstep:
    @settings(max_examples=30, deadline=None)
    @given(validated_spaces, st.integers(2, 8), st.integers(0, 2**64 - 1), st.data())
    def test_check_equals_the_scalar_check(self, space, r, seed, data):
        pid = data.draw(st.integers(0, len(space.pieces) - 1))
        center, to = data.draw(st.lists(st.sampled_from(sorted(space.pieces[pid])), min_size=2, max_size=2))
        radius = data.draw(st.sampled_from([-1, r - 1, r]))
        assert_check_equals_the_scalar_check(space, r, seed, pid, center, radius, to, samples=120)

    def test_both_kinds_of_violation_come_out_in_order(self):
        # a path in three long pieces; the projections onto the middle piece
        # of the 1-ball around its entry 10 moved to 15, so that chain points
        # at distance exactly r from the entry are what is left to find
        space = Space(path_graph(31), [set(range(0, 11)), set(range(10, 21)), set(range(20, 31))], 0)
        got = assert_check_equals_the_scalar_check(space, 2, 2, pid=1, center=10, radius=1, to=15)
        assert {"entry", "expected_endpoints"} <= {key for w in got.violations for key in w}
        assert got.info["suppressed"] > 0


class TestLandingMask:
    @settings(max_examples=30, deadline=None)
    @given(validated_spaces, st.integers(2, 6))
    def test_mask_equals_the_block_route_on_every_geodesic(self, space, r):
        # the landing points of check_geodesic_chain_distance, found on one
        # near_mask per component, against the |gamma| x |C| block and isin
        # it replaced, for every target of one cell
        g = space.graph
        setup, colorings, coloring = full_cell(space, r)
        report = cell_report(space, setup, coloring)
        comps = [comp for parts in report.components.values() for comp in parts]
        labels = report.component_labels
        for x in range(g.vertex_count):  # the labels name the part the old route searched for
            assert comps[labels[x]] == next(p for p in report.components[coloring[x]] if x in p)
        max_step = setup.chain.max_step
        masks = {}
        for x in range(g.vertex_count):
            gamma = np.asarray(checks.trace(space, setup, colorings, x).gamma.vertices)
            comp = np.asarray(sorted(comps[labels[x]]))
            old = np.isin(gamma, comp) | (g.dist_block(gamma, comp).min(axis=1) <= max_step)
            k = labels.item(x)
            mask = masks.setdefault(k, g.near_mask(comps[k], max_step))
            assert mask[gamma].tolist() == old.tolist()


def ambient_in_piece_hits(space, setup, colorings, coloring):
    """The three in-piece checks measured the ambient way, one scale_components
    search per color class and one diameter_witness call per set: (checked,
    every hit in order) per check name, offsets left out."""
    g = space.graph
    magnitude = setup.require_magnitude()
    small, wide = BASE_COMPONENT_FACTOR * magnitude, checks.IN_PIECE_CHAIN_FACTOR * magnitude
    out = {}
    checked, hits = 0, []
    for pid, pc in colorings.items():
        checked += 1
        diam, pair = g.diameter_witness(pc.base_component)
        if diam > small:
            hits.append({"piece": pid, "diameter": diam, "bound": small, "witness": pair})
    out["base_component_bound"] = checked, hits
    checked, hits = 0, []
    for pid in colorings:
        by_color = {}
        for x in space.pieces[pid]:
            by_color.setdefault(coloring[x], []).append(x)
        for c, members in sorted(by_color.items()):
            for comp in g.scale_components(members, setup.chain):
                checked += 1
                diam, pair = g.diameter_witness(comp)
                if diam > small:
                    hits.append({"piece": pid, "color": c, "diameter": diam, "bound": small, "witness": pair})
    out["piece_offset"] = checked, hits
    checked, hits = 0, []
    by_color = {}
    for v, c in enumerate(coloring.colors):
        by_color.setdefault(c, []).append(v)
    for c, members in sorted(by_color.items()):
        for comp in g.scale_components(members, setup.chain):
            per_piece = {}
            for v in comp:
                for pid in space.pieces_of_vertex[v]:
                    per_piece.setdefault(pid, []).append(v)
            for pid, verts in sorted(per_piece.items()):
                if len(verts) > 1:
                    checked += 1
                    diam, pair = g.diameter_witness(verts)
                    if diam > wide:
                        hits.append({"piece": pid, "color": c, "distance": diam, "bound": wide, "witness": pair})
    out["in_piece_chain_distance"] = checked, hits
    return out


def assert_in_piece_checks_match_ambient(space, r, magnitude=None):
    setup, colorings, coloring = full_cell(space, r)
    if magnitude is not None:
        setup.piece_magnitude = magnitude  # forces violations, witnesses and suppression
    results = [
        checks.check_base_component_bound(space, setup, colorings),
        checks.check_piece_offset(space, setup, colorings, coloring),
        checks.check_in_piece_chain_distance(space, setup, cell_report(space, setup, coloring)),
    ]
    want = ambient_in_piece_hits(space, setup, colorings, coloring)
    for res in results:
        checked, hits = want[res.name]
        offsets = sum(len(space.pieces[pid]) - 1 for pid in colorings) if res.name == "piece_offset" else 0
        assert res.checked - offsets == checked, res.name
        assert res.violations == hits[: checks.MAX_WITNESSES], res.name
        assert res.info.get("suppressed", 0) == max(0, len(hits) - checks.MAX_WITNESSES), res.name
    return results


class TestInPieceRoutes:
    """The in-piece checks read each piece's table in one pass; their counts,
    violations and witnesses must equal the ambient route's."""

    @pytest.mark.parametrize("magnitude", [None, 1, 0])
    @pytest.mark.parametrize(
        "space",
        [
            lambda: tripod_space(arm=8),
            lambda: gen_free_product_model(
                PieceTemplate.parse("grid:6x6"), PieceTemplate.parse("path:8"), depth=3, attach_spacing=3
            ),
            lambda: gen_free_product_model(
                PieceTemplate.parse("cycle:9"), PieceTemplate.parse("path:30"), depth=2, attach_spacing=2
            ),
        ],
    )
    def test_forced_violations_carry_ambient_witnesses(self, space, magnitude):
        results = assert_in_piece_checks_match_ambient(space(), 2, magnitude)
        if magnitude == 0:  # every bound is 0
            assert all(not res.ok for res in results)

    @settings(max_examples=10, deadline=None)
    @given(small_spaces(max_budget=5), st.sampled_from([2, 3, 4]), st.sampled_from([None, 1, 0]))
    def test_generated_spaces(self, space, r, magnitude):
        assert_in_piece_checks_match_ambient(space, r, magnitude)


def block_chain_search(arr, idx, sub, max_step: int, x: int, y: int) -> list[int] | None:
    """The reference chain search: breadth first over the |class|^2 distance
    block sub of the class arr (sorted; idx maps a member to its index)."""
    prev = {x: -1}
    queue = [x]
    while queue:
        nxt = []
        for u in queue:
            if u == y:
                chain = [y]
                while prev[chain[-1]] != -1:
                    chain.append(prev[chain[-1]])
                return list(reversed(chain))
            row = sub[idx[u]]
            for j in np.nonzero(row <= max_step)[0]:
                w = int(arr[j])
                if w not in prev and w != u:
                    prev[w] = u
                    nxt.append(w)
        queue = nxt
    return None


def block_projected_chain_color(ana, setup, colorings, coloring, tried_chains, pairs_per_piece=2):
    """The reference check_projected_chain_color: per color, a dict of weak
    components and the chain search over the class's |class|^2 block. Every
    chain it tries is appended to tried_chains."""
    res = checks.CheckResult("projected_chain_color")
    g = ana.space.graph
    weak = weak_chain(setup.r)
    by_color = {}
    for v, c in enumerate(coloring.colors):
        by_color.setdefault(c, []).append(v)
    comp_id = {
        c: {v: k for k, comp in enumerate(g.scale_components(members, weak)) for v in comp}
        for c, members in by_color.items()
    }
    for pid, pc in colorings.items():
        proj = ana.proj_array(pid)
        used = 0
        for c in sorted(by_color):
            arr = np.asarray(by_color[c])
            block = arr, {v: k for k, v in enumerate(by_color[c])}, g.dist_block(arr, arr)
            groups = {}
            for v in sorted(ana.space.pieces[pid]):
                if coloring[v] == c and v not in pc.base_component:
                    groups.setdefault(comp_id[c][v], []).append(v)
            for group in groups.values():
                tried = 0
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        if used >= pairs_per_piece or tried >= 6:
                            break
                        chain = block_chain_search(*block, weak.max_step, group[i], group[j])
                        tried_chains.append(chain)
                        tried += 1
                        if any(int(proj[v]) in pc.base_component for v in chain):
                            continue
                        used += 1
                        res.checked += 1
                        projected = [int(proj[v]) for v in chain]
                        if any(g.shortest_dist(a, b) > weak.max_step for a, b in zip(projected, projected[1:])):
                            res.hit({"piece": pid, "chain": chain, "reason": "projected step too long"})
                            continue
                        bad = [p for p in projected if coloring[p] != c]
                        if bad:
                            reason = "projected point changes color"
                            res.hit({"piece": pid, "chain": chain, "reason": reason, "bad": bad[:3]})
    return res


class TestChainSearch:
    """check_projected_chain_color walks its chains on memoised rows; they
    must be the chains of the block search over the whole class."""

    @settings(max_examples=25, deadline=None)
    @given(validated_spaces, st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_check_tries_the_block_routes_chains(self, space, r, seed):
        # the same chains are tried, in the same order, and give the same result
        ana = checks.SpaceAnalysis(space)
        setup, colorings, _ = full_cell(space, r)
        colors = np.random.default_rng(seed).integers(0, setup.colors, space.graph.vertex_count)
        coloring = SpaceColoring(tuple(colors.tolist()), setup)
        search, tried = checks._chain_search, []

        def recorded(*args):
            tried.append(search(*args))
            return tried[-1]

        with mock.patch.object(checks, "_chain_search", recorded):
            res = checks.check_projected_chain_color(ana, setup, colorings, coloring, pairs_per_piece=50)
        want_tried = []
        want = block_projected_chain_color(ana, setup, colorings, coloring, want_tried, pairs_per_piece=50)
        assert tried == want_tried
        assert res.to_dict() == want.to_dict()

    @settings(max_examples=40, deadline=None)
    @given(validated_spaces, st.integers(2, 4), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_rows_route_equals_block_route(self, space, k, r, seed):
        g = space.graph
        colors = np.random.default_rng(seed).integers(0, k, g.vertex_count)
        for c in range(k):
            arr = np.flatnonzero(colors == c)
            idx = {v: i for i, v in enumerate(arr.tolist())}
            sub = g.dist_block(arr, arr)
            for part in g.scale_components(arr, weak_chain(r)):
                members = sorted(part)
                pairs = list(itertools.combinations(members[:6], 2)) + [(members[-1], members[0])]
                for x, y in pairs:
                    want = block_chain_search(arr, idx, sub, r, x, y)
                    assert checks._chain_search(g, colors == c, r, x, y) == want

    def test_vertices_in_different_components_raise(self):
        g = path_graph(6)
        members = np.array([True, True, False, False, True, True])
        assert checks._chain_search(g, members, 3, 0, 5) == [0, 1, 4, 5]
        with pytest.raises(ValueError):
            checks._chain_search(g, members, 2, 0, 5)  # {0, 1} and {4, 5} are 3 apart

    def test_one_large_class_builds_no_block_of_it(self):
        # a path in long pieces, coloured constant: one class of every vertex
        n = 2001
        space = Space(path_graph(n), [set(range(i, i + 101)) for i in range(0, n - 1, 100)], 0)
        ana = checks.SpaceAnalysis(space)
        setup, colorings, coloring = full_cell(space, 2)
        constant = SpaceColoring(tuple(0 for _ in coloring.colors), setup)
        space.graph.dist_block(np.arange(n))  # every row is memoised
        for pid in range(len(space.pieces)):
            ana.proj_array(pid)
        tracemalloc.start()
        try:
            res = checks.check_projected_chain_color(ana, setup, colorings, constant)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.ok and res.checked > 0
        assert peak < n * n  # bytes: a quarter of one int32 block of the class
