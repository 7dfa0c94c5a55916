"""Empirical property suites for the projection and coloring claims.

Each check returns a CheckResult with the number of cases examined and the
violating witnesses (empty means the property held everywhere it was tested).
Exhaustive checks cover every applicable vertex/piece/edge; sampled checks
draw from a pinned splitmix64 stream so runs are reproducible.

The suites, by name:

  projection_uniqueness    every vertex has exactly one nearest vertex in each
                           piece, and the gluing-tree answer matches it
  projection_lipschitz     projections do not increase distances (checked on
                           all edges, which implies all pairs) and restrict to
                           the identity on the piece
  projection_stability     if d(x,y) <= d(x,P) then x and y project alike
  chain_entry_projection   a weak r-chain meeting a piece via its endpoint
                           geodesic has a point projecting to the geodesic's
                           entry, within r of it
  trace_shape              short runs <= 8x piece magnitude, long runs >= 2r,
                           runs enter at the piece base vertex and exit at the
                           target's projection, and tile the geodesic
  base_component_bound     base components have diameter <= 8x piece magnitude
  piece_offset             inside a piece the assembled coloring differs from
                           the recolored piece coloring by an offset in {0,1}
                           (mod n+1), and in-piece monochromatic components
                           stay <= 8x piece magnitude
  near_projection_color    within distance r of a piece, color transfers from
                           the projection (when it avoids the base component)
  projected_chain_color    projecting a same-color weak chain into a piece
                           keeps it a same-color weak chain (base-component
                           proviso)
  in_piece_chain_distance  same-color vertices of one piece joined by a
                           same-color strict chain are within 36x magnitude
  geodesic_chain_distance  a same-color strict chain from a vertex back onto
                           its own basepoint geodesic lands within 140x
                           magnitude (no-straddling hypothesis)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .assemble import decompose_path, trace
from .coloring import (
    BASE_COMPONENT_FACTOR,
    MagnitudeReport,
    PieceColoring,
    ScaleSetup,
    SpaceColoring,
)
from .graph import _BLOCK_ENTRIES, Graph, piece_diameters, weak_chain
from .rng import SplitMix64
from .space import Space

IN_PIECE_CHAIN_FACTOR = 36
GEODESIC_CHAIN_FACTOR = 140

MAX_WITNESSES = 8


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    violations: list[dict] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def hit(self, witness: dict):
        if len(self.violations) < MAX_WITNESSES:
            self.violations.append(witness)
        else:
            self.info["suppressed"] = self.info.get("suppressed", 0) + 1

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "violations": self.violations,
            "info": self.info,
        }


class SpaceAnalysis:
    """Shared caches for one space: Space.projection arrays and piece distances.

    A piece's member rows are gathered once per space: the first of
    check_projection_uniqueness (through nearest) and piece_dist_array to
    reach a piece reads them, and only the distance array is kept."""

    def __init__(self, space: Space):
        space.require_valid()
        self.space = space
        self._proj: dict[int, np.ndarray] = {}
        self._piece_dist: dict[int, np.ndarray] = {}

    def proj_array(self, pid: int) -> np.ndarray:
        arr = self._proj.get(pid)
        if arr is None:
            arr = self._proj[pid] = self.space.projection(pid)
        return arr

    def nearest(self, pid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For every vertex: its distance to piece pid, how many members lie
        at that distance, and the smallest of them; from one gather of the
        members' rows, whose distance array is kept."""
        members = np.asarray(sorted(self.space.pieces[pid]), dtype=np.int64)
        rows = self.space.graph.dist_block(members)
        dist = self._piece_dist[pid] = rows.min(axis=0)
        at = rows == dist
        return dist, at.sum(axis=0), members[at.argmax(axis=0)]

    def piece_dist_array(self, pid: int) -> np.ndarray:
        arr = self._piece_dist.get(pid)
        return self.nearest(pid)[0] if arr is None else arr


# -- projection suite (coloring-free) -------------------------------------------


def check_projection_uniqueness(ana: SpaceAnalysis) -> CheckResult:
    res = CheckResult("projection_uniqueness")
    space = ana.space
    g = space.graph
    for pid in range(len(space.pieces)):
        _, counts, argmins = ana.nearest(pid)
        proj = ana.proj_array(pid)
        res.checked += g.vertex_count
        for x in np.nonzero(counts != 1)[0]:
            res.hit({"piece": pid, "vertex": int(x), "nearest_count": int(counts[x])})
        for x in np.nonzero(argmins != proj)[0]:
            res.hit(
                {
                    "piece": pid,
                    "vertex": int(x),
                    "tree_answer": int(proj[x]),
                    "brute_answer": int(argmins[x]),
                }
            )
    return res


def check_projection_lipschitz(ana: SpaceAnalysis) -> CheckResult:
    res = CheckResult("projection_lipschitz")
    space = ana.space
    g = space.graph
    edges = sorted(g.edges)
    us = np.fromiter((u for u, _ in edges), dtype=np.int64, count=len(edges))
    vs = np.fromiter((v for _, v in edges), dtype=np.int64, count=len(edges))
    for pid, piece in enumerate(space.pieces):
        proj = ana.proj_array(pid)
        gaps = g.dist_pairs(proj[us], proj[vs])
        res.checked += len(edges)
        for k in np.nonzero(gaps > 1)[0]:
            res.hit(
                {
                    "piece": pid,
                    "edge": (int(us[k]), int(vs[k])),
                    "projected_distance": int(gaps[k]),
                }
            )
        for v in sorted(piece):
            res.checked += 1
            if int(proj[v]) != v:
                res.hit({"piece": pid, "vertex": v, "projection": int(proj[v])})
    return res


def check_projection_stability(ana: SpaceAnalysis, rng: SplitMix64, samples: int = 10_000) -> CheckResult:
    res = CheckResult("projection_stability")
    space = ana.space
    g = space.graph
    n = g.vertex_count
    k = len(space.pieces)
    # per sample, in order: x in [0, n), y in [0, n), piece in [0, k)
    draws = rng.randint_block(0, np.tile([n - 1, n - 1, k - 1], (samples, 1))).astype(np.int64)
    xs, ys, pids = draws.T
    res.checked += samples
    to_piece = np.empty(samples, dtype=np.int64)
    for pid in np.unique(pids):
        at = pids == pid
        to_piece[at] = ana.piece_dist_array(int(pid))[xs[at]]
    applicable = g.dist_pairs(xs, ys) <= to_piece
    moved = np.zeros(samples, dtype=bool)
    for pid in np.unique(pids[applicable]):
        at = applicable & (pids == pid)
        proj = ana.proj_array(int(pid))
        moved[at] = proj[xs[at]] != proj[ys[at]]
    for i in np.flatnonzero(moved):
        x, y, pid = (int(v) for v in draws[i])
        proj = ana.proj_array(pid)
        res.hit({"piece": pid, "pair": (x, y), "projections": (int(proj[x]), int(proj[y]))})
    res.info["applicable"] = int(applicable.sum())
    return res


def _weak_chains(
    g: Graph, r: int, rng: SplitMix64, samples: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """samples random weak r-chains, drawn in lockstep: chain c is points[c,
    : steps[c] + 1], and the r-balls stepped from come back as one CSR,
    (members, start, count), the ball of v being members[start[v] : start[v]
    + count[v]] in ascending order (start[v] = -1: no ball built).

    Chain c is a uniform start, then 2 to 12 steps, each to a uniform member
    of the current point's r-ball. Drawn one at a time, it takes 2 + steps[c]
    randint draws (start, step count, one per step), each one raw output; so
    the 14 * samples outputs ahead are peeked, one pass over the step counts
    finds where each chain's draws begin, and the generator skips exactly
    the draws used. Round t then moves every chain with more than t steps
    on, after building, a block of rows at a time, the balls of the points
    that lack one: the same rows the scalar draws read."""
    n = g.vertex_count
    raw = rng.peek(14 * samples)
    first, steps = [], []  # per chain: where its draws begin, its step count
    at = 0
    for _ in range(samples):
        k = 2 + raw.item(at + 1) % 11
        first.append(at)
        steps.append(k)
        at += 2 + k
    rng.skip(at)
    first, steps = np.array(first, dtype=np.int64), np.array(steps, dtype=np.int64)
    points = np.zeros((samples, 13), dtype=np.int64)
    points[:, 0] = raw[first] % np.uint64(n)
    members = np.empty(0, dtype=np.int32)  # int32 halves what the balls hold
    start = np.full(n, -1, dtype=np.int64)
    count = np.zeros(n, dtype=np.uint64)  # uint64, like the raw draws it reduces
    height = max(1, _BLOCK_ENTRIES // n)
    for t in range(12):
        live = np.flatnonzero(steps > t)
        here = points[live, t]
        need = np.unique(here[start[here] < 0])
        for lo in range(0, need.size, height):
            block = need[lo : lo + height]
            rows, cols = np.nonzero(g.dist_block(block) <= r)
            sizes = np.bincount(rows, minlength=block.size)
            start[block] = members.size + np.cumsum(sizes) - sizes
            count[block] = sizes
            members = np.concatenate([members, cols.astype(np.int32)])
        pick = raw[first[live] + 2 + t] % count[here]
        points[live, t + 1] = members[start[here] + pick.astype(np.int64)]
    return points, steps, (members, start, count)


def check_chain_entry_projection(
    ana: SpaceAnalysis, r: int, rng: SplitMix64, samples: int = 250
) -> CheckResult:
    """Weak r-chains against the geodesic between their endpoints: every piece
    the geodesic crosses (in at least one edge) is entered at the projection of
    the chain start, and some chain point projects there from within distance r.

    Pieces met in a single vertex are excluded: when that vertex sits inside
    another piece with several geodesics (a grid, an even cycle), chains can
    route around it and the claim genuinely fails; it is provable, and used,
    only for edge-crossings, where the entry vertex separates the chain's
    start from its end.

    Each stage runs once over all the chains. They are drawn in lockstep
    (_weak_chains), and the generator ends where drawing them one at a time
    would leave it. Each chain's canonical geodesic is cut into its piece
    runs (decompose_path). Then every run is tested at once: the projections
    of every chain point onto its run's piece are gathered from proj_array,
    one dist_pairs reads how far the points that project onto the entry lie
    from it, and violations are reported in (chain, run) order.
    """
    res = CheckResult("chain_entry_projection")
    res.info["chains_sampled"] = samples
    space = ana.space
    g = space.graph
    points, steps, _ = _weak_chains(g, r, rng, samples)
    runs: list[tuple[int, int, int, int]] = []  # (chain, piece, entry vertex, exit vertex)
    for c, (x0, xm) in enumerate(zip(points[:, 0].tolist(), points[np.arange(samples), steps].tolist())):
        omega = g.canonical_geodesic(x0, xm)
        if omega.length:
            runs += [(c, pid, omega[i], omega[j]) for pid, i, j in decompose_path(space, omega)]
    res.checked += len(runs)
    if not runs:
        return res
    which, pids, entry, exit_vertex = np.array(runs, dtype=np.int64).T
    # each run's chain points (past the last, vertex 0, masked off below) and their projections
    pts, last = points[which], steps[which]
    proj = np.empty_like(pts)
    for pid in np.unique(pids).tolist():
        at = pids == pid
        proj[at] = ana.proj_array(pid)[pts[at]]
    ends_ok = (proj[:, 0] == entry) & (proj[np.arange(len(runs)), last] == exit_vertex)
    on_entry = (proj == entry[:, None]) & (np.arange(pts.shape[1]) <= last[:, None]) & ends_ok[:, None]
    i, k = np.nonzero(on_entry)
    found = np.zeros(len(runs), dtype=bool)
    found[i[g.dist_pairs(pts[i, k], entry[i]) <= r]] = True
    for q in np.flatnonzero(~found).tolist():
        c, pid, a, b = runs[q]
        chain = points[c, : steps.item(c) + 1].tolist()
        if ends_ok[q]:
            res.hit({"piece": pid, "chain": chain, "entry": a})
        else:
            res.hit(
                {
                    "piece": pid,
                    "chain": chain,
                    "expected_endpoints": (a, b),
                    "projections": (proj.item(q, 0), proj.item(q, last.item(q))),
                }
            )
    return res


# -- trace and coloring suites ---------------------------------------------------


def check_trace_shape(
    ana: SpaceAnalysis,
    setup: ScaleSetup,
    colorings: Mapping[int, PieceColoring],
    rng: SplitMix64,
    samples: int = 64,
) -> CheckResult:
    res = CheckResult("trace_shape")
    space = ana.space
    bound_short = BASE_COMPONENT_FACTOR * setup.require_magnitude()
    basepoints = space.basepoints()
    n = space.graph.vertex_count
    targets = {rng.randint(0, n - 1) for _ in range(samples)}
    for x in sorted(targets):
        tr = trace(space, setup, colorings, x)
        res.checked += 1
        prev_end = 0
        for seg in tr.segments:
            if seg.start != prev_end:
                res.hit({"vertex": x, "piece": seg.piece, "reason": "segments do not tile"})
            prev_end = seg.end
            if seg.entry != basepoints[seg.piece]:
                res.hit(
                    {
                        "vertex": x,
                        "piece": seg.piece,
                        "reason": "entry is not the piece base vertex",
                        "entry": seg.entry,
                    }
                )
            proj = ana.proj_array(seg.piece)
            if int(proj[x]) != seg.exit:
                res.hit(
                    {
                        "vertex": x,
                        "piece": seg.piece,
                        "reason": "exit is not the projection",
                        "exit": seg.exit,
                        "projection": int(proj[x]),
                    }
                )
            if seg.long and seg.length < 2 * setup.r:
                res.hit({"vertex": x, "piece": seg.piece, "reason": "long run too short", "length": seg.length})
            if not seg.long and seg.length > bound_short:
                res.hit({"vertex": x, "piece": seg.piece, "reason": "short run too long", "length": seg.length})
        if tr.segments and tr.segments[-1].end != tr.gamma.length:
            res.hit({"vertex": x, "reason": "segments do not reach the target"})
        covered = tr.beta_ranges[0][0] == 0 and tr.beta_ranges[-1][1] == tr.gamma.length
        for (a, b), (_, c, d) in zip(tr.beta_ranges, tr.reduced):
            covered = covered and b == c
        if not covered:
            res.hit({"vertex": x, "reason": "betas and reduced runs do not cover the geodesic"})
    return res


def check_base_component_bound(
    space: Space, setup: ScaleSetup, colorings: Mapping[int, PieceColoring]
) -> CheckResult:
    res = CheckResult("base_component_bound")
    bound = BASE_COMPONENT_FACTOR * setup.require_magnitude()
    for pid, pc in colorings.items():
        res.checked += 1
        if pc.base_diameter > bound:
            diam, pair = space.graph.diameter_witness(pc.base_component)
            res.hit({"piece": pid, "diameter": diam, "bound": bound, "witness": pair})
    return res


def check_piece_offset(
    space: Space,
    setup: ScaleSetup,
    colorings: Mapping[int, PieceColoring],
    coloring: SpaceColoring,
) -> CheckResult:
    res = CheckResult("piece_offset")
    mod = setup.colors
    bound = BASE_COMPONENT_FACTOR * setup.require_magnitude()
    constant_everywhere = True
    for pid, pc in colorings.items():
        base_color = coloring[pc.basepoint]
        offsets = set()
        for x in sorted(space.pieces[pid]):
            if x == pc.basepoint:
                continue
            res.checked += 1
            off = (coloring[x] - pc.recolored[x] - base_color) % mod
            offsets.add(off)
            if off not in (0, 1):
                res.hit({"piece": pid, "vertex": x, "offset": off})
        if len(offsets) > 1:
            constant_everywhere = False
        # in-piece monochromatic components of the assembled coloring, by
        # color, then by smallest vertex
        verts = sorted(space.pieces[pid])
        colors = [coloring[x] for x in verts]
        comp, diams = piece_diameters(space.piece_table(pid), colors, setup.chain.max_step)
        res.checked += diams.size
        for k in np.flatnonzero(diams > bound).tolist():
            members = [x for x, j in zip(verts, comp.tolist()) if j == k]
            diam, pair = space.graph.diameter_witness(members)
            res.hit(
                {
                    "piece": pid,
                    "color": coloring[members[0]],
                    "diameter": diam,
                    "bound": bound,
                    "witness": pair,
                }
            )
    res.info["offset_constant_per_piece"] = constant_everywhere
    return res


def check_near_projection_color(
    ana: SpaceAnalysis,
    setup: ScaleSetup,
    colorings: Mapping[int, PieceColoring],
    coloring: SpaceColoring,
) -> CheckResult:
    res = CheckResult("near_projection_color")
    space = ana.space
    for pid, pc in colorings.items():
        near = np.nonzero(ana.piece_dist_array(pid) <= setup.r)[0]
        proj = ana.proj_array(pid)
        for x64 in near:
            x = int(x64)
            p = int(proj[x])
            if p in pc.base_component:
                continue
            res.checked += 1
            if coloring[x] != coloring[p]:
                res.hit(
                    {
                        "piece": pid,
                        "vertex": x,
                        "projection": p,
                        "colors": (coloring[x], coloring[p]),
                    }
                )
    return res


def _chain_search(g: Graph, members: np.ndarray, max_step: int, x: int, y: int) -> list[int]:
    """The breadth-first chain from x to y through members (a boolean mask
    over the vertices) with steps <= max_step. A vertex's candidate next steps
    are the members within max_step of it, read from its memoised row in
    ascending order, and the first vertex to reach a member keeps it; so no
    distance block among the members is built. x and y must share a chain
    component of members."""
    prev = {x: x}
    level = [x]
    while y not in prev:
        if not level:
            raise ValueError(f"{x} and {y} share no chain component")
        nxt = []
        for u in level:
            for w in np.flatnonzero((g.dist_row(u) <= max_step) & members).tolist():
                if w not in prev:
                    prev[w] = u
                    nxt.append(w)
        level = nxt
    chain = [y]
    while chain[-1] != x:
        chain.append(prev[chain[-1]])
    return chain[::-1]


def check_projected_chain_color(
    ana: SpaceAnalysis,
    setup: ScaleSetup,
    colorings: Mapping[int, PieceColoring],
    coloring: SpaceColoring,
    pairs_per_piece: int = 2,
) -> CheckResult:
    """Project same-color weak chains joining two vertices of a piece; when no
    projected point falls in the base component, the projected chain must be a
    weak chain of the same color."""
    res = CheckResult("projected_chain_color")
    space = ana.space
    g = space.graph
    weak = weak_chain(setup.r)
    colors = np.asarray(coloring.colors)
    comp = np.empty(g.vertex_count, dtype=np.int64)  # weak component in its class, by smallest vertex
    for c in np.unique(colors).tolist():
        for part in g.scale_components(np.flatnonzero(colors == c), weak):
            comp[list(part)] = min(part)
    for pid, pc in colorings.items():
        proj = ana.proj_array(pid)
        used = 0
        # endpoints project to themselves, so endpoints inside the base
        # component can never satisfy the proviso; pairs are tried by color,
        # then by weak component, in order of first vertex
        groups: dict[int, list[int]] = {}
        for v in sorted(space.pieces[pid] - pc.base_component, key=lambda v: (coloring[v], v)):
            groups.setdefault(comp.item(v), []).append(v)
        for group in groups.values():
            c = coloring[group[0]]
            for tried, (x, y) in enumerate(itertools.combinations(group, 2)):
                if used >= pairs_per_piece or tried >= 6:
                    break
                chain = _chain_search(g, colors == c, weak.max_step, x, y)
                projected = proj[chain]
                if any(p in pc.base_component for p in projected.tolist()):
                    continue  # proviso: projections avoid the base component
                used += 1
                res.checked += 1
                bad = [p for p in projected.tolist() if coloring[p] != c]
                if (g.dist_pairs(projected[:-1], projected[1:]) > weak.max_step).any():
                    res.hit({"piece": pid, "chain": chain, "reason": "projected step too long"})
                elif bad:
                    res.hit({"piece": pid, "chain": chain, "reason": "projected point changes color", "bad": bad[:3]})
    return res


def check_in_piece_chain_distance(space: Space, setup: ScaleSetup, report: MagnitudeReport) -> CheckResult:
    """Same-color vertices of one piece in one same-color strict component must
    be within 36x the piece magnitude.

    The components are those of report, the magnitude_report of the whole
    space's coloring at setup.chain."""
    res = CheckResult("in_piece_chain_distance")
    g = space.graph
    bound = IN_PIECE_CHAIN_FACTOR * setup.require_magnitude()
    # ambient components numbered by color, then by smallest vertex
    comps = [comp for parts in report.components.values() for comp in parts]
    colors = [c for c, parts in report.components.items() for _ in parts]
    comp_of = report.component_labels
    over: list[tuple[int, int]] = []  # (component, piece) whose part in the piece is too wide
    for pid, piece in enumerate(space.pieces):
        labels = comp_of[sorted(piece)]
        comp, diams = piece_diameters(space.piece_table(pid), labels)
        res.checked += int((np.bincount(comp) >= 2).sum())
        ids = np.unique(labels)  # the component of each diameter
        over += [(k, pid) for k in ids[diams > bound].tolist()]
    for k, pid in sorted(over):
        diam, pair = g.diameter_witness(comps[k] & space.pieces[pid])
        res.hit(
            {
                "piece": pid,
                "color": colors[k],
                "distance": diam,
                "bound": bound,
                "witness": pair,
            }
        )
    return res


def check_geodesic_chain_distance(
    ana: SpaceAnalysis,
    setup: ScaleSetup,
    colorings: Mapping[int, PieceColoring],
    report: MagnitudeReport,
    rng: SplitMix64,
    samples: int = 48,
) -> CheckResult:
    """Strict same-color chains from a vertex back onto its basepoint geodesic:
    when no long run strictly straddles the landing point, the landing point is
    within 140x the piece magnitude.

    The components are those of report, the magnitude_report of the cell's
    coloring at setup.chain."""
    res = CheckResult("geodesic_chain_distance")
    space = ana.space
    g = space.graph
    bound = GEODESIC_CHAIN_FACTOR * setup.require_magnitude()
    max_step = setup.chain.max_step
    n = g.vertex_count
    comps = [comp for parts in report.components.values() for comp in parts]
    comp_of = report.component_labels
    # component -> mask of the vertices within max_step of it, where a strict
    # chain in the component can land; for this call only
    landings: dict[int, np.ndarray] = {}
    targets = {rng.randint(0, n - 1) for _ in range(samples)}
    for x in sorted(targets):
        tr = trace(space, setup, colorings, x)
        gamma = tr.gamma
        if gamma.length == 0:
            continue
        k = comp_of.item(x)
        landing = landings.get(k)
        if landing is None:
            landing = landings[k] = g.near_mask(comps[k], max_step)
        gamma_arr = np.asarray(gamma.vertices, dtype=np.int64)
        long_runs = [(seg.start, seg.end) for seg in tr.segments if seg.long]
        length = gamma.length
        for t in np.flatnonzero(landing[gamma_arr]).tolist():
            if any(a < t < b for a, b in long_runs):
                continue  # straddled landing point: hypothesis fails
            res.checked += 1
            if length - t > bound:
                res.hit(
                    {
                        "vertex": x,
                        "landing": int(gamma_arr[t]),
                        "distance": length - t,
                        "bound": bound,
                    }
                )
    return res


def space_suite(ana: SpaceAnalysis, rng: SplitMix64, stability_samples: int = 10_000) -> list[CheckResult]:
    """Coloring-free checks, run once per space."""
    return [
        check_projection_uniqueness(ana),
        check_projection_lipschitz(ana),
        check_projection_stability(ana, rng, stability_samples),
    ]


def cell_suite(
    ana: SpaceAnalysis,
    setup: ScaleSetup,
    colorings: Mapping[int, PieceColoring],
    coloring: SpaceColoring,
    report: MagnitudeReport,
    rng: SplitMix64,
    chain_samples: int = 250,
    trace_samples: int = 64,
    geodesic_chain_samples: int = 48,
) -> list[CheckResult]:
    """Scale-dependent checks, run once per (space, r) cell.

    report is the cell's magnitude_report of coloring, measured at
    setup.chain: the checks read its color classes' scale components."""
    return [
        check_chain_entry_projection(ana, setup.r, rng, chain_samples),
        check_trace_shape(ana, setup, colorings, rng, trace_samples),
        check_base_component_bound(ana.space, setup, colorings),
        check_piece_offset(ana.space, setup, colorings, coloring),
        check_near_projection_color(ana, setup, colorings, coloring),
        check_projected_chain_color(ana, setup, colorings, coloring),
        check_in_piece_chain_distance(ana.space, setup, report),
        check_geodesic_chain_distance(ana, setup, colorings, report, rng, geodesic_chain_samples),
    ]
