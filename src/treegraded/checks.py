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

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .assemble import decompose_path, trace
from .coloring import (
    BASE_COMPONENT_FACTOR,
    PieceColoring,
    ScaleSetup,
    SpaceColoring,
)
from .graph import weak_chain
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
    """Shared caches for one space: projection arrays and piece distances."""

    def __init__(self, space: Space):
        space.require_valid()
        self.space = space
        self._proj: dict[int, np.ndarray] = {}
        self._piece_dist: dict[int, np.ndarray] = {}

    def proj_array(self, pid: int) -> np.ndarray:
        arr = self._proj.get(pid)
        if arr is None:
            space = self.space
            arr = np.fromiter(
                (space.project(pid, x) for x in range(space.graph.vertex_count)),
                dtype=np.int64,
                count=space.graph.vertex_count,
            )
            self._proj[pid] = arr
        return arr

    def piece_dist_array(self, pid: int) -> np.ndarray:
        arr = self._piece_dist.get(pid)
        if arr is None:
            arr = self.space.graph.dist_block(sorted(self.space.pieces[pid])).min(axis=0)
            self._piece_dist[pid] = arr
        return arr


# -- projection suite (coloring-free) -------------------------------------------


def check_projection_uniqueness(ana: SpaceAnalysis) -> CheckResult:
    res = CheckResult("projection_uniqueness")
    space = ana.space
    g = space.graph
    for pid, piece in enumerate(space.pieces):
        members = np.asarray(sorted(piece), dtype=np.int64)
        rows = g.dist_block(members)
        nearest = rows.min(axis=0)
        counts = (rows == nearest).sum(axis=0)
        argmins = members[np.argmax(rows == nearest, axis=0)]
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


def _random_weak_chain(ana: SpaceAnalysis, r: int, rng: SplitMix64) -> list[int]:
    g = ana.space.graph
    cur = rng.randint(0, g.vertex_count - 1)
    chain = [cur]
    for _ in range(rng.randint(2, 12)):
        near = np.nonzero(g.dist_row(cur) <= r)[0]
        cur = int(near[rng.randint(0, len(near) - 1)])
        chain.append(cur)
    return chain


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
    """
    res = CheckResult("chain_entry_projection")
    res.info["chains_sampled"] = samples
    space = ana.space
    g = space.graph
    for _ in range(samples):
        chain = _random_weak_chain(ana, r, rng)
        x0, xm = chain[0], chain[-1]
        omega = g.canonical_geodesic(x0, xm)
        met: list[tuple[int, int, int]] = []  # (piece, entry vertex, exit vertex)
        if omega.length:
            for pid, i, j in decompose_path(space, omega):
                met.append((pid, omega[i], omega[j]))
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
            found = False
            for xk in chain:
                if int(proj[xk]) == entry and g.shortest_dist(xk, entry) <= r:
                    found = True
                    break
            if not found:
                res.hit({"piece": pid, "chain": chain, "entry": entry})
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
        diam, pair = space.graph.diameter_witness(pc.base_component)
        if diam > bound:
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
        # in-piece monochromatic components of the assembled coloring
        by_color: dict[int, list[int]] = {}
        for x in space.pieces[pid]:
            by_color.setdefault(coloring[x], []).append(x)
        for c, members in sorted(by_color.items()):
            for comp in space.graph.scale_components(members, setup.chain):
                res.checked += 1
                diam, pair = space.graph.diameter_witness(comp)
                if diam > bound:
                    res.hit(
                        {
                            "piece": pid,
                            "color": c,
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


class _ClassChains:
    """Chain-step structure of one color class, built once and reused."""

    def __init__(self, space: Space, members: list[int]):
        self.idx = {v: i for i, v in enumerate(members)}
        self.arr = np.asarray(members, dtype=np.int64)
        self.sub = space.graph.dist_block(self.arr, self.arr)

    def chain_between(self, max_step: int, x: int, y: int) -> list[int] | None:
        arr, idx, sub = self.arr, self.idx, self.sub
        return _chain_search(arr, idx, sub, max_step, x, y)


def _chain_search(arr, idx, sub, max_step: int, x: int, y: int) -> list[int] | None:
    """Explicit chain from x to y inside the class with steps <= max_step."""
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
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(coloring.colors):
        by_color.setdefault(c, []).append(v)
    comp_id: dict[int, dict[int, int]] = {}
    for c, members in by_color.items():
        comp_id[c] = {}
        for k, comp in enumerate(g.scale_components(members, weak)):
            for v in comp:
                comp_id[c][v] = k
    class_chains: dict[int, _ClassChains] = {}

    def chains_for(c: int) -> _ClassChains:
        if c not in class_chains:
            class_chains[c] = _ClassChains(space, by_color[c])
        return class_chains[c]

    for pid, pc in colorings.items():
        proj = ana.proj_array(pid)
        piece = sorted(space.pieces[pid])
        used = 0
        for c in sorted(by_color):
            # endpoints project to themselves, so endpoints inside the base
            # component can never satisfy the proviso
            same = [
                v for v in piece if coloring[v] == c and v not in pc.base_component
            ]
            groups: dict[int, list[int]] = {}
            for v in same:
                groups.setdefault(comp_id[c][v], []).append(v)
            for group in groups.values():
                tried = 0
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        if used >= pairs_per_piece or tried >= 6:
                            break
                        x, y = group[i], group[j]
                        chain = chains_for(c).chain_between(weak.max_step, x, y)
                        if chain is None:
                            continue
                        tried += 1
                        if any(int(proj[v]) in pc.base_component for v in chain):
                            continue  # proviso: projections avoid the base component
                        used += 1
                        res.checked += 1
                        projected = [int(proj[v]) for v in chain]
                        for a, b in zip(projected, projected[1:]):
                            if g.shortest_dist(a, b) > weak.max_step:
                                res.hit(
                                    {"piece": pid, "chain": chain, "reason": "projected step too long"}
                                )
                                break
                        else:
                            bad = [p for p in projected if coloring[p] != c]
                            if bad:
                                res.hit(
                                    {
                                        "piece": pid,
                                        "chain": chain,
                                        "reason": "projected point changes color",
                                        "bad": bad[:3],
                                    }
                                )
    return res


def check_in_piece_chain_distance(
    space: Space, setup: ScaleSetup, coloring: SpaceColoring
) -> CheckResult:
    """Same-color vertices of one piece in one same-color strict component must
    be within 36x the piece magnitude."""
    res = CheckResult("in_piece_chain_distance")
    g = space.graph
    bound = IN_PIECE_CHAIN_FACTOR * setup.require_magnitude()
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(coloring.colors):
        by_color.setdefault(c, []).append(v)
    for c, members in sorted(by_color.items()):
        for comp in g.scale_components(members, setup.chain):
            per_piece: dict[int, list[int]] = {}
            for v in comp:
                for pid in space.pieces_of_vertex[v]:
                    per_piece.setdefault(pid, []).append(v)
            for pid, verts in sorted(per_piece.items()):
                if len(verts) < 2:
                    continue
                res.checked += 1
                diam, pair = g.diameter_witness(verts)
                if diam > bound:
                    res.hit(
                        {
                            "piece": pid,
                            "color": c,
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
    coloring: SpaceColoring,
    rng: SplitMix64,
    samples: int = 48,
) -> CheckResult:
    """Strict same-color chains from a vertex back onto its basepoint geodesic:
    when no long run strictly straddles the landing point, the landing point is
    within 140x the piece magnitude."""
    res = CheckResult("geodesic_chain_distance")
    space = ana.space
    g = space.graph
    bound = GEODESIC_CHAIN_FACTOR * setup.require_magnitude()
    max_step = setup.chain.max_step
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(coloring.colors):
        by_color.setdefault(c, []).append(v)
    comp_of: dict[int, frozenset[int]] = {}
    for c, members in by_color.items():
        for comp in g.scale_components(members, setup.chain):
            for v in comp:
                comp_of[v] = comp
    n = g.vertex_count
    targets = {rng.randint(0, n - 1) for _ in range(samples)}
    for x in sorted(targets):
        tr = trace(space, setup, colorings, x)
        gamma = tr.gamma
        if gamma.length == 0:
            continue
        comp = sorted(comp_of[x])
        comp_arr = np.asarray(comp, dtype=np.int64)
        gamma_arr = np.asarray(gamma.vertices, dtype=np.int64)
        sub = g.dist_block(comp_arr, gamma_arr)
        mindist = sub.min(axis=0)
        in_comp = np.isin(gamma_arr, comp_arr)
        long_runs = [(seg.start, seg.end) for seg in tr.segments if seg.long]
        length = gamma.length
        for t in range(length + 1):
            if not (in_comp[t] or mindist[t] <= max_step):
                continue
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
    rng: SplitMix64,
    chain_samples: int = 250,
    trace_samples: int = 64,
    geodesic_chain_samples: int = 48,
) -> list[CheckResult]:
    """Scale-dependent checks, run once per (space, r) cell."""
    return [
        check_chain_entry_projection(ana, setup.r, rng, chain_samples),
        check_trace_shape(ana, setup, colorings, rng, trace_samples),
        check_base_component_bound(ana.space, setup, colorings),
        check_piece_offset(ana.space, setup, colorings, coloring),
        check_near_projection_color(ana, setup, colorings, coloring),
        check_projected_chain_color(ana, setup, colorings, coloring),
        check_in_piece_chain_distance(ana.space, setup, coloring),
        check_geodesic_chain_distance(ana, setup, colorings, coloring, rng, geodesic_chain_samples),
    ]
