"""Acyclic delay networks: topology, kernel assignments, transfer matrices.

A network is a DAG with integer edge delays, source nodes emitting message
processes and sink nodes reading output processes. Local kernels sit on
three kinds of positions: alpha (source process -> outgoing edge), beta
(incoming edge -> outgoing edge across a node), eps (incoming edge -> sink
output). With unit delays the per-step recursion is

    Z(t+1)[e] = sum_j alpha[j,e] X(t)[j] + sum_e' beta[e',e] Z(t)[e']
    Y(t)[r]   = sum_e' eps[e',r] Z(t)[e']

so a path of L unit edges delivers an impulse L steps after injection and
the transfer matrix is the simulator's impulse response, degree for
degree. A delay-d edge behaves like a chain of d unit edges with
identity relays: D^d in the transfer matrix, a d-step shift of the
edge's series in the simulator. The simulator evaluates a whole window
of steps one edge at a time in topological order, so networks must be
acyclic, and the transfer matrix is one such window run on impulses.
"""

from __future__ import annotations

import random
from collections import UserDict, defaultdict
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import chain, compress, count, islice
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .galois import (
    FieldElement,
    FieldSpec,
    FqMatrix,
    NetcodeError,
    ParseError,
    Poly,
    PolyMatrix,
    _int,
    _list,
    spec_from_dict,
    spec_to_dict,
)

__all__ = [
    "CycleDetected",
    "DanglingDemand",
    "WindowUnderspecified",
    "Edge",
    "Source",
    "Sink",
    "NetworkSpec",
    "LekAssignment",
    "TransferResult",
    "validate",
    "normalize_delays",
    "min_cut",
    "transfer_matrix",
    "simulate",
    "random_leks",
    "network_to_dict",
    "network_from_dict",
    "leks_to_dict",
    "leks_from_dict",
    "transfer_from_dict",
]

EdgeKey = tuple[str, str, int]


class CycleDetected(NetcodeError):
    pass


class DanglingDemand(NetcodeError):
    pass


class WindowUnderspecified(NetcodeError):
    pass


# ----------------------------------------------------------------------
# network description
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    tail: str
    head: str
    index: int = 0
    delay: int = 1

    @property
    def key(self) -> EdgeKey:
        return (self.tail, self.head, self.index)


@dataclass(frozen=True)
class Source:
    node: str
    processes: int


@dataclass(frozen=True)
class Sink:
    node: str
    outputs: int


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable network description.

    Edges are re-sorted by (tail, head, index) on construction; that order
    fixes the layout of every kernel vector and matrix derived from the
    network, so independent runs agree entry for entry.

    connections holds demand triples (source index, sink index, process
    index): sink j wants process l of source i. The edge order of the
    simulator, the path delays and the kernel positions are computed on
    first use and kept with the object; a dataclasses.replace copy is a
    new object and computes its own.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    sources: tuple[Source, ...]
    sinks: tuple[Sink, ...]
    connections: frozenset[tuple[int, int, int]] = dc_field(default_factory=frozenset)

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Iterable[Edge],
        sources: Iterable[Source],
        sinks: Iterable[Sink],
        connections: Iterable[tuple[int, int, int]] = (),
    ):
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(
            self, "edges", tuple(sorted(edges, key=lambda e: e.key))
        )
        object.__setattr__(self, "sources", tuple(sources))
        object.__setattr__(self, "sinks", tuple(sinks))
        object.__setattr__(
            self, "connections", frozenset(tuple(c) for c in connections)
        )

    # -- derived dimensions --------------------------------------------

    @property
    def mu_list(self) -> tuple[int, ...]:
        return tuple(s.processes for s in self.sources)

    @property
    def nu_list(self) -> tuple[int, ...]:
        return tuple(s.outputs for s in self.sinks)

    @property
    def mu(self) -> int:
        return sum(self.mu_list)

    @property
    def nu(self) -> int:
        return sum(self.nu_list)

    def demands_of_sink(self, j: int) -> list[tuple[int, int]]:
        """Sorted (source index, process index) pairs demanded by sink j."""
        return sorted((i, l) for (i, j2, l) in self.connections if j2 == j)

    def is_unit_delay(self) -> bool:
        return all(e.delay == 1 for e in self.edges)

    @cached_property
    def _edge_order(self) -> tuple[int, ...]:
        """Edge positions by the rank of their tails in validate's node order.

        The first read validates the network; a refusal is not kept, so an
        invalid network raises on every read. The memo lives in the
        instance dict, outside the dataclass fields.
        """
        rank = {v: k for k, v in enumerate(validate(self))}
        return tuple(sorted(range(len(self.edges)), key=lambda k: rank[self.edges[k].tail]))

    @cached_property
    def _kernel_index(self):
        """Where compiled kernels point: each edge key's position, and the
        flat index of each (source, process, node) and (sink, output, node)."""
        ins = [(i, l, s.node) for i, s in enumerate(self.sources) for l in range(s.processes)]
        outs = [(j, r, s.node) for j, s in enumerate(self.sinks) for r in range(s.outputs)]
        pos = {(e.tail, e.head, e.index): k for k, e in enumerate(self.edges)}
        return pos, dict(zip(ins, count())), dict(zip(outs, count()))

    @cached_property
    def _path_extremes(self) -> tuple[int, int] | None:
        """Shortest and longest source-to-sink path delays, None without a path.

        Every edge is visited once, after every edge into its tail.
        """
        reach = dict.fromkeys((s.node for s in self.sources), (0, 0))  # (shortest, longest)
        for k in self._edge_order:
            e = self.edges[k]
            got = reach.get(e.tail)
            if got is not None:
                lo, hi = got[0] + e.delay, got[1] + e.delay
                was = reach.get(e.head)
                reach[e.head] = (lo, hi) if was is None else (min(was[0], lo), max(was[1], hi))
        ends = [reach[s.node] for s in self.sinks if s.node in reach]
        if not ends:
            return None
        return min(lo for lo, _ in ends), max(hi for _, hi in ends)

    @cached_property
    def _admissible_positions(self):
        """Kernel positions (alpha, beta, eps) in canonical order (edges
        already sorted), as tuples."""
        keys = [e.key for e in self.edges]
        leaving, entering = defaultdict(list), defaultdict(list)  # edge keys by tail, by head
        for k in keys:
            leaving[k[0]].append(k)
            entering[k[1]].append(k)
        alpha_keys = tuple(
            ((i, l), k)
            for i, src in enumerate(self.sources)
            for l in range(src.processes)
            for k in leaving[src.node]
        )
        beta_keys = tuple((k1, k2) for k1 in keys for k2 in leaving[k1[1]])
        eps_keys = tuple(
            (k, (j, r))
            for j, snk in enumerate(self.sinks)
            for k in entering[snk.node]
            for r in range(snk.outputs)
        )
        return alpha_keys, beta_keys, eps_keys


# ----------------------------------------------------------------------
# kernel assignments
# ----------------------------------------------------------------------

KernelTriple = tuple[
    Mapping[tuple[tuple[int, int], EdgeKey], FieldElement],
    Mapping[tuple[EdgeKey, EdgeKey], FieldElement],
    Mapping[tuple[EdgeKey, tuple[int, int]], FieldElement],
]


@dataclass(frozen=True)
class LekAssignment:
    """Local encoding kernels for one network.

    mode "invariant" stores one (alpha, beta, eps) triple. mode "time"
    stores one triple per time step starting at t0; asking for a step
    outside the stored window raises WindowUnderspecified.

    alpha keys: ((source index, process index), out-edge key)
    beta keys:  (in-edge key, out-edge key) with head(in) = tail(out)
    eps keys:   (in-edge key, (sink index, output index))

    Every window compiles the kernels afresh, so it runs the mappings as
    they are when it starts.
    """

    field: FieldSpec
    mode: str = "invariant"
    alpha: Mapping = dc_field(default_factory=dict)
    beta: Mapping = dc_field(default_factory=dict)
    eps: Mapping = dc_field(default_factory=dict)
    t0: int = 0
    steps: tuple[KernelTriple, ...] = ()

    def kernels_at(self, t: int) -> KernelTriple:
        if self.mode == "invariant":
            return (self.alpha, self.beta, self.eps)
        idx = t - self.t0
        if not 0 <= idx < len(self.steps):
            raise WindowUnderspecified(
                f"no kernels stored for time {t}; window is "
                f"[{self.t0}, {self.t0 + len(self.steps) - 1}]"
            )
        return self.steps[idx]

    def window(self) -> tuple[int, int] | None:
        if self.mode == "invariant":
            return None
        return (self.t0, self.t0 + len(self.steps) - 1)


class _Kept(UserDict):
    """A part (alpha, beta or eps) of a kernel document read in bulk, kept as
    its key columns and codes, which _compiled_columns compiles; the mapping
    is made when first read."""

    def __init__(self, spec: FieldSpec, part: str, cols: list, codes: list[int]):
        self._read = spec, part, cols, codes

    def kept_codes(self) -> dict:
        """Each kernel's code by its key, as the columns were read."""
        _, part, (a, b, *c), codes = self._read
        keys = {"alpha": zip(zip(a, b), *c), "beta": zip(a, b), "eps": zip(a, zip(b, *c))}[part]
        return dict(zip(keys, codes))  # last value wins

    @cached_property
    def data(self) -> dict:
        spec = self._read[0]
        return {k: FieldElement(spec, v) for k, v in self.kept_codes().items()}


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def _check_delay(e: Edge) -> None:
    if e.delay < 1:
        raise ValueError(f"edge {e.key} has delay {e.delay}; must be >= 1")


def _check_demand(c, mu_list: Sequence[int], n_sinks: int) -> None:
    """Raise DanglingDemand unless c names an existing (source, sink, process)."""
    if len(c) != 3:
        raise DanglingDemand(f"malformed demand {c}")
    i, j, l = c
    if not 0 <= i < len(mu_list):
        raise DanglingDemand(f"demand {c}: no source {i}")
    if not 0 <= j < n_sinks:
        raise DanglingDemand(f"demand {c}: no sink {j}")
    if not 0 <= l < mu_list[i]:
        raise DanglingDemand(f"demand {c}: source {i} has no process {l}")


def validate(net: NetworkSpec) -> list[str]:
    """Check every structural invariant; return a topological node order.

    The order is deterministic: among ready nodes the lexicographically
    smallest name leaves first.
    """
    nodes = list(net.nodes)
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate node names")
    node_set = set(nodes)
    seen_keys = set()
    for e in net.edges:
        if e.tail not in node_set or e.head not in node_set:
            raise ValueError(f"edge {e.key} references unknown nodes")
        _check_delay(e)
        if e.key in seen_keys:
            raise ValueError(f"duplicate edge key {e.key}")
        seen_keys.add(e.key)
    for s in net.sources:
        if s.node not in node_set:
            raise ValueError(f"source node {s.node} unknown")
        if s.processes < 1:
            raise ValueError("source must emit at least one process")
    for s in net.sinks:
        if s.node not in node_set:
            raise ValueError(f"sink node {s.node} unknown")
        if s.outputs < 1:
            raise ValueError("sink must read at least one output")
    for c in net.connections:
        _check_demand(c, net.mu_list, len(net.sinks))
        i, j, _ = c
        if net.sources[i].node == net.sinks[j].node:
            raise DanglingDemand(f"demand {c}: source and sink share a node")

    # Kahn's algorithm with sorted tie-break
    indeg = {v: 0 for v in nodes}
    succ: dict[str, list[str]] = {v: [] for v in nodes}
    for e in net.edges:
        indeg[e.head] += 1
        succ[e.tail].append(e.head)
    import heapq

    ready = [v for v in nodes if indeg[v] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != len(nodes):
        stuck = sorted(v for v in nodes if indeg[v] > 0)
        raise CycleDetected(f"cycle through nodes {stuck}")
    return order


# ----------------------------------------------------------------------
# delay normalization
# ----------------------------------------------------------------------


def _chain_node(tail: str, head: str, index: int, k: int, taken: set[str]) -> str:
    name = f"{tail}~{head}~{index}~{k}"
    while name in taken:
        name += "'"
    return name


def normalize_delays(net: NetworkSpec, leks: LekAssignment | None = None):
    """Expand every delay-d edge into a chain of d unit edges.

    Intermediate dummy nodes relay with identity beta kernels. With a
    kernel assignment supplied, returns (network, translated kernels);
    otherwise returns just the network. The transfer matrix is unchanged.
    Every computation handles delays natively; this expansion is the
    reference the tests check them against.
    """
    if net.is_unit_delay():
        return net if leks is None else (net, leks)

    nodes = list(net.nodes)
    taken = set(nodes)
    new_edges: list[Edge] = []
    # original edge key -> (first chain edge key, last chain edge key)
    span: dict[EdgeKey, tuple[EdgeKey, EdgeKey]] = {}
    # interior relay hops as (prev edge key, next edge key) pairs
    relay_pairs: list[tuple[EdgeKey, EdgeKey]] = []
    for e in net.edges:
        if e.delay == 1:
            new_edges.append(e)
            span[e.key] = (e.key, e.key)
            continue
        hops: list[EdgeKey] = []
        prev = e.tail
        for k in range(1, e.delay):
            mid = _chain_node(e.tail, e.head, e.index, k, taken)
            taken.add(mid)
            nodes.append(mid)
            idx = e.index if k == 1 else 0
            new_edges.append(Edge(prev, mid, idx, 1))
            hops.append((prev, mid, idx))
            prev = mid
        new_edges.append(Edge(prev, e.head, 0, 1))
        hops.append((prev, e.head, 0))
        span[e.key] = (hops[0], hops[-1])
        relay_pairs.extend(zip(hops, hops[1:]))

    net2 = NetworkSpec(nodes, new_edges, net.sources, net.sinks, net.connections)
    if leks is None:
        return net2

    one = leks.field.one()

    def translate(triple: KernelTriple) -> KernelTriple:
        al, be, ep = triple
        al2 = {(inp, span[ek][0]): v for (inp, ek), v in al.items()}
        be2 = {(span[k1][1], span[k2][0]): v for (k1, k2), v in be.items()}
        for pair in relay_pairs:
            be2[pair] = one
        ep2 = {(span[ek][1], out): v for (ek, out), v in ep.items()}
        return (al2, be2, ep2)

    if leks.mode == "invariant":
        leks2 = LekAssignment(
            leks.field, "invariant", *translate((leks.alpha, leks.beta, leks.eps))
        )
    else:
        leks2 = LekAssignment(
            leks.field,
            "time",
            t0=leks.t0,
            steps=tuple(translate(s) for s in leks.steps),
        )
    return net2, leks2


# ----------------------------------------------------------------------
# min-cut
# ----------------------------------------------------------------------


def _cutter(net: NetworkSpec) -> Callable[..., int]:
    """cut(i, j, limit=None): min_cut(net, i, j), or limit if that is
    smaller, each call on the one capacity map built here."""
    cap: dict[str, dict[str, int]] = {}  # parallel edges merged
    for e in net.edges:
        out = cap.setdefault(e.tail, {})
        out[e.head] = out.get(e.head, 0) + 1
        cap.setdefault(e.head, {}).setdefault(e.tail, 0)  # for the residual

    def cut(i: int, j: int, limit: int | None = None) -> int:
        s, t = net.sources[i].node, net.sinks[j].node
        if s == t:
            raise ValueError("source and sink share a node; min-cut undefined")
        res = {v: dict(out) for v, out in cap.items()}
        flow = 0
        while flow != limit:
            # BFS for an augmenting path
            parent: dict[str, str] = {s: s}
            queue = [s]
            for v in queue:  # grows as the search goes
                for w, c in res.get(v, {}).items():
                    if c and w not in parent:
                        parent[w] = v
                        queue.append(w)
            if t not in parent:
                break
            # unit capacities: every augmenting path carries 1
            v = t
            while v != s:
                u = parent[v]
                res[u][v] -= 1
                res[v][u] += 1
                v = u
            flow += 1
        return flow

    return cut


def min_cut(net: NetworkSpec, i: int, j: int) -> int:
    """Edge-disjoint path count from source i's node to sink j's node."""
    return _cutter(net)(i, j)


# ----------------------------------------------------------------------
# transfer matrix
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TransferResult:
    """Normalized transfer matrix of one network and kernel assignment.

    M is nu x mu with polynomial entries in the delay variable D, the
    common factor D^d_prime_min already divided out, so some entry has a
    nonzero constant term whenever M is nonzero. Row blocks follow sinks,
    column blocks follow sources. d_max = d_prime_max - d_prime_min bounds
    every entry degree.
    """

    field: FieldSpec
    M: PolyMatrix
    d_prime_min: int
    d_prime_max: int
    mu_list: tuple[int, ...]
    nu_list: tuple[int, ...]

    @property
    def d_max(self) -> int:
        return self.d_prime_max - self.d_prime_min

    @property
    def mu(self) -> int:
        return sum(self.mu_list)

    @property
    def nu(self) -> int:
        return sum(self.nu_list)

    def block(self, i: int, j: int) -> PolyMatrix:
        """M_ij(D): source i to sink j, shape nu_j x mu_i."""
        r0 = sum(self.nu_list[:j])
        c0 = sum(self.mu_list[:i])
        return self.M.submatrix(
            range(r0, r0 + self.nu_list[j]), range(c0, c0 + self.mu_list[i])
        )

    def coeff(self, d: int) -> FqMatrix:
        """Normalized lag-d coefficient matrix M^(d), nu x mu."""
        return self.M.coeff_matrix(d)


def _compiled_kernels(net: NetworkSpec, triple: KernelTriple, spec: FieldSpec):
    """Index kernel dicts against the sorted edge list; validate adjacency."""
    # a known edge key (tail, head, index) names the edge's ends itself
    pos, ins, outs = net._kernel_index
    al, be, ep = triple
    a_terms = []  # (edge pos, flat input index, code)
    for (inp, ekey), v in al.items():
        if ekey not in pos:
            raise ValueError(f"alpha kernel on unknown edge {ekey}")
        i, l = inp
        if not (0 <= i < len(net.sources) and 0 <= l < net.sources[i].processes):
            raise ValueError(f"alpha kernel on unknown input {inp}")
        if net.sources[i].node != ekey[0]:
            raise ValueError(f"alpha kernel {inp}->{ekey} not at the source node")
        if v.spec is not spec and v.spec != spec:
            raise ValueError("kernel from a different field")
        if v.code:
            a_terms.append((pos[ekey], ins[i, l, ekey[0]], v.code))
    b_terms = []  # (out edge pos, in edge pos, code)
    for (k1, k2), v in be.items():
        if k1 not in pos or k2 not in pos:
            raise ValueError(f"beta kernel on unknown edges {(k1, k2)}")
        if k1[1] != k2[0]:
            raise ValueError(f"beta kernel {(k1, k2)} not adjacent")
        if v.spec is not spec and v.spec != spec:
            raise ValueError("kernel from a different field")
        if v.code:
            b_terms.append((pos[k2], pos[k1], v.code))
    e_terms = []  # (flat output index, edge pos, code)
    for (ekey, out), v in ep.items():
        if ekey not in pos:
            raise ValueError(f"eps kernel on unknown edge {ekey}")
        j, r = out
        if not (0 <= j < len(net.sinks) and 0 <= r < net.sinks[j].outputs):
            raise ValueError(f"eps kernel on unknown output {out}")
        if net.sinks[j].node != ekey[1]:
            raise ValueError(f"eps kernel {ekey}->{out} not at the sink node")
        if v.spec is not spec and v.spec != spec:
            raise ValueError("kernel from a different field")
        if v.code:
            e_terms.append((outs[j, r, ekey[1]], pos[ekey], v.code))
    return a_terms, b_terms, e_terms


def _compiled_columns(net: NetworkSpec, triple: KernelTriple):
    """_compiled_kernels of a triple read in bulk and not read as mappings
    since, or None if it is not, or if a kernel has no place in net."""
    if not all(type(p) is _Kept and "data" not in vars(p) for p in triple):
        return None
    pos, ins, outs = net._kernel_index
    (i, l, a_edges), (b_ins, b_outs), (e_edges, j, r) = (p._read[2] for p in triple)
    if list(map(itemgetter(1), b_ins)) != list(map(itemgetter(0), b_outs)):
        return None  # a beta kernel between edges that do not meet
    at = pos.__getitem__
    # (what a kernel writes, what it reads); an alpha kernel's edge leaves its
    # source's node and an eps kernel's edge enters its sink's
    places = [
        zip(map(at, a_edges), map(ins.__getitem__, zip(i, l, map(itemgetter(0), a_edges)))),
        zip(map(at, b_outs), map(at, b_ins)),
        zip(map(outs.__getitem__, zip(j, r, map(itemgetter(1), e_edges))), map(at, e_edges)),
    ]
    try:  # a repeated place keeps its last code
        kept = [dict(zip(place, p._read[3])) for place, p in zip(places, triple)]
    except KeyError:  # an edge, input or output that net does not have
        return None
    return [[(x, y, c) for (x, y), c in part.items() if c] for part in kept]


def _terms(net: NetworkSpec, leks: LekAssignment, t: int):
    """The compiled kernels of step t, as the assignment's mappings are now."""
    triple = leks.kernels_at(t)
    return _compiled_columns(net, triple) or _compiled_kernels(net, triple, leks.field)


def transfer_matrix(net: NetworkSpec, leks: LekAssignment) -> TransferResult:
    """Exact transfer matrix of a time-invariant kernel assignment.

    This is M(D) = B (I - K(D))^-1 A with the link delays inside K(D), and
    entry (r, c) is the response of sink output r to a unit impulse on
    input c: the coefficient of D^d is what arrives d steps after the
    impulse. So one simulation window computes all of M. With L - 1 the
    longest source-to-sink path delay, input c gets its impulse at step
    c * L, and row r's steps c * L .. c * L + L - 1 hold entry (r, c) from
    D^0 up. The common delay D^d_prime_min is divided out. A window too
    long to allocate raises ValueError.
    """
    if leks.mode != "invariant":
        raise ValueError("transfer_matrix needs time-invariant kernels")
    extremes = net._path_extremes
    span = 1 if extremes is None else extremes[1] + 1
    steps = net.mu * span
    try:
        impulses = [[0] * (c * span) + [1] + [0] * (steps - c * span - 1) for c in range(net.mu)]
        rows = _window(net, leks, 0, steps)(impulses)
    except (MemoryError, OverflowError):
        raise ValueError(
            f"longest path delay {span - 1} needs a window of {steps} steps, "
            "too many to allocate"
        ) from None
    # a zero M, with no nonzero lag, reads d_prime_min = d_prime_max = 0
    lags = {t % span for row in rows for t in compress(range(steps), row)}
    dmin, dmax = min(lags, default=0), max(lags, default=0)
    spec, width = leks.field, dmax - dmin + 1
    M = [[Poly(spec, row[t : t + width]) for t in range(dmin, steps, span)] for row in rows]
    return TransferResult(spec, PolyMatrix(spec, M), dmin, dmax, net.mu_list, net.nu_list)


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------


def _window(
    net: NetworkSpec, leks: LekAssignment, t_start: int, steps: int
) -> Callable[[Sequence[Sequence[int]]], list]:
    """Compile the kernels of steps t_start .. t_start + steps - 1.

    The network is validated before any kernel is read. Time-indexed
    kernels are read step by step, so the first step outside the stored
    window raises. A time-indexed term keeps its factor at each step and
    the series it reads as code lists, multiplies them entry by entry and
    adds the product with the row kernel's axpy at factor 1.
    Returns run(inputs): inputs[c] holds flat input c's code at each step,
    and row r of the result flat output r's codes, as the row kernel
    unpacks them.
    """
    edges = net._edge_order
    spec = leks.field
    kern = spec._kernel(steps)
    prep, unpack, pack, axpy = kern.prep, kern.unpack, kern.pack, kern.axpy
    if leks.mode == "invariant":
        terms = _terms(net, leks, t_start)
        keep, add = prep, axpy
    else:
        # each term's codes over the window, zero where a step lacks it
        series = [defaultdict(lambda: [0] * steps) for _ in range(3)]
        for s in range(steps):
            for found, part in zip(series, _terms(net, leks, t_start + s)):
                for a, b, code in part:
                    found[a, b][s] = code
        terms = [[(a, b, codes) for (a, b), codes in found.items()] for found in series]
        mul, keep = spec._mul_codes, list

        def add(row, factors, codes, off=0):
            # entry j of codes arrives at step off + j and meets its factor
            return axpy(row, 1, prep(list(map(mul, factors[off:], codes))), off)

    # every term is (what it writes, what it reads, factor); group them by
    # the edge (alpha, beta) or flat output (eps) they write
    grouped = [[[] for _ in range(size)] for size in (len(net.edges), len(net.edges), net.nu)]
    for groups, part in zip(grouped, terms):
        for dst, src, f in part:
            groups[dst].append((src, f))
    alpha_in, beta_in, eps_in = grouped
    delay = [e.delay for e in net.edges]
    zero = unpack(pack([0]), 1) * steps  # steps zero codes, unpacked

    def run(inputs: Sequence[Sequence[int]]) -> list:
        # The series written to edge e sums alpha * x_c and beta * (the
        # series of each in-edge e', delayed by delay(e')); output r sums
        # eps * (the series of e, delayed by delay(e)). Only the first
        # steps - delay(e) symbols written to e arrive inside the window,
        # and a series with no nonzero symbol is None, its terms skipped.
        xs = [keep(x) if any(x) else None for x in inputs]
        arrived: list = [None] * len(delay)
        for k in edges:
            if delay[k] >= steps:
                continue
            row = pack(zero)
            for c, f in alpha_in[k]:
                if xs[c] is not None:
                    row = add(row, f, xs[c])
            for k2, f in beta_in[k]:
                if arrived[k2] is not None:
                    row = add(row, f, arrived[k2], delay[k2])
            head = unpack(row, steps)[: steps - delay[k]]
            arrived[k] = keep(head) if any(head) else None
        outs = []
        for terms in eps_in:
            row = pack(zero)
            for k, f in terms:
                if arrived[k] is not None:
                    row = add(row, f, arrived[k], delay[k])
            outs.append(unpack(row, steps))
        return outs

    return run


def _check_steps(
    net: NetworkSpec, leks: LekAssignment, inputs: Sequence, t_start: int, elements: bool
) -> None:
    """Raise the first step's error, if inputs do not fit the network.

    The shapes are checked in bulk; only if that fails are the steps
    walked in order. A step's checks run in this order: symbol fields
    (elements only), source count, stored kernels, vector lengths.
    """
    spec = leks.field
    procs = [s.processes for s in net.sources]
    vecs = list(chain.from_iterable(inputs))
    fits = set(map(len, inputs)) <= {len(procs)} and list(map(len, vecs)) == procs * len(inputs)
    if fits and (not elements or set(map(attrgetter("spec"), chain.from_iterable(vecs))) <= {spec}):
        return
    for step, x_t in enumerate(inputs):
        if elements and any(sym.spec != spec for vec in x_t for sym in vec):
            raise ValueError("input symbol from a different field")
        if len(x_t) != len(procs):
            raise ValueError(
                f"step {step} gives {len(x_t)} source vectors, the network has "
                f"{len(procs)} sources"
            )
        if leks.mode != "invariant":
            _terms(net, leks, t_start + step)
        if [len(vec) for vec in x_t] != procs:
            i = next(i for i, vec in enumerate(x_t) if len(vec) != procs[i])
            raise ValueError(f"step {step}: source {i} expects {procs[i]} symbols")


def _simulate_rows(
    net: NetworkSpec,
    leks: LekAssignment,
    inputs: Sequence,
    t_start: int,
    elements: bool,
    codes: Sequence[int] | None = None,
) -> list:
    """simulate's outputs as rows: row r holds flat output r at each step.

    inputs is shaped as simulate's. codes, when given, holds the codes of
    its symbols in step order; otherwise they are read from inputs.
    """
    net._edge_order  # validates the network before any input check
    timed = leks.mode != "invariant"
    if not timed:  # kernel errors come before input errors
        run = _window(net, leks, t_start, len(inputs))
    _check_steps(net, leks, inputs, t_start, elements)
    if timed:
        run = _window(net, leks, t_start, len(inputs))
    mu = net.mu
    if codes is None:
        codes = list(chain.from_iterable(chain.from_iterable(inputs)))
        if elements:
            codes = list(map(attrgetter("code"), codes))
        _check_codes(codes, leks.field, mu)
    return run([codes[c::mu] for c in range(mu)])


def _check_codes(codes: Sequence, spec: FieldSpec, width: int, step="step {}".format) -> None:
    """ValueError naming step(t) for the first of codes, width to a step t,
    that is not an int in [0, q)."""
    if codes and (set(map(type, codes)) != {int} or min(codes) < 0 or max(codes) >= spec.q):
        k = next(k for k, c in enumerate(codes) if type(c) is not int or not 0 <= c < spec.q)
        raise ValueError(f"{step(k // width)}: input code {codes[k]!r} is not a code of {spec}")


def _by_step(net: NetworkSpec, rows: Sequence[Sequence], steps: int) -> list[list[list]]:
    """outputs[t][j], sink j's symbols at step t, from rows of flat outputs."""
    rows = iter(rows)
    sinks = [map(list, zip(*islice(rows, snk.outputs))) for snk in net.sinks]
    return list(map(list, zip(*sinks))) if sinks else [[] for _ in range(steps)]


def simulate(
    net: NetworkSpec,
    leks: LekAssignment,
    inputs: Sequence[Sequence[Sequence[FieldElement]]],
    t_start: int = 0,
    codes: bool = False,
) -> list[list[list[FieldElement]]]:
    """Run the network over the window of steps starting at t_start.

    inputs[t][i] is the symbol vector source i injects at step t. Edges
    are empty before the window. Returns outputs[t][j], sink j's reading
    at step t, one entry per step of the input window. With codes=True
    the symbols of inputs and outputs are integer codes of leks.field
    instead of FieldElements. An input whose code is not an int in
    [0, q) raises ValueError naming its step.

    Edge e carries at step t what its tail wrote at step t - delay(e),
    and kernels of step t act where a symbol enters or leaves an edge,
    which is what a chain of delay(e) unit edges with identity relays
    does. The network must pass validate: the window is evaluated one
    edge at a time, in topological order.
    """
    inputs = list(inputs)
    rows = _simulate_rows(net, leks, inputs, t_start, not codes)
    if not codes:
        spec = leks.field
        rows = [[FieldElement(spec, c) for c in row] for row in rows]
    return _by_step(net, rows, len(inputs))


# ----------------------------------------------------------------------
# random kernels
# ----------------------------------------------------------------------


def random_leks(
    net: NetworkSpec,
    field: FieldSpec,
    seed,
    mode: str = "invariant",
    window: tuple[int, int] | None = None,
    nonzero: bool = False,
) -> LekAssignment:
    """Deterministic pseudorandom kernels on every admissible position.

    The same seed always yields the same assignment, across processes.
    With nonzero=True draws avoid the zero element. Time-indexed mode
    draws an independent triple for every step of the window.
    """
    rng = random.Random(f"leks:{seed}")
    positions = net._admissible_positions
    lo = 1 if nonzero else 0
    # randrange(lo, q) is lo + a draw of getrandbits(k) below q - lo, redrawn
    # until it is; running that loop here skips its Python layers and leaves
    # the same draws and the same generator state
    span, draw = field.q - lo, rng.getrandbits
    k = span.bit_length()

    def draw_triple() -> KernelTriple:
        triple = []
        for keys in positions:
            part = {}
            for key in keys:
                x = draw(k)
                while x >= span:
                    x = draw(k)
                part[key] = FieldElement(field, lo + x)
            triple.append(part)
        return tuple(triple)

    if mode == "invariant":
        al, be, ep = draw_triple()
        return LekAssignment(field, "invariant", al, be, ep)
    if mode != "time":
        raise ValueError(f"unknown mode {mode!r}")
    if window is None:
        raise ValueError("time-indexed kernels need a window")
    t0, t1 = window
    if t1 < t0:
        raise ValueError("empty window")
    steps = tuple(draw_triple() for _ in range(t0, t1 + 1))
    return LekAssignment(field, "time", t0=t0, steps=steps)


# ----------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------


def network_to_dict(net: NetworkSpec) -> dict:
    sinks = []
    for j, s in enumerate(net.sinks):
        sinks.append(
            {
                "node": s.node,
                "outputs": s.outputs,
                "demands": [[i, l] for (i, l) in net.demands_of_sink(j)],
            }
        )
    return {
        "nodes": list(net.nodes),
        "edges": [
            {"tail": e.tail, "head": e.head, "index": e.index, "delay": e.delay}
            for e in net.edges
        ],
        "sources": [{"node": s.node, "processes": s.processes} for s in net.sources],
        "sinks": sinks,
    }


def _objects(d: dict, key: str, required: set[str]) -> list[dict]:
    """d[key] as a list of objects that each hold the required keys."""
    for k, x in enumerate(d[key]):
        if not isinstance(x, dict) or not x.keys() >= required:
            keys = ", ".join(sorted(required))
            raise ParseError(f"network.{key}[{k}] must be an object with {keys}, got {x!r}")
    return d[key]


def network_from_dict(d: dict) -> NetworkSpec:
    # paths are format strings filled in only when a value is refused
    edges = [
        Edge(
            str(e["tail"]),
            str(e["head"]),
            _int(e.get("index", 0), "network.edges[{}].index", k),
            _int(e.get("delay", 1), "network.edges[{}].delay", k),
        )
        for k, e in enumerate(_objects(d, "edges", {"tail", "head"}))
    ]
    sources = [
        Source(str(s["node"]), _int(s.get("processes", 1), "network.sources[{}].processes", k))
        for k, s in enumerate(_objects(d, "sources", {"node"}))
    ]
    sinks = []
    connections = []
    for j, s in enumerate(_objects(d, "sinks", {"node"})):
        outputs = _int(s.get("outputs", 1), "network.sinks[{}].outputs", j)
        sinks.append(Sink(str(s["node"]), outputs))
        for k, demand in enumerate(_list(s.get("demands", []), "network.sinks[{}].demands", j)):
            if not isinstance(demand, list) or len(demand) != 2:
                raise ParseError(
                    f"network.sinks[{j}].demands[{k}] must be a [source, process] pair, "
                    f"got {demand!r}"
                )
            at = ("network.sinks[{}].demands[{}]", j, k)
            connections.append((_int(demand[0], *at), j, _int(demand[1], *at)))
    nodes = [str(n) for n in d["nodes"]]
    return NetworkSpec(nodes, edges, sources, sinks, connections)


def leks_to_dict(leks: LekAssignment) -> dict:
    to_json = leks.field.codes_to_json

    def triple_to_json(triple: KernelTriple) -> dict:
        # a part read in bulk whose mapping was never read writes its kept
        # codes, so no mapping is made
        al, be, ep = (
            sorted(part.kept_codes().items() if type(part) is _Kept and "data" not in vars(part)
                   else ((k, v.code) for k, v in part.items()))
            for part in triple
        )
        values = iter(to_json([c for part in (al, be, ep) for _, c in part]))
        return {
            "alpha": [[i, l, list(ek), x] for (((i, l), ek), _), x in zip(al, values)],
            "beta": [[list(k1), list(k2), x] for ((k1, k2), _), x in zip(be, values)],
            "eps": [[list(ek), j, r, x] for ((ek, (j, r)), _), x in zip(ep, values)],
        }

    out: dict = {"mode": leks.mode, "field": spec_to_dict(leks.field)}
    if leks.mode == "invariant":
        out.update(triple_to_json((leks.alpha, leks.beta, leks.eps)))
    else:
        out["t0"] = leks.t0
        out["steps"] = [triple_to_json(s) for s in leks.steps]
    return out


def _edge_key(x, path: str, *args) -> EdgeKey:
    if not isinstance(x, list) or len(x) != 3:
        raise ParseError(f"{path.format(*args)} must be a [tail, head, index] edge, got {x!r}")
    return (str(x[0]), str(x[1]), _int(x[2], path, *args))


# each part's entry size, and which of an entry's fields hold integers and edges
_ENTRIES = (("alpha", 4, (0, 1), (2,)), ("beta", 3, (), (0, 1)), ("eps", 4, (1, 2), (0,)))


def _read_in_bulk(spec: FieldSpec, tds) -> list[KernelTriple] | None:
    """Each triple of kernels as _Kept parts, checked column by column, or
    None unless every entry is a list of its part's size with ints and
    [str, str, int] lists where they belong, and every value an element
    of spec."""
    parts, ints, edges, values = [], [], [], []
    # a str or an object where a list belongs leaves a str where an int is
    # checked for, and any other non-list fails len() or tuple()
    try:
        for td in tds:
            for part, size, int_cols, edge_cols in _ENTRIES:
                rows = td.get(part, [])
                if type(rows) is not list or not set(map(len, rows)) <= {size}:
                    return None
                cols = list(zip(*rows)) or [()] * size
                ints += [cols[k] for k in int_cols]
                for k in edge_cols:
                    cols[k] = list(map(tuple, cols[k]))
                    edges += cols[k]
                parts.append((part, cols))
                values += cols[-1]
        if not set(map(type, chain.from_iterable(ints))) <= {int} or not set(map(len, edges)) <= {3}:
            return None
        if list(map(type, chain.from_iterable(edges))) != [str, str, int] * len(edges):
            return None
        codes = spec.codes_from_json(values)
    except (AttributeError, TypeError, ParseError):  # AttributeError: a step not an object
        return None
    kept, end = [], 0
    for part, cols in parts:
        start, end = end, end + len(cols[-1])
        kept.append(_Kept(spec, part, cols[:-1], codes[start:end]))
    return [tuple(kept[k : k + 3]) for k in range(0, len(kept), 3)]


def _walked_triple(spec: FieldSpec, td: dict, path: str) -> KernelTriple:
    """One triple of kernels read entry by entry: each entry's shape, key
    and value are checked in document order, and its value converted."""
    if not isinstance(td, dict):
        raise ParseError(f"{path} must be an object, got {td!r}")
    triple: KernelTriple = ({}, {}, {})
    for terms, key, size in zip(triple, ("alpha", "beta", "eps"), (4, 3, 4)):
        for k, x in enumerate(_list(td.get(key, []), "{}.{}", path, key)):
            # entry k's path, formatted only when one of its values is refused
            at = ("{}.{}[{}]", path, key, k)
            if not isinstance(x, list) or len(x) != size:
                raise ParseError(f"{path}.{key}[{k}] must be a list of {size} values, got {x!r}")
            if key == "alpha":  # [source, process, edge, value]
                pos = ((_int(x[0], *at), _int(x[1], *at)), _edge_key(x[2], *at))
            elif key == "beta":  # [in edge, out edge, value]
                pos = (_edge_key(x[0], *at), _edge_key(x[1], *at))
            else:  # [edge, sink, output, value]
                pos = (_edge_key(x[0], *at), (_int(x[1], *at), _int(x[2], *at)))
            # in document order, so a repeated position keeps its last value
            terms[pos] = spec.element(x[-1], f"{path}.{key}[{k}]")
    return triple


def leks_from_dict(d: dict) -> LekAssignment:
    """The kernel assignment of a kernel document, read in bulk (see
    _read_in_bulk) or, if that fails, entry by entry, so that a refusal
    names the first bad entry in document order. A kernel with no place in
    the network is refused when a window first compiles it.
    """
    if not isinstance(d, dict):
        raise ParseError(f"kernels must be an object, got {d!r}")
    spec = spec_from_dict(d.get("field"), "kernels.field")
    mode = d.get("mode", "invariant")
    if mode not in ("invariant", "time"):
        raise ParseError(f'kernels.mode must be "invariant" or "time", got {mode!r}')
    tds, t0 = ([d], 0) if mode == "invariant" else (d.get("steps"), d.get("t0"))
    triples = _read_in_bulk(spec, tds)
    if triples is None or type(t0) is not int:
        tds = _list(tds, "kernels.steps")
        paths = [f"kernels.steps[{k}]" for k in range(len(tds))] if mode == "time" else ["kernels"]
        triples = [_walked_triple(spec, td, path) for td, path in zip(tds, paths)]
        t0 = _int(t0, "kernels.t0")
    if mode == "invariant":
        return LekAssignment(spec, "invariant", *triples[0])
    return LekAssignment(spec, "time", t0=t0, steps=tuple(triples))


def _counts(x, path: str) -> tuple[int, ...]:
    out = tuple(_int(c, path) for c in _list(x, path))
    if any(c < 0 for c in out):
        raise ParseError(f"{path} must hold non-negative integers, got {x!r}")
    return out


def transfer_from_dict(d: dict) -> TransferResult:
    spec = spec_from_dict(d["field"], "transfer.field")
    mu_list = _counts(d["mu_list"], "transfer.mu_list")
    nu_list = _counts(d["nu_list"], "transfer.nu_list")
    rows = []
    for r, row in enumerate(_list(d["entries"], "transfer.entries")):
        entries = []
        for c, p in enumerate(_list(row, "transfer.entries[{}]", r)):
            codes = spec.codes_from_json(
                _list(p, "transfer.entries[{}][{}]", r, c),
                lambda _: f"transfer.entries[{r}][{c}]",
            )
            entries.append(Poly(spec, codes))
        rows.append(entries)
    if len(rows) != sum(nu_list) or any(len(row) != sum(mu_list) for row in rows):
        raise ParseError(
            f"transfer.entries must be {sum(nu_list)} rows (sum of nu_list) "
            f"of {sum(mu_list)} entries (sum of mu_list)"
        )
    d_prime_min = _int(d.get("d_prime_min"), "transfer.d_prime_min")
    d_prime_max = _int(d.get("d_prime_max"), "transfer.d_prime_max")
    if d_prime_min > d_prime_max:
        raise ParseError(
            f"transfer.d_prime_min must be at most transfer.d_prime_max, "
            f"got {d_prime_min} > {d_prime_max}"
        )
    for r, row in enumerate(rows):
        for c, p in enumerate(row):
            if p.degree() > d_prime_max - d_prime_min:
                raise ParseError(
                    f"transfer.entries[{r}][{c}] has degree {p.degree()}, above "
                    f"d_prime_max - d_prime_min = {d_prime_max - d_prime_min}"
                )
    return TransferResult(
        spec, PolyMatrix(spec, rows), d_prime_min, d_prime_max, mu_list, nu_list
    )
