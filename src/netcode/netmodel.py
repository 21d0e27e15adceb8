"""Acyclic delay networks: topology, kernel assignments, transfer matrices.

A network is a DAG with integer edge delays, source nodes emitting message
processes and sink nodes reading output processes. Local kernels sit on
three kinds of positions: alpha (source process -> outgoing edge), beta
(incoming edge -> outgoing edge across a node), eps (incoming edge -> sink
output). With unit delays the per-step recursion is

    Z(t+1)[e] = sum_j alpha[j,e] X(t)[j] + sum_e' beta[e',e] Z(t)[e']
    Y(t)[r]   = sum_e' eps[e',r] Z(t)[e']

so a path of L unit edges delivers an impulse L steps after injection and
the simulator agrees with the transfer matrix degree for degree. A
delay-d edge behaves like a chain of d unit edges with identity relays:
D^d in the transfer matrix, a d-step delay line in the simulator.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Mapping, Sequence

from .galois import (
    FieldElement,
    FieldSpec,
    FqMatrix,
    NetcodeError,
    Poly,
    PolyMatrix,
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
    "transfer_to_dict",
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
    index): sink j wants process l of source i.
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

    def input_offset(self, i: int) -> int:
        return sum(self.mu_list[:i])

    def output_offset(self, j: int) -> int:
        return sum(self.nu_list[:j])

    def demands_of_sink(self, j: int) -> list[tuple[int, int]]:
        """Sorted (source index, process index) pairs demanded by sink j."""
        return sorted((i, l) for (i, j2, l) in self.connections if j2 == j)

    def out_edges(self, node: str) -> list[Edge]:
        return [e for e in self.edges if e.tail == node]

    def in_edges(self, node: str) -> list[Edge]:
        return [e for e in self.edges if e.head == node]

    def is_unit_delay(self) -> bool:
        return all(e.delay == 1 for e in self.edges)


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


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def _check_delay(e: Edge) -> None:
    if e.delay < 1:
        raise ValueError(f"edge {e.key} has delay {e.delay}; must be >= 1")


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
        if len(c) != 3:
            raise DanglingDemand(f"malformed demand {c}")
        i, j, l = c
        if not 0 <= i < len(net.sources):
            raise DanglingDemand(f"demand {c}: no source {i}")
        if not 0 <= j < len(net.sinks):
            raise DanglingDemand(f"demand {c}: no sink {j}")
        if not 0 <= l < net.sources[i].processes:
            raise DanglingDemand(f"demand {c}: source {i} has no process {l}")
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


def min_cut(net: NetworkSpec, i: int, j: int) -> int:
    """Edge-disjoint path count from source i's node to sink j's node."""
    s = net.sources[i].node
    t = net.sinks[j].node
    if s == t:
        raise ValueError("source and sink share a node; min-cut undefined")
    # capacities merge parallel edges
    cap: dict[str, dict[str, int]] = {}
    for e in net.edges:
        cap.setdefault(e.tail, {})
        cap.setdefault(e.head, {})
        cap[e.tail][e.head] = cap[e.tail].get(e.head, 0) + 1
        cap[e.head].setdefault(e.tail, 0)
    if s not in cap or t not in cap:
        return 0
    flow = 0
    while True:
        # BFS for an augmenting path
        parent: dict[str, str] = {s: s}
        queue = [s]
        while queue and t not in parent:
            v = queue.pop(0)
            for w in sorted(cap.get(v, {})):
                if w not in parent and cap[v][w] > 0:
                    parent[w] = v
                    queue.append(w)
        if t not in parent:
            return flow
        # unit capacities: every augmenting path carries 1
        v = t
        while v != s:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] += 1
            v = u
        flow += 1


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
    pos = {e.key: k for k, e in enumerate(net.edges)}
    tail = {e.key: e.tail for e in net.edges}
    head = {e.key: e.head for e in net.edges}
    al, be, ep = triple
    a_terms = []  # (edge pos, flat input index, code)
    for (inp, ekey), v in al.items():
        if ekey not in pos:
            raise ValueError(f"alpha kernel on unknown edge {ekey}")
        i, l = inp
        if net.sources[i].node != tail[ekey]:
            raise ValueError(f"alpha kernel {inp}->{ekey} not at the source node")
        if v.spec != spec:
            raise ValueError("kernel from a different field")
        if v.code:
            a_terms.append((pos[ekey], net.input_offset(i) + l, v.code))
    b_terms = []  # (out edge pos, in edge pos, code)
    for (k1, k2), v in be.items():
        if k1 not in pos or k2 not in pos:
            raise ValueError(f"beta kernel on unknown edges {(k1, k2)}")
        if head[k1] != tail[k2]:
            raise ValueError(f"beta kernel {(k1, k2)} not adjacent")
        if v.spec != spec:
            raise ValueError("kernel from a different field")
        if v.code:
            b_terms.append((pos[k2], pos[k1], v.code))
    e_terms = []  # (flat output index, edge pos, code)
    for (ekey, out), v in ep.items():
        if ekey not in pos:
            raise ValueError(f"eps kernel on unknown edge {ekey}")
        j, r = out
        if net.sinks[j].node != head[ekey]:
            raise ValueError(f"eps kernel {ekey}->{out} not at the sink node")
        if v.spec != spec:
            raise ValueError("kernel from a different field")
        if v.code:
            e_terms.append((net.output_offset(j) + r, pos[ekey], v.code))
    return a_terms, b_terms, e_terms


def _axpy(spec: FieldSpec, acc: list[int], code: int, src: Sequence[int]) -> None:
    """acc += code * src on raw coefficient lists, growing acc as needed."""
    if len(acc) < len(src):
        acc.extend([0] * (len(src) - len(acc)))
    add, mul = spec._add_codes, spec._mul_codes
    for d, s in enumerate(src):
        if s:
            acc[d] = add(acc[d], mul(code, s))


def transfer_matrix(net: NetworkSpec, leks: LekAssignment) -> TransferResult:
    """Exact transfer matrix of a time-invariant kernel assignment.

    This is M(D) = B (I - K(D))^-1 A with the link delays inside K(D),
    computed in one pass over the edges in topological order of their
    tails: per input c, edge e carries the raw code list
    F_e[c] = D^delay(e) (alpha_ce + sum_e' beta_e'e F_e'[c]), and sink row
    r sums eps_er F_e[c]. The common delay D^d_prime_min is divided out.
    """
    if leks.mode != "invariant":
        raise ValueError("transfer_matrix needs time-invariant kernels")
    order = validate(net)
    spec = leks.field
    mu, nu = net.mu, net.nu
    a_terms, b_terms, e_terms = _compiled_kernels(
        net, (leks.alpha, leks.beta, leks.eps), spec
    )
    alpha_in: list[list[tuple[int, int]]] = [[] for _ in net.edges]
    for epos, flat, code in a_terms:
        alpha_in[epos].append((flat, code))
    beta_in: list[list[tuple[int, int]]] = [[] for _ in net.edges]
    for out_pos, in_pos, code in b_terms:
        beta_in[out_pos].append((in_pos, code))

    rank = {v: k for k, v in enumerate(order)}
    F: list[list[list[int]]] = [[] for _ in net.edges]
    for k in sorted(range(len(net.edges)), key=lambda k: rank[net.edges[k].tail]):
        acc: list[list[int]] = [[] for _ in range(mu)]
        for flat, code in alpha_in[k]:
            acc[flat] = [code]  # alpha keys are unique per (input, edge)
        for in_pos, code in beta_in[k]:
            for c, src in enumerate(F[in_pos]):
                _axpy(spec, acc[c], code, src)
        lag = [0] * net.edges[k].delay
        F[k] = [lag + a if a else a for a in acc]

    raw: list[list[list[int]]] = [[[] for _ in range(mu)] for _ in range(nu)]
    for flat, epos, code in e_terms:
        for c, src in enumerate(F[epos]):
            _axpy(spec, raw[flat][c], code, src)
    lags = [d for row in raw for a in row for d, x in enumerate(a) if x]
    if not lags:
        return TransferResult(
            spec, PolyMatrix.zeros(spec, nu, mu), 0, 0, net.mu_list, net.nu_list
        )
    dmin, dmax = min(lags), max(lags)
    M = PolyMatrix(spec, [[Poly(spec, a[dmin:]) for a in row] for row in raw])
    return TransferResult(spec, M, dmin, dmax, net.mu_list, net.nu_list)


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------


def simulate(
    net: NetworkSpec,
    leks: LekAssignment,
    inputs: Sequence[Sequence[Sequence[FieldElement]]],
    t_start: int = 0,
) -> list[list[list[FieldElement]]]:
    """Run the per-step recursion over the window starting at t_start.

    inputs[t][i] is the symbol vector source i injects at step t. Link
    registers are zero before the window. Returns outputs[t][j], sink j's
    reading at step t, one entry per step of the input window.

    A delay-d edge keeps d - 1 symbols in flight behind its register, so
    its head reads at step t + d what its tail wrote at step t. Kernels of
    step t act where a symbol enters or leaves an edge, which is what a
    chain of d unit edges with identity relays does.
    """
    spec = leks.field
    ne = len(net.edges)
    add = spec._add_codes
    mul = spec._mul_codes
    lines: dict[int, deque[int]] = {}
    for k, e in enumerate(net.edges):
        _check_delay(e)
        if e.delay > 1:
            lines[k] = deque([0] * (e.delay - 1))

    invariant = leks.mode == "invariant"
    compiled = None
    if invariant:
        compiled = _compiled_kernels(net, (leks.alpha, leks.beta, leks.eps), spec)

    state = [0] * ne
    outputs: list[list[list[FieldElement]]] = []
    for step, x_t in enumerate(inputs):
        t = t_start + step
        if invariant:
            a_terms, b_terms, e_terms = compiled
        else:
            a_terms, b_terms, e_terms = _compiled_kernels(
                net, leks.kernels_at(t), spec
            )
        # flatten this step's input symbols
        flat_x = [0] * net.mu
        for i, src in enumerate(net.sources):
            vec = x_t[i]
            if len(vec) != src.processes:
                raise ValueError(f"source {i} expects {src.processes} symbols")
            off = net.input_offset(i)
            for l, sym in enumerate(vec):
                if sym.spec != spec:
                    raise ValueError("input symbol from a different field")
                flat_x[off + l] = sym.code
        # read outputs from the current state
        flat_y = [0] * net.nu
        for out_flat, epos, code in e_terms:
            if state[epos]:
                flat_y[out_flat] = add(flat_y[out_flat], mul(code, state[epos]))
        step_out = []
        for j, snk in enumerate(net.sinks):
            off = net.output_offset(j)
            step_out.append(
                [FieldElement(spec, flat_y[off + r]) for r in range(snk.outputs)]
            )
        outputs.append(step_out)
        # advance the state
        new_state = [0] * ne
        for epos, flat, code in a_terms:
            if flat_x[flat]:
                new_state[epos] = add(new_state[epos], mul(code, flat_x[flat]))
        for out_pos, in_pos, code in b_terms:
            if state[in_pos]:
                new_state[out_pos] = add(new_state[out_pos], mul(code, state[in_pos]))
        for k, line in lines.items():
            line.append(new_state[k])
            new_state[k] = line.popleft()
        state = new_state
    return outputs


# ----------------------------------------------------------------------
# random kernels
# ----------------------------------------------------------------------


def _admissible_positions(net: NetworkSpec):
    """Kernel positions in canonical order (edges already sorted)."""
    alpha_keys = []
    for i, src in enumerate(net.sources):
        for l in range(src.processes):
            for e in net.out_edges(src.node):
                alpha_keys.append(((i, l), e.key))
    beta_keys = []
    for e_in in net.edges:
        for e_out in net.edges:
            if e_in.head == e_out.tail:
                beta_keys.append((e_in.key, e_out.key))
    eps_keys = []
    for j, snk in enumerate(net.sinks):
        for e in net.in_edges(snk.node):
            for r in range(snk.outputs):
                eps_keys.append((e.key, (j, r)))
    return alpha_keys, beta_keys, eps_keys


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
    alpha_keys, beta_keys, eps_keys = _admissible_positions(net)
    lo = 1 if nonzero else 0

    def draw_triple() -> KernelTriple:
        al = {k: FieldElement(field, rng.randrange(lo, field.q)) for k in alpha_keys}
        be = {k: FieldElement(field, rng.randrange(lo, field.q)) for k in beta_keys}
        ep = {k: FieldElement(field, rng.randrange(lo, field.q)) for k in eps_keys}
        return (al, be, ep)

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


def network_from_dict(d: dict) -> NetworkSpec:
    edges = [
        Edge(
            str(e["tail"]),
            str(e["head"]),
            int(e.get("index", 0)),
            int(e.get("delay", 1)),
        )
        for e in d["edges"]
    ]
    sources = [Source(str(s["node"]), int(s.get("processes", 1))) for s in d["sources"]]
    sinks = []
    connections = []
    for j, s in enumerate(d["sinks"]):
        sinks.append(Sink(str(s["node"]), int(s.get("outputs", 1))))
        for i, l in s.get("demands", []):
            connections.append((int(i), j, int(l)))
    nodes = [str(n) for n in d["nodes"]]
    return NetworkSpec(nodes, edges, sources, sinks, connections)


def _elem_to_json(e: FieldElement) -> list[int]:
    return list(e.coeffs)


def leks_to_dict(leks: LekAssignment) -> dict:
    def triple_to_json(triple: KernelTriple) -> dict:
        al, be, ep = triple
        return {
            "alpha": [
                [i, l, list(ek), _elem_to_json(v)]
                for ((i, l), ek), v in sorted(al.items())
            ],
            "beta": [
                [list(k1), list(k2), _elem_to_json(v)]
                for (k1, k2), v in sorted(be.items())
            ],
            "eps": [
                [list(ek), j, r, _elem_to_json(v)]
                for (ek, (j, r)), v in sorted(ep.items())
            ],
        }

    out: dict = {"mode": leks.mode, "field": spec_to_dict(leks.field)}
    if leks.mode == "invariant":
        out.update(triple_to_json((leks.alpha, leks.beta, leks.eps)))
    else:
        out["t0"] = leks.t0
        out["steps"] = [triple_to_json(s) for s in leks.steps]
    return out


def leks_from_dict(d: dict, field: FieldSpec | None = None) -> LekAssignment:
    spec = field if field is not None else spec_from_dict(d["field"])

    def triple_from_json(td: dict) -> KernelTriple:
        al = {
            ((int(i), int(l)), (str(t), str(h), int(x))): spec.element(c)
            for i, l, (t, h, x), c in td.get("alpha", [])
        }
        be = {
            ((str(t1), str(h1), int(x1)), (str(t2), str(h2), int(x2))): spec.element(c)
            for (t1, h1, x1), (t2, h2, x2), c in td.get("beta", [])
        }
        ep = {
            ((str(t), str(h), int(x)), (int(j), int(r))): spec.element(c)
            for (t, h, x), j, r, c in td.get("eps", [])
        }
        return (al, be, ep)

    if d.get("mode", "invariant") == "invariant":
        al, be, ep = triple_from_json(d)
        return LekAssignment(spec, "invariant", al, be, ep)
    steps = tuple(triple_from_json(td) for td in d["steps"])
    return LekAssignment(spec, "time", t0=int(d["t0"]), steps=steps)


def transfer_to_dict(tr: TransferResult) -> dict:
    entries = []
    for row in tr.M.rows:
        entries.append([[list(c.coeffs) for c in p.coeffs_elements()] for p in row])
    return {
        "field": spec_to_dict(tr.field),
        "d_prime_min": tr.d_prime_min,
        "d_prime_max": tr.d_prime_max,
        "mu_list": list(tr.mu_list),
        "nu_list": list(tr.nu_list),
        "entries": entries,
    }


def transfer_from_dict(d: dict) -> TransferResult:
    spec = spec_from_dict(d["field"])
    rows = []
    for row in d["entries"]:
        rows.append(
            [Poly.from_elements([spec.element(c) for c in p] or [spec.zero()]) if p else Poly.zero(spec) for p in row]
        )
    M = PolyMatrix(spec, rows)
    return TransferResult(
        spec,
        M,
        int(d["d_prime_min"]),
        int(d["d_prime_max"]),
        tuple(int(x) for x in d["mu_list"]),
        tuple(int(x) for x in d["nu_list"]),
    )
