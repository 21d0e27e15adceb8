"""Shared builders for the test suite.

Everything here is deterministic: named seeds only, no OS entropy. The
two bundled fixtures are the single source of truth for the example
networks, so tests load them instead of re-declaring topology.
"""

import random

import pytest
from hypothesis import settings

from netcode.cli import load_fixture
from netcode.galois import build_field
from netcode.netmodel import (
    Edge,
    NetworkSpec,
    Sink,
    Source,
    leks_from_dict,
    network_from_dict,
    transfer_from_dict,
)

settings.register_profile("det", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("det")


# ----------------------------------------------------------------------
# bundled fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def table1():
    """(TransferResult, connections) from the example1 fixture."""
    doc = load_fixture("example1")
    tr = transfer_from_dict(doc["transfer"])
    conns = [tuple(c) for c in doc["connections"]]
    return tr, conns


@pytest.fixture(scope="session")
def ex2():
    """(net, leks) for the 3-session butterfly-with-side-chains network."""
    doc = load_fixture("example2")
    return network_from_dict(doc["network"]), leks_from_dict(doc["kernels"])


@pytest.fixture(scope="session")
def gf64():
    return build_field(2, 6)


# ----------------------------------------------------------------------
# constructed networks
# ----------------------------------------------------------------------


def cat_net(lengths):
    """Three-session net with one dedicated path per (source, sink) pair.

    lengths is keyed 1-based: {(i, j): path length}. Paths are node
    disjoint, so min-cut(i, j) is 1 for present pairs and 0 otherwise.
    """
    nodes = [f"S{i}" for i in (1, 2, 3)] + [f"D{j}" for j in (1, 2, 3)]
    edges = []
    for (i, j), length in sorted(lengths.items()):
        prev = f"S{i}"
        for k in range(1, length):
            mid = f"P{i}{j}_{k}"
            nodes.append(mid)
            edges.append(Edge(prev, mid, 0, 1))
            prev = mid
        edges.append(Edge(prev, f"D{j}", 0, 1))
    sources = [Source(f"S{i}", 1) for i in (1, 2, 3)]
    sinks = [Sink(f"D{j}", 1) for j in (1, 2, 3)]
    return NetworkSpec(nodes, edges, sources, sinks, [(0, 0, 0), (1, 1, 0), (2, 2, 0)])


# path lengths chosen so no category's diagonal operator collapses to a
# scalar (the exponent sums stay nonzero mod 7)
CATEGORY_LENGTHS = {
    "cat1": {(1, 1): 1, (3, 1): 2, (1, 2): 2, (2, 2): 1, (3, 2): 1,
             (1, 3): 3, (2, 3): 1, (3, 3): 3},
    "cat2": {(1, 1): 1, (2, 2): 2, (3, 3): 1, (3, 2): 2, (1, 3): 1, (2, 3): 3},
    "cat3": {(1, 1): 1, (2, 2): 1, (3, 3): 2, (2, 1): 2, (3, 2): 1, (1, 3): 3},
    "cat4": {(1, 1): 1, (2, 2): 2, (3, 3): 1, (2, 1): 2, (1, 2): 3},
}


def random_dag_net(rng: random.Random, max_nodes=8, multi_terminal=True, delays=(1,)):
    """Random DAG with 1-2 sources and sinks, edges forward only.

    Edge delays are drawn from delays. With a single choice nothing is
    drawn, so the default unit-delay networks stay as they were per seed.
    """
    n_nodes = rng.randrange(4, max_nodes + 1)
    names = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            for par in range(rng.choice([0, 0, 0, 1, 1, 2])):
                if rng.random() < 0.55:
                    delay = rng.choice(delays) if len(delays) > 1 else delays[0]
                    edges.append(Edge(names[i], names[j], par, delay))
    sources = [Source(names[0], rng.randrange(1, 3))]
    if multi_terminal and rng.random() < 0.5 and n_nodes > 5:
        sources.append(Source(names[1], 1))
    sinks = [Sink(names[-1], rng.randrange(1, 3))]
    if multi_terminal and rng.random() < 0.5 and n_nodes > 5:
        sinks.append(Sink(names[-2], 1))
    return NetworkSpec(names, edges, sources, sinks, [])
