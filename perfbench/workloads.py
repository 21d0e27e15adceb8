"""Seeded workload generators.

``build(name, seed, work_dir, tiny)`` writes every input document of one
workload into ``work_dir`` and returns a manifest: the jobs to run and the
fields and embeddings they name. The same (name, seed) gives the same
files byte for byte; another seed gives a workload of the same shape (the
same instances, job kinds, fields and sizes), only with other topologies,
delays and kernel values. ``tiny`` shrinks every size for the smoke test.

The instance mix of each workload is listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import os
import random

from netcode.feasibility import SearchExhausted, analyze, compute_f, invertibility
from netcode.galois import FieldElement, build_field, spec_to_dict
from netcode.netmodel import (
    Edge,
    NetworkSpec,
    Sink,
    Source,
    leks_to_dict,
    network_to_dict,
    random_leks,
    transfer_matrix,
)

WORKLOADS = ("design", "stream", "align")


class Manifest:
    """Jobs of one workload plus the fields and field lifts its inputs name."""

    def __init__(self, name: str, seed: int, work_dir: str):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.jobs: list[dict] = []
        self.fields: list[tuple[int, int]] = []  # (p, m) base fields
        self.lifts: list[tuple[int, int, int]] = []  # (p, m, ext m)

    def write(self, stem: str, doc: dict) -> str:
        path = os.path.join(self.work_dir, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        return path

    def field(self, p: int, m: int) -> None:
        if (p, m) not in self.fields:
            self.fields.append((p, m))

    def lift(self, p: int, m: int, ext_m: int) -> None:
        self.field(p, m)
        if (p, m, ext_m) not in self.lifts:
            self.lifts.append((p, m, ext_m))

    def cli(self, argv: list[str], expect: int | None = 0, **extra) -> None:
        # the id names the input file and the arguments after it
        stem = os.path.splitext(os.path.basename(argv[1]))[0]
        job = {"id": " ".join([f"{stem}:{argv[0]}"] + argv[2:]),
               "kind": "cli", "argv": argv, "expect": expect}
        job.update(extra)
        self.jobs.append(job)

    def lib(self, inst: str, call: str, **extra) -> None:
        job = {"id": f"{inst}:{call} --n {extra['n']}", "kind": "lib", "call": call}
        job.update(extra)
        self.jobs.append(job)


def _net_doc(net: NetworkSpec, leks=None, **extra) -> dict:
    doc = {"kind": "network", "network": network_to_dict(net)}
    if leks is not None:
        doc["kernels"] = leks_to_dict(leks)
    doc.update(extra)
    return doc


def _sim_doc(net: NetworkSpec, leks, rng: random.Random, steps: int) -> dict:
    q = leks.field.q
    p, m = leks.field.p, leks.field.m
    inputs = []
    for _ in range(steps):
        step = []
        for src in net.sources:
            vec = []
            for _ in range(src.processes):
                code = rng.randrange(q)
                vec.append([(code // p**i) % p for i in range(m)])
            step.append(vec)
        inputs.append(step)
    return {"kind": "simulation", "network": network_to_dict(net),
            "kernels": leks_to_dict(leks), "inputs": inputs}


# ----------------------------------------------------------------------
# design: short-delay multicast, det and plan search
# ----------------------------------------------------------------------


def _multicast(rng: random.Random, k: int, sinks: int) -> NetworkSpec:
    """One source with k processes, k + 2 relays, each sink fed by k + 1.

    Every relay edge carries a mix of all k processes, so each sink's
    k x k transfer block is dense, and with one in-edge to spare its
    determinant is a sum of k + 1 delay monomials rather than a single
    one. Source edges have delay 2 and sink edges cycle through 1, 2, 3
    from a seeded offset, so every instance has memory d_max = 2 and its
    cost does not depend on the seed.
    """
    relays = [f"R{i}" for i in range(k + 2)]
    sink_nodes = [f"T{j}" for j in range(sinks)]
    edges = [Edge("S", r, 0, 2) for r in relays]
    for t in sink_nodes:
        off = rng.randrange(3)
        for h, r in enumerate(sorted(rng.sample(relays, k + 1))):
            edges.append(Edge(r, t, 0, 1 + (h + off) % 3))
    conns = [(0, j, l) for j in range(sinks) for l in range(k)]
    return NetworkSpec(["S"] + relays + sink_nodes, edges, [Source("S", k)],
                       [Sink(t, k) for t in sink_nodes], conns)


def _dets(net: NetworkSpec, leks) -> list:
    tr = transfer_matrix(net, leks)
    return [d for _, d in invertibility(tr, net.connections)]


def _f_at_one_zero(net: NetworkSpec, leks) -> bool:
    dets = _dets(net, leks)
    return all(dets) and compute_f(dets)[1]


def _climbs(net: NetworkSpec, leks) -> bool:
    """The plan searches from n = 5 and from n = 9 both end in the
    degree-2 extension, as they do when f has a root among the fifth roots
    of unity and none of order 17."""
    tr = transfer_matrix(net, leks)
    for n_min in (5, 9):
        try:
            rep = analyze(tr, sorted(net.connections), find=True, n_min=n_min, max_ext_degree=2)
        except SearchExhausted:
            return False
        if not rep.feasible or not rep.f_at_one or rep.plan is None \
                or rep.plan.field.m != 2 * leks.field.m:
            return False
    return True


def _no_root(net: NetworkSpec, leks) -> bool:
    dets = _dets(net, leks)
    if not all(dets):
        return False
    f, _ = compute_f(dets)
    spec = leks.field
    return all(f.eval(FieldElement(spec, c)) for c in range(1, spec.q))


_FEASIBILITY = {
    "feas": [],
    "pretty": ["--pretty"],
    "plan": ["--find-plan"],
    "plan5": ["--find-plan", "--n-min", "5"],
    "plan9": ["--find-plan", "--n-min", "9"],
}


def _design(man: Manifest, rng: random.Random, tiny: bool) -> None:
    # (label, k, sinks, (p, m), role, jobs), made twice with different
    # topologies and kernels, plus one k = 7 instance and three more k = 6
    # instances over GF(256). The k = 6 dets are the heaviest sixth of the
    # mix, and p90 sits in the middle of the block of ten same-cost GF(256)
    # ones. Plans are searched on small GF(16) instances: on "plan" every
    # search ends in GF(16); on "climb" the searches from n = 5 and 9
    # climb to GF(256), a fresh table build, and end there. Left to the
    # seed, a search sometimes climbed on to GF(4096) and moved the cost of
    # a whole pass by ten percent.
    shapes = [
        ("mc4", 4, 5, (2, 4), "plain", "validate mincut transfer simulate feas pretty"),
        ("mc5", 5, 4, (2, 8), "plain", "validate mincut transfer simulate feas pretty"),
        ("mc6a", 6, 3, (2, 4), "plain", "validate mincut transfer simulate feas pretty"),
        ("mc6b", 6, 2, (2, 8), "plain", "validate mincut transfer simulate feas pretty"),
        ("mc6c", 6, 2, (2, 4), "plain", "mincut transfer simulate feas pretty"),
        ("plan", 3, 2, (2, 4), "no_root", "validate transfer feas plan plan5 plan9"),
        ("climb", 3, 2, (2, 4), "climb", "plan5 plan9"),
        ("zero", 5, 3, (2, 4), "zero_det", "validate mincut transfer feas plan"),
        ("f1", 4, 3, (2, 4), "f1_zero", "validate mincut transfer feas plan"),
    ]
    groups = [(f"{label}-{g}", *rest) for g in ("a", "b") for label, *rest in shapes]
    groups.append(("mc7", 7, 2, (2, 8), "plain", "validate transfer simulate feas"))
    groups += [(f"mc6b-{x}", 6, 2, (2, 8), "plain", "feas pretty") for x in "cde"]
    for label, k, sinks, (p, m), role, jobs in groups:
        if tiny:
            k, sinks = min(k, 3), min(sinks, 2)
        spec = build_field(p, m)
        man.field(p, m)
        net = _multicast(rng, k, sinks)
        tag = f"{man.seed}:{label}"
        leks = random_leks(net, spec, tag, nonzero=True)
        if role == "zero_det":
            # sink 0 never writes its first output: a zero row, det = 0
            eps = {key: spec.zero() if key[1] == (0, 0) else v for key, v in leks.eps.items()}
            leks = type(leks)(spec, "invariant", leks.alpha, leks.beta, eps)
        else:
            # redraw until the instance has the role's verdict: every det
            # nonzero, f(1) = 0 for the unfixable one, no root of f in the
            # base field for the plan search, and a plan one extension up
            # for the climbing one
            want = {"f1_zero": _f_at_one_zero, "no_root": _no_root, "climb": _climbs}.get(
                role, lambda n, l: all(_dets(n, l)))
            tries = 0
            while not want(net, leks):
                tries += 1
                if tries > 4000:
                    raise RuntimeError(f"no kernels with the {role} verdict for {label}")
                leks = random_leks(net, spec, f"{tag}:{tries}", nonzero=True)
        path = man.write(label, _net_doc(net, leks))
        for job in jobs.split():
            if job in _FEASIBILITY:
                man.cli(["feasibility", path] + _FEASIBILITY[job],
                        expect=1 if role == "zero_det" else 0, oracle="dets", net=path)
            elif job == "simulate":
                sim = _sim_doc(net, leks, rng, 8 if tiny else 60)
                spath = man.write(label + "-sim", sim)
                man.cli(["simulate", spath], oracle="simulate", net=path,
                        symbols=len(sim["inputs"]) * k)
            else:
                man.cli([job, path])
    # the two bundled fixtures
    man.field(2, 1)
    man.field(2, 6)
    for extra in ([], ["--find-plan"], ["--find-plan", "--n-min", "9"]):
        man.cli(["feasibility", "example1"] + extra, oracle="dets", net="example1")
    for sub in ("validate", "mincut", "transfer"):
        man.cli([sub, "example2"])


# ----------------------------------------------------------------------
# stream: long delays, every arithmetic regime, DFT pipeline
# ----------------------------------------------------------------------


def _long_chain(rng: random.Random, total: int, sinks: int, k: int) -> NetworkSpec:
    """Source -> three long relay edges -> every sink, summed delay = total.

    The relay delays are base, base + 1 and base + 2 in seeded order and
    every sink edge has delay 1, so the normalized memory d_max is 2 while
    the chain expansion is ``total`` unit edges long.
    """
    relays = ["A", "B", "C"]
    sink_nodes = [f"T{j}" for j in range(sinks)]
    base = (total - 3 - 3 * sinks) // 3
    offsets = rng.sample(range(3), 3)
    edges = [Edge("S", r, 0, base + o) for r, o in zip(relays, offsets)]
    edges += [Edge(r, t, 0, 1) for t in sink_nodes for r in relays]
    conns = [(0, j, l) for j in range(sinks) for l in range(k)]
    return NetworkSpec(["S"] + relays + sink_nodes, edges, [Source("S", k)],
                       [Sink(t, k) for t in sink_nodes], conns)


def _stream(man: Manifest, rng: random.Random, tiny: bool) -> None:
    # (label, (p, m), summed delay, sinks, k, simulate steps, transform
    # lengths, run_pipeline lengths); a transform length that does not
    # divide q - 1 lifts the field. The first six instances reach every
    # arithmetic regime and carry the long delays. The four m256 instances
    # add jobs that cost about what the Sigma = 150 jobs of gf256a cost, so
    # p90 falls inside a block of same-cost jobs rather than on the step up
    # to the few heavy lifts; the short instances, four per base field,
    # make the bulk of the jobs.
    shapes = [
        ("gf256a", (2, 8), 150, 2, 2, (150, 450), (51, 85), (255,)),
        ("gf256l", (2, 8), 300, 1, 2, (150,), (), ()),
        ("gf16", (2, 4), 150, 2, 1, (150, 450), (257, 15), ()),
        ("gf3a", (3, 1), 150, 2, 1, (150, 450), (61, 13), ()),
        ("gf1024", (2, 10), 150, 1, 1, (150, 450), (41, 33), ()),
        ("gf3b", (3, 1), 150, 1, 2, (150, 450), (23, 8), ()),
    ]
    shapes += [(f"m256{x}", (2, 8), 150, 2, 2, (450,), (51,), ()) for x in "bcde"]
    for total in (60, 80, 100, 120):
        shapes += [
            (f"s256-{total}", (2, 8), total, 1, 2, (200,), (15,), (17, 51)),
            (f"s16-{total}", (2, 4), total, 1, 2, (200,), (5, 15), ()),
            (f"s3-{total}", (3, 1), total, 1, 2, (200,), (4, 13), ()),
            (f"s1024-{total}", (2, 10), total, 1, 2, (200,), (11, 31), ()),
        ]
    # six more GF(16) instances at Sigma = 120, whose transfer and
    # transform jobs cost what their neighbours around the median cost, so
    # p50 falls inside a block of same-cost jobs
    shapes += [(f"p16{x}", (2, 4), 120, 1, 2, (), (5, 15), ()) for x in "abcdef"]
    for label, (p, m), total, sinks, k, steps, t_ns, p_ns in shapes:
        if tiny:
            total, steps, t_ns = 24, steps[:1], t_ns[:1]
            p_ns = tuple(n for n in p_ns if n < 60)
        spec = build_field(p, m)
        man.field(p, m)
        net = _long_chain(rng, total, sinks, k)
        leks = random_leks(net, spec, f"{man.seed}:{label}", nonzero=True)
        path = man.write(label, _net_doc(net, leks))
        man.cli(["transfer", path])
        for count in steps:
            sim = _sim_doc(net, leks, rng, count)
            spath = man.write(f"{label}-sim{count}", sim)
            man.cli(["simulate", spath], oracle="simulate", net=path,
                    symbols=count * k)
        for n in t_ns:
            a = next(a for a in range(1, 13) if (p ** (m * a) - 1) % n == 0)
            if a > 1:
                man.lift(p, m, m * a)
            # exit 1 when some generation is singular; the oracle decides
            man.cli(["transform", path, "--n", str(n)], expect=None,
                    oracle="transform", net=path)
        for n in p_ns:
            man.lib(label, "run_pipeline", net=path, n=n, symbols=n * k)


# ----------------------------------------------------------------------
# align: three-unicast alignment in all five zero-pattern categories
# ----------------------------------------------------------------------

# cross pairs (1-based source, sink) present per category, as in the
# zero-pattern table of netcode.alignment (absent pairs have min-cut 0)
_ABSENT = {
    "full": set(),
    "cat1": {(2, 1)},
    "cat2": {(2, 1), (3, 1), (1, 2)},
    "cat3": {(3, 1), (1, 2), (2, 3)},
    "cat4": {(3, 1), (3, 2), (1, 3), (2, 3)},
}


def _exponents_ok(lengths: dict) -> bool:
    """Category cat1 decodes only if its three diagonal operators are not
    scalar: each is a monomial D^e, and e must be nonzero and prime to
    every block length used (all odd, some divisible by 3)."""
    L = lengths
    es = (L[3, 1] + L[1, 2] - L[1, 1] - L[3, 2],
          L[2, 2] + L[1, 3] - L[1, 2] - L[2, 3],
          L[3, 3] + L[1, 2] - L[1, 3] - L[3, 2])
    return all(e % 3 for e in es)


def _unicast(rng: random.Random, category: str) -> NetworkSpec:
    """Three sessions, one node-disjoint path of 1-3 hops per present
    (source, sink) pair; every block is a monomial, so no draw is singular."""
    pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if (i, j) not in _ABSENT[category]]
    # hop counts 1, 2, 3, 1, 2, ... dealt to the pairs in seeded order: the
    # edge count and d_max, and so the cost, are the same for every seed
    hops = [1 + h % 3 for h in range(len(pairs))]
    while True:
        lengths = dict(zip(pairs, rng.sample(hops, len(hops))))
        if category != "cat1" or _exponents_ok(lengths):
            break
    nodes = [f"S{i}" for i in (1, 2, 3)] + [f"D{j}" for j in (1, 2, 3)]
    edges = []
    for (i, j), length in lengths.items():
        prev = f"S{i}"
        for h in range(1, length):
            mid = f"P{i}{j}_{h}"
            nodes.append(mid)
            edges.append(Edge(prev, mid, 0, 1))
            prev = mid
        edges.append(Edge(prev, f"D{j}", 0, 1))
    return NetworkSpec(nodes, edges, [Source(f"S{i}", 1) for i in (1, 2, 3)],
                       [Sink(f"D{j}", 1) for j in (1, 2, 3)],
                       [(0, 0, 0), (1, 1, 0), (2, 2, 0)])


def _shared(rng: random.Random) -> NetworkSpec:
    """example2's shape: a shared A-B-C bottleneck plus two-hop side chains.

    The side chains run in a seeded direction, 1->2->3->1 or its mirror.
    Each crossed block then has paths of lengths 3 and 5, and a length
    difference of 2 is prime to every odd N, so no block length makes the
    construction degenerate.
    """
    nodes = ["S1", "S2", "S3", "A", "B", "C", "E1", "E2", "E3", "D1", "D2", "D3"]
    edges = [Edge(f"S{i}", "A", 0, 1) for i in (1, 2, 3)]
    edges += [Edge("A", "B", 0, 1), Edge("B", "C", 0, 1)]
    for j in (1, 2, 3):
        edges += [Edge("C", f"E{j}", 0, 1), Edge(f"E{j}", f"D{j}", 0, 1)]
    for i, j in rng.choice([((1, 2), (2, 3), (3, 1)), ((2, 1), (3, 2), (1, 3))]):
        a, b = f"G{i}{j}a", f"G{i}{j}b"
        nodes += [a, b]
        edges += [Edge(f"S{i}", a, 0, 1), Edge(a, b, 0, 1), Edge(b, f"D{j}", 0, 1)]
    return NetworkSpec(nodes, edges, [Source(f"S{i}", 1) for i in (1, 2, 3)],
                       [Sink(f"D{j}", 1) for j in (1, 2, 3)],
                       [(0, 0, 0), (1, 1, 0), (2, 2, 0)])


def _align(man: Manifest, rng: random.Random, tiny: bool) -> None:
    # (label, category, (p, m), n) with N = 2n + 1 dividing q - 1. The
    # zero-pattern categories use monomial nets, so their searches succeed
    # on the first draw and the cost is N x N elimination; "full" needs a
    # shared bottleneck, whose binomial blocks make the attempt count vary,
    # so it runs at small N only. The counts place each quantile inside a
    # block of same-cost jobs: p90 among the cat3 searches at N = 51 (the
    # top fifth of the mix is N >= 51), p50 among the cat2-cat4 searches
    # at N = 15 and 17.
    shapes = [(f"{cat}-{2 * n + 1}", cat, (2, 8), n)
              for n in (42, 25) for cat in ("cat2", "cat3", "cat4")]
    shapes += [(f"{cat}-63", cat, (2, 6), 31) for cat in ("cat1", "cat2", "cat3", "cat4")]
    shapes += [(f"{cat}-51{x}", cat, (2, 8), 25)
               for cat, xs in (("cat1", "ab"), ("cat2", "abcd"), ("cat3", "abcdefg"), ("cat4", "ab"))
               for x in xs]
    for cat in ("cat2", "cat3", "cat4"):
        for n in (7, 8):
            shapes += [(f"{cat}-{2 * n + 1}-q256{x}", cat, (2, 8), n) for x in "abcdefg"]
    # small searches in every category at N = 5, 7, 9 and 21; full and
    # cat1 at N = 15 and 17
    every = tuple(_ABSENT)
    for (p, m), n, cats in (((2, 6), 3, every), ((2, 6), 4, every), ((2, 8), 2, every),
                            ((2, 6), 10, every), ((2, 8), 7, ("full", "cat1")),
                            ((2, 8), 8, ("full", "cat1"))):
        for cat in cats:
            shapes += [(f"{cat}-{2 * n + 1}-q{2 ** m}{x}", cat, (p, m), n) for x in "ab"]
    for label, cat, (p, m), n in shapes:
        if tiny:
            n = min(n, 3 if m == 6 else 2)
        spec = build_field(p, m)
        man.field(p, m)
        net = _shared(rng) if cat == "full" else _unicast(rng, cat)
        path = man.write(label, _net_doc(net, field=spec_to_dict(spec)))
        man.cli(["align", path, "--n", str(n), "--seed", str(man.seed)],
                oracle="align", symbols=3 * n + 1 + (n + 1 if cat == "cat4" else 0))
    # the fixture, checked and re-searched; its kernels also drive the
    # time-varying reduction at two block lengths
    man.field(2, 6)
    man.cli(["align", "example2", "--verify-only"], oracle="align", symbols=10)
    man.cli(["align", "example2", "--n", "4", "--seed", str(man.seed)],
            oracle="align", symbols=13)
    for n in ((3,) if tiny else (3, 4)):
        man.lib("example2", "tv", n=n)
    # every draw is singular, so the search runs out of budget
    spec = build_field(2, 6)
    net = _two_path_block(rng)
    path = man.write("exhaust", _net_doc(net, field=spec_to_dict(spec)))
    man.cli(["align", path, "--n", "31", "--budget", "6" if tiny else "25",
             "--seed", str(man.seed)], expect=1, oracle="notfound")


def _two_path_block(rng: random.Random) -> NetworkSpec:
    """Category "full" net whose S1 -> D2 block has paths of two lengths.

    Its eigenvalue polynomial c1 D^2 + c2 D^h (h = 3 or 4) has a nonzero
    root, and every nonzero element is one of the N = q - 1 evaluation points.
    """
    nodes = [f"S{i}" for i in (1, 2, 3)] + [f"D{j}" for j in (1, 2, 3)]
    edges = [Edge(f"S{i}", f"D{j}", 0, 1) for i in (1, 2, 3) for j in (1, 2, 3)
             if (i, j) != (1, 2)]
    hops = ["S1", "X"] + ["Y", "Z"][: rng.randint(1, 2)] + ["D2"]
    nodes += hops[1:-1] + ["W"]
    edges += [Edge(a, b, 0, 1) for a, b in zip(hops, hops[1:])]
    edges += [Edge("S1", "W", 0, 1), Edge("W", "D2", 0, 1)]
    return NetworkSpec(nodes, edges, [Source(f"S{i}", 1) for i in (1, 2, 3)],
                       [Sink(f"D{j}", 1) for j in (1, 2, 3)],
                       [(0, 0, 0), (1, 1, 0), (2, 2, 0)])


_BUILDERS = {"design": _design, "stream": _stream, "align": _align}


def build(name: str, seed: int, work_dir: str, tiny: bool = False) -> Manifest:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(work_dir, exist_ok=True)
    man = Manifest(name, seed, work_dir)
    _BUILDERS[name](man, random.Random(f"perfbench:{name}:{seed}"), tiny)
    ids = [job["id"] for job in man.jobs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate job ids in workload {name}")
    return man
