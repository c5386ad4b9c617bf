"""Disentangled graph-convolutional recommender.

Every node carries its representations along conv paths. A path is a
kind plus a domain set: the domain-specific path of domain d ("spec",
{d}) sees only same-domain neighbors, and the domain-shared path
("shared", all domains) sees neighbors in every domain. One relational
conv serves both kinds: a self transform plus the neighbor mean in each
of the path's domains, each relation through its own matrix. After L
layers, the paths containing a domain fuse into its output embeddings;
user/item affinity is a dot product.

Both the forward pass and the exact reverse-mode backward pass are
spelled out here by hand; no autograd is involved anywhere.

The matrix-factorization baseline (MfModel) lives here too, so this
module alone knows every model kind (ALL_MODES), its checkpoint kind id
and how to build it.

Within a layer each path reads only the layer below, so the paths are
independent tasks. Once a layer is big enough to pay for the hand-off
(PARALLEL_MIN_ELEMENTS) they run on a pool of CONV_THREADS threads,
largest first; numpy's and scipy's products release the GIL, so the
paths run at once. A task writes only its own path's caches and
deltas, into arrays the calling thread allocated, and returns its
weight-gradient products, which the calling thread adds in path order.
Every result is therefore bit for bit the serial one. The same pool
(run_tasks) also serves the synthetic generator's Gumbel draw
(baselines.gumbel_top_k).
"""

from __future__ import annotations

import os
import struct
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .data import atomic_open
from .graph import HeteroGraph
from .numeric import FlatArrays, check_finite

# the paths of each mode, by kind; specific paths come first
PATH_KINDS = {"full": ("spec", "shared"), "specific_only": ("spec",),
              "shared_only": ("shared",)}
MODES = tuple(PATH_KINDS)
# every model kind: the conv modes, then the factorization baseline; a
# mode's index here is its checkpoint kind id
ALL_MODES = (*MODES, "mf")

# rng stream tag of the factorization baseline's init
MF_STREAM = 3

CHECKPOINT_MAGIC = b"DGM1"

# parameter names of one conv in one domain: self (uu, ii) and neighbor (iu, ui)
ConvWeights = namedtuple("ConvWeights", "uu ii iu ui")

# A layer runs its paths on threads when num_users * dim reaches this.
# On a 2-CPU host with one BLAS thread, 2000 users and 3 domains in
# full mode, a serial epoch took 0.93 times as long as a threaded one
# at dim 8, 1.01-1.04 times at dim 16, 1.13-1.20 at dim 32 and
# 1.26-1.45 at dims 48 and 64: below about 2**15 the hand-off costs
# more than the second CPU gives, and near it the gain is noise.
PARALLEL_MIN_ELEMENTS = 2**16
CONV_THREADS = 2


@cache
def _conv_pool() -> ThreadPoolExecutor:
    """The process's one conv pool, started on first use, as BLAS keeps
    one: its threads serve every model and the synthetic generator, so
    their malloc arenas are made only once. A forked child has none of
    its parent's threads, so the fork hook below empties the cache and
    the child starts a pool of its own."""
    return ThreadPoolExecutor(max_workers=CONV_THREADS, thread_name_prefix="crossrec-conv")


os.register_at_fork(after_in_child=_conv_pool.cache_clear)


def run_tasks(tasks, sizes, parallel: bool) -> list:
    """Results of the zero-argument callables ``tasks``, in their order.
    With ``parallel`` they run on the conv pool, largest ``sizes`` first,
    and every task has ended before this returns or raises; otherwise
    they run here, one after another."""
    if not parallel:
        return [task() for task in tasks]
    pool = _conv_pool()
    order = sorted(range(len(tasks)), key=lambda j: -sizes[j])
    futures = [None] * len(tasks)
    for j in order:
        futures[j] = pool.submit(tasks[j])
    wait(futures)
    return [f.result() for f in futures]


def neighbor_product(matrix, rows):
    """``matrix @ rows`` for a scipy CSR operator of ``graph.aggregators``:
    every sparse product of the conv goes through here."""
    return matrix @ rows


def init_params(seed: int, shapes) -> dict:
    """Uniform init drawn in the given order from one seeded generator.

    Embedding tables use a = 1/sqrt(K); transform matrices use the
    fan-based bound b = sqrt(6 / (K + K)).
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in shapes:
        k = shape[1]
        if name == "user_emb" or name.startswith("item_emb"):
            bound = 1.0 / np.sqrt(k)
        else:
            bound = np.sqrt(6.0 / (k + k))
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def pack_params(shapes, params) -> FlatArrays:
    """Copy ``params``, which must hold exactly the (name, shape) list
    ``shapes`` in its order, into one vector."""
    names = [n for n, _ in shapes]
    if list(params) != names:
        def some(found):  # a count and the first few names, kept on one line
            if not found:
                return "none"
            more = ", ..." if len(found) > 5 else ""
            return f"{len(found)} ({', '.join(map(repr, sorted(found)[:5]))}{more})"
        raise ValueError(f"parameter set mismatch: missing {some(set(names) - set(params))}, "
                         f"unexpected {some(set(params) - set(names))}")
    for name, shape in shapes:
        if params[name].shape != shape:
            raise ValueError(f"param {name}: shape {params[name].shape}, want {shape}")
    flat = FlatArrays(shapes)
    for name, view in flat.views.items():
        view[...] = params[name]
    return flat


class FlatModel:
    """The parameter and gradient vectors every trainable model owns.

    ``param_vector`` holds the parameters in param_shapes() order and
    ``params`` maps each name to a view of it. The mapping is read-only
    and the attribute cannot be rebound, so a parameter changes only by
    writing into its view, and the L2 term, Adam and checkpoints, which
    read the vector, always see what the forward pass used.
    ``grad_vector`` has the same layout and holds the last backward's
    gradients. Nothing else outlives a step: the forward's caches and
    the backward's deltas are allocated by the call that needs them.
    """

    def __init__(self, params: dict):
        shapes = self.param_shapes()
        self._params = pack_params(shapes, params)
        self._grads = FlatArrays(shapes)

    @property
    def params(self):
        return self._params.views

    @property
    def param_vector(self) -> np.ndarray:
        return self._params.data

    @property
    def grad_vector(self) -> np.ndarray:
        return self._grads.data

    def _zeroed_grads(self) -> dict:
        """Zero the gradient vector; a new dict of views of it by name."""
        self._grads.data.fill(0.0)
        return dict(self._grads.views)

    def _check_upstream(self, acts, do_u: list, do_i: list) -> None:
        """Reject output gradients whose shapes differ from the outputs'."""
        for d in range(self.graph.num_domains):
            if do_u[d].shape != acts.o_u[d].shape or do_i[d].shape != acts.o_i[d].shape:
                raise ValueError(f"upstream gradient shape mismatch in domain {d}")

    def outputs(self):
        """(o_u, o_i) lists of the fused output tables. This runs the
        training forward, so every forward cache is held until it
        returns; only the outputs outlive the call."""
        acts = self.forward()
        return acts.o_u, acts.o_i


@dataclass
class PathCache:
    """Forward caches of one conv path: a kind over a tuple of domains.

    users[l] and items[l][d] are the layer-l representations (index 0
    is the embedding). The backward needs nothing else: it takes a
    neighbor mean's weight gradient from the layer's input, as
    x.T @ (A.T @ dz), so the means themselves are never kept. Each ReLU
    runs in place on its pre-activation, since its output, positive
    exactly where the pre-activation is, serves as the backward's gate:
    the backward multiplies layer l+1's deltas by it in place. The
    forward allocates each layer's arrays on its own thread before the
    path's task fills them, so no cache lives in a worker's heap.
    """

    kind: str
    domains: tuple
    users: list
    items: list


@dataclass
class Activations:
    """Forward-pass caches needed by the backward pass."""

    paths: list = field(default_factory=list)  # PathCache per path, specific first
    s_u: list = field(default_factory=list)  # [d] fused user rep before output transform
    o_u: list = field(default_factory=list)  # [d] user outputs
    o_i: list = field(default_factory=list)  # [d] item outputs


def check_settings(mode: str, dim: int, layers: int, tie_relation_weights: bool,
                   modes: tuple = ALL_MODES) -> None:
    """The rules on model settings: TrainConfig applies them over
    ALL_MODES, the conv model (so every conv checkpoint load) over
    MODES. Tied weights alias specific-path matrices: "full" only. mf
    reads only dim and seed; it leaves layers unread, not refused, so
    one config can serve every mode."""
    if mode not in modes:
        raise ValueError(f"mode must be one of {modes}, got {mode!r}")
    # a checkpoint header stores both as uint32
    if not 0 < dim < 2**32:
        raise ValueError("dim must be positive and below 2**32")
    if not 1 <= layers < 2**32:
        raise ValueError("layers must be at least 1 and below 2**32")
    if tie_relation_weights and mode != "full":
        raise ValueError("tie_relation_weights requires mode='full' "
                         "(tied matrices live on the specific path)")


class DisentangledGraphModel(FlatModel):
    """Two-path graph conv model over a frozen HeteroGraph.

    mode selects which paths exist: "full" (both), "specific_only"
    (per-domain path alone), "shared_only" (cross-domain path alone).
    tie_relation_weights reuses the specific-path IU/UI matrices inside
    the shared aggregation instead of separate ones; it therefore
    requires mode="full".
    """

    def __init__(self, graph: HeteroGraph, dim: int = 128, layers: int = 2,
                 mode: str = "full", tie_relation_weights: bool = False,
                 seed: int = 0, params: dict = None):
        check_settings(mode, dim, layers, tie_relation_weights, modes=MODES)
        self.graph = graph
        self.dim = dim
        self.layers = layers
        self.mode = mode
        self.tie_relation_weights = tie_relation_weights
        all_domains = tuple(range(graph.num_domains))
        self.paths = []  # (kind, domains), specific paths first
        for kind in PATH_KINDS[mode]:
            if kind == "spec":
                self.paths += [(kind, (d,)) for d in all_domains]
            else:
                self.paths.append((kind, all_domains))
        if params is None:
            params = init_params(seed, self.param_shapes())
        super().__init__(params)

    # -- parameter layout -------------------------------------------------

    def weight_names(self, kind: str, l: int, d: int) -> ConvWeights:
        """Parameter names of a kind's layer-l conv in domain d. Tied
        relation weights are aliases: the shared conv names the specific
        path's IU/UI matrices."""
        if kind == "spec":
            return ConvWeights(*(f"spec_{rel}/l{l}/d{d}" for rel in ConvWeights._fields))
        rel = "spec" if self.tie_relation_weights else "shared"
        return ConvWeights(f"shared_uu/l{l}", f"shared_ii/l{l}",
                           f"{rel}_iu/l{l}/d{d}", f"{rel}_ui/l{l}/d{d}")

    def param_shapes(self):
        """Canonical (name, shape) list; serialization and init follow it."""
        g, k = self.graph, self.dim
        shapes = [("user_emb", (g.num_users, k))]
        for d in range(g.num_domains):
            shapes.append((f"item_emb/d{d}", (g.num_items_per_domain[d], k)))
        names = []
        for l in range(self.layers):
            for kind, domains in self.paths:
                for d in domains:
                    uu, ii, iu, ui = self.weight_names(kind, l, d)
                    # checkpoints store a specific conv's matrices as uu, iu, ii, ui
                    names += (uu, iu, ii, ui) if kind == "spec" else (uu, ii, iu, ui)
        # a name repeats for shared uu/ii and for tied aliases; keep its first slot
        shapes += [(name, (k, k)) for name in dict.fromkeys(names)]
        for d in range(g.num_domains):
            shapes.append((f"out/d{d}", (k, k)))
        return shapes

    # -- the relational conv -------------------------------------------------

    def _run_paths(self, tasks: list) -> list:
        """Results of a layer's tasks, one per path, in path order: on
        the conv pool, the shared path first, when the model has more
        than one path and num_users * dim reaches PARALLEL_MIN_ELEMENTS."""
        parallel = (len(self.paths) > 1
                    and self.graph.num_users * self.dim >= PARALLEL_MIN_ELEMENTS)
        return run_tasks(tasks, [len(domains) for _, domains in self.paths], parallel)

    def _conv_forward(self, path: PathCache, l: int, means: dict, aggs: list) -> None:
        """Layer l of one path: each node's self transform plus its
        neighbor means over the path's domains, in ascending domain
        order, each relation through its own matrix. An item only has
        neighbors in its own domain, so it adds one mean. A neighbor
        mean held in ``means`` under (domain, side) is read from there;
        any other is a product with the domain's operator in ``aggs``.
        The outputs go into path.users[l + 1] and path.items[l + 1][d],
        which the caller allocated; this allocates only temporaries."""
        P = self.params
        w = {d: self.weight_names(path.kind, l, d) for d in path.domains}
        x_u, x_i = path.users[l], path.items[l]
        z_u, z_i = path.users[l + 1], path.items[l + 1]

        def neighbor_mean(d, side, x):
            if (d, side) in means:
                return means[d, side]
            return neighbor_product(getattr(aggs[d], side).matrix, x)

        np.matmul(x_u, P[w[path.domains[0]].uu], out=z_u)
        for d in path.domains:
            z_u += neighbor_mean(d, "to_users", x_i[d]) @ P[w[d].iu]
        for d in path.domains:
            np.matmul(x_i[d], P[w[d].ii], out=z_i[d])
            z_i[d] += neighbor_mean(d, "to_items", x_u) @ P[w[d].ui]
        np.maximum(z_u, 0.0, out=z_u)
        for z in z_i.values():
            np.maximum(z, 0.0, out=z)

    def _conv_backward(self, path: PathCache, l: int, du: list, di: list,
                       aggs: list) -> list:
        """Reverse of _conv_forward: layer l's input gradients go into
        du[l] / di[l][d], which the caller allocated zeroed, given the
        output gradients du[l + 1] / di[l + 1][d]. Those are consumed:
        each is gated by its ReLU in place, becoming dz, as nothing else
        reads layer l+1's deltas. The gate leaves -0.0 where it zeroes a
        negative delta, but every use of dz sums products into a target
        that starts at +0.0, and (+0) + (-0) = +0, so no result bit
        depends on that sign. A relation's output gradient goes back
        through the transposed CSR once, as back = A.T @ dz; its weight
        gradient is x.T @ back, with x the layer's input on the neighbor
        side, and its input gradient back @ P.T.

        The weight gradients are returned, not added: a list of
        (parameter name, product) in the order they are to be added."""
        P = self.params
        w = {d: self.weight_names(path.kind, l, d) for d in path.domains}
        x_u, x_i = path.users[l], path.items[l]
        uu = w[path.domains[0]].uu
        products = []
        dz_u = du[l + 1]
        dz_u *= path.users[l + 1] > 0.0
        products.append((uu, x_u.T @ dz_u))
        du[l] += dz_u @ P[uu].T
        for d in path.domains:
            back = neighbor_product(aggs[d].to_users.matrix_t, dz_u)
            products.append((w[d].iu, x_i[d].T @ back))
            di[l][d] += back @ P[w[d].iu].T
        for d in path.domains:
            dz_i = di[l + 1][d]
            dz_i *= path.items[l + 1][d] > 0.0
            products.append((w[d].ii, x_i[d].T @ dz_i))
            di[l][d] += dz_i @ P[w[d].ii].T
            back = neighbor_product(aggs[d].to_items.matrix_t, dz_i)
            products.append((w[d].ui, x_u.T @ back))
            du[l] += back @ P[w[d].ui].T
        return products

    # -- forward -----------------------------------------------------------

    def forward(self) -> Activations:
        """Full-graph forward pass over every domain; caches everything
        the backward pass needs. A domain's outputs sum the layer-L
        representations of every path containing it, in path order.

        Each layer allocates its paths' outputs here, then runs one
        _conv_forward task per path, on the conv pool when the layer is
        big enough (_run_paths). The graph's operators are fetched
        before the first layer, so no task builds one."""
        P, L, D = self.params, self.layers, self.graph.num_domains
        g, k = self.graph, self.dim
        aggs = [g.aggregators(d) for d in range(D)]
        acts = Activations()
        for kind, domains in self.paths:
            acts.paths.append(PathCache(kind, domains, users=[P["user_emb"]],
                                        items=[{d: P[f"item_emb/d{d}"] for d in domains}]))
        # every path reads the embedding tables at layer 0, so the paths
        # that hold a domain share its layer-0 neighbor means: each is
        # taken once, before the first path, and dropped after the layer
        shared = [d for d in range(D) if sum(d in domains for _, domains in self.paths) > 1]
        for l in range(L):
            means = {}
            if l == 0:
                for d in shared:
                    means[d, "to_users"] = neighbor_product(aggs[d].to_users.matrix,
                                                            P[f"item_emb/d{d}"])
                    means[d, "to_items"] = neighbor_product(aggs[d].to_items.matrix,
                                                            P["user_emb"])
            for path in acts.paths:
                path.users.append(np.empty((g.num_users, k)))
                path.items.append({d: np.empty((g.num_items_per_domain[d], k))
                                   for d in path.domains})
            self._run_paths([partial(self._conv_forward, path, l, means, aggs)
                             for path in acts.paths])

        for d in range(D):
            fused = [p for p in acts.paths if d in p.domains]
            s_u, o_i = fused[0].users[L], fused[0].items[L][d]
            for p in fused[1:]:
                s_u = s_u + p.users[L]
                o_i = o_i + p.items[L][d]
            acts.s_u.append(s_u)
            acts.o_u.append(s_u @ P[f"out/d{d}"])
            acts.o_i.append(o_i)
        return acts

    # -- backward ----------------------------------------------------------

    def backward(self, acts: Activations, do_u: list, do_i: list) -> dict:
        """Exact gradients of a scalar objective w.r.t. every parameter.

        do_u[d]/do_i[d] are the objective's gradients at the fused
        outputs. Within a layer, gradients accumulate path by path in
        path order and, within a path, domain by domain ascending.

        The gradients are added into the zeroed gradient vector, and
        the returned dict holds views of it by name. The gradients at
        each path's cached representations, its deltas, are allocated
        zeroed here, a layer's just before its conv backward runs, and
        the layer above's are dropped once that has ended, so two
        layers' worth per path are live. Each conv backward gates its
        output gradients in place.

        Each layer runs one _conv_backward task per path, on the conv
        pool when the layer is big enough, as forward does; once all
        have ended, their weight-gradient products are added here in
        path order, so tied relation weights sum in the serial order.
        """
        P, L, D = self.params, self.layers, self.graph.num_domains
        g, k = self.graph, self.dim
        if len(acts.o_u) != D or len(acts.paths) != len(self.paths):
            raise ValueError("activations do not match this model")
        self._check_upstream(acts, do_u, do_i)

        grads = self._zeroed_grads()
        aggs = [g.aggregators(d) for d in range(D)]
        # (du, di) per path, indexed by layer; a dropped layer holds None
        deltas = [([None] * (L + 1), [None] * (L + 1)) for _ in acts.paths]

        def allocate(l):
            for p, (du, di) in zip(acts.paths, deltas):
                du[l] = np.zeros((g.num_users, k))
                di[l] = {d: np.zeros((g.num_items_per_domain[d], k)) for d in p.domains}

        allocate(L)
        for d in range(D):
            grads[f"out/d{d}"] += acts.s_u[d].T @ do_u[d]
            ds = do_u[d] @ P[f"out/d{d}"].T
            for p, (du, di) in zip(acts.paths, deltas):
                if d in p.domains:
                    du[L] += ds
                    di[L][d] += do_i[d]

        for l in reversed(range(L)):
            allocate(l)
            tasks = [partial(self._conv_backward, p, l, du, di, aggs)
                     for p, (du, di) in zip(acts.paths, deltas)]
            for products in self._run_paths(tasks):
                for name, product in products:
                    grads[name] += product
            for du, di in deltas:
                du[l + 1] = di[l + 1] = None

        # layer 0 representations are the embedding tables themselves
        for p, (du, di) in zip(acts.paths, deltas):
            grads["user_emb"] += du[0]
            for d in p.domains:
                grads[f"item_emb/d{d}"] += di[0][d]
        return grads


class MfModel(FlatModel):
    """Independent per-domain matrix factorization.

    Outputs are the embedding tables themselves; there is no parameter
    sharing or message passing, so domain d is untouched by anything
    happening in other domains (given fixed domain weights).
    """

    # the checkpoint header's fields, as a conv model holds them
    mode = "mf"
    layers = 0

    def __init__(self, graph: HeteroGraph, dim: int = 128, seed: int = 0,
                 params: dict = None):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.graph = graph
        self.dim = dim
        if params is None:
            params = {}
            bound = 1.0 / np.sqrt(dim)
            for d in range(graph.num_domains):
                # one stream per domain: domain d's draw never depends on
                # the other domains' table sizes
                rng = np.random.default_rng([seed, MF_STREAM, d])
                params[f"user_emb/d{d}"] = rng.uniform(
                    -bound, bound, size=(graph.num_users, dim))
                params[f"item_emb/d{d}"] = rng.uniform(
                    -bound, bound, size=(graph.num_items_per_domain[d], dim))
        super().__init__(params)

    def param_shapes(self):
        g = self.graph
        shapes = []
        for d in range(g.num_domains):
            shapes.append((f"user_emb/d{d}", (g.num_users, self.dim)))
            shapes.append((f"item_emb/d{d}", (g.num_items_per_domain[d], self.dim)))
        return shapes

    def forward(self) -> Activations:
        acts = Activations()
        for d in range(self.graph.num_domains):
            acts.o_u.append(self.params[f"user_emb/d{d}"])
            acts.o_i.append(self.params[f"item_emb/d{d}"])
        return acts

    def backward(self, acts: Activations, do_u: list, do_i: list) -> dict:
        """The output gradients are the table gradients, added into the
        zeroed gradient vector; returns a dict of views of it by name."""
        self._check_upstream(acts, do_u, do_i)
        grads = self._zeroed_grads()
        for d in range(self.graph.num_domains):
            grads[f"user_emb/d{d}"] += do_u[d]
            grads[f"item_emb/d{d}"] += do_i[d]
        return grads


# -- checkpoint serialization ----------------------------------------------


def save_checkpoint(model, path: str) -> None:
    """Write magic, config block (flags 0 for mf, 2 | tied for a conv
    model), then every matrix in canonical order as little-endian float64."""
    g = model.graph
    flags = 0 if model.mode == "mf" else 2 | int(model.tie_relation_weights)
    shapes = model.param_shapes()
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", ALL_MODES.index(model.mode), g.num_domains))
        fh.write(struct.pack("<I", g.num_users))
        fh.write(struct.pack(f"<{g.num_domains}I", *g.num_items_per_domain))
        fh.write(struct.pack("<IIII", model.dim, model.layers, flags, len(shapes)))
        for name, shape in shapes:
            arr = model.params[name]
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", *shape))
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path: str, graph: HeteroGraph):
    """Read a checkpoint and rebuild the matching model over ``graph``.

    Validates magic, node counts against the graph, the flag bits, the
    layer count against the stored matrices, the canonical parameter
    order, shapes, and finiteness. Every error names the file.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())  # slices of it copy nothing
    try:
        pos = 0

        def take(n):
            nonlocal pos
            if pos + n > len(blob):
                raise ValueError("truncated checkpoint")
            out = blob[pos:pos + n]
            pos += n
            return out

        if take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError("not a model checkpoint (bad magic)")
        kind, num_domains = struct.unpack("<II", take(8))
        num_users = struct.unpack("<I", take(4))[0]
        items = list(struct.unpack(f"<{num_domains}I", take(4 * num_domains)))
        dim, layers, flags, n_params = struct.unpack("<IIII", take(16))

        if num_domains != graph.num_domains or num_users != graph.num_users \
                or items != graph.num_items_per_domain:
            raise ValueError("checkpoint node counts do not match the graph")

        params = {}
        for _ in range(n_params):
            name_len = struct.unpack("<H", take(2))[0]
            name = bytes(take(name_len)).decode("utf-8")
            rows, cols = struct.unpack("<II", take(8))
            data = np.frombuffer(take(8 * rows * cols), dtype="<f8")
            params[name] = check_finite(data.reshape(rows, cols), name)
        if pos != len(blob):
            raise ValueError("trailing bytes after checkpoint")

        if flags & ~3:
            raise ValueError(f"unknown checkpoint flags {flags:#x}")
        if kind >= len(ALL_MODES):
            raise ValueError(f"unknown checkpoint kind {kind}")
        mode = ALL_MODES[kind]
        if mode == "mf":
            if layers or flags:
                raise ValueError(f"mf checkpoint with layers {layers} and flags {flags:#x}; "
                                 f"both must be 0")
            return MfModel(graph, dim=dim, params=params)
        if not flags & 2:
            raise ValueError("checkpoint without flag bit 2 sums neighbors, which is no longer "
                             "supported; retrain it")
        # every conv layer owns at least one stored matrix, and the file holds
        # n_params of them, so this bounds the work of building the model
        if not 1 <= layers <= n_params:
            raise ValueError(f"checkpoint layers {layers} outside [1, {n_params}]")
        return DisentangledGraphModel(graph, dim=dim, layers=layers, mode=mode,
                                      tie_relation_weights=bool(flags & 1), params=params)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
