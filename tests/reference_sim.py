"""An independent reference simulator: the three-point rules, the objective and the round loop.

Written from the definitions (arXiv 2211.00188, 2202.00998 and 2106.05203),
one vector, one client and one worker at a time, with NumPy and SciPy's
``expit`` only, so it shares no code with ``adacgd``:

- the rules EF21, AdaCGD, CLAG and LAG, with their own top-k, skip test and
  level tests. A level is any object with a ``kind`` ("topk", "randk" or
  "identity") and a ``k``. A rand-k level's support comes from
  ``draw(branch, k)``, a callback the caller supplies;
- the per-client oracle of the regularized logistic loss and of a diagonal
  quadratic, written from the objective;
- the round loop: full or compressed init, the worker step, aggregation in
  ascending worker order, the optional master rule, and each round's
  record, with bits billed as the README states.

``tests/test_compressors.py`` and acceptance criterion 3 hold
``adacgd.compressors`` to the rules on every field of a message;
``tests/test_problems.py`` holds the package's oracle to this one, and
``tests/test_engine.py`` every round of the engine to this loop.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import expit

SKIP, SPARSE, FULL = 0, 1, 2  # what a message sends: nothing, x - h at some coordinates, or x
_NONE = np.zeros(0, dtype=np.int64)


class Level(NamedTuple):
    kind: str
    k: int = 0


class Message(NamedTuple):
    vector: np.ndarray  # the compressed vector
    branch: int
    kind: int
    indices: np.ndarray  # the coordinates a SPARSE message sends, ascending
    values: np.ndarray  # x - h at those coordinates


def sqnorm(v: np.ndarray) -> float:
    return float(v @ v)


def top_k(v: np.ndarray, k: int) -> np.ndarray:
    """The k largest-magnitude coordinates of v, ascending: ties to the lowest index, NaN last."""
    return np.sort(np.argsort(-np.abs(v), kind="stable")[:k])  # a sort puts NaN keys last


def ef21(h, x, level, draw=None) -> Message:
    """The shift h + C(x - h) on branch 0; a rand-k level keeps ``draw(k)``."""
    if level.kind == "identity":
        return Message(x.copy(), 0, FULL, _NONE, np.zeros(0))
    delta = x - h
    kept = top_k(delta, level.k) if level.kind == "topk" else draw(level.k)
    vector = h.copy()
    vector[kept] = h[kept] + delta[kept]
    return Message(vector, 0, SPARSE, kept, delta[kept])


def adacgd(h, y, x, levels, zeta, draw=None) -> Message:
    """Skip (branch 0) when |x - h|^2 <= zeta |x - y|^2; else the first level j
    whose shift errs by at most that budget, and the last level when none does."""
    budget = zeta * sqnorm(x - y)
    if sqnorm(x - h) <= budget:
        return Message(h.copy(), 0, SKIP, _NONE, np.zeros(0))
    for j, level in enumerate(levels, start=1):
        message = ef21(h, x, level, draw and (lambda k, j=j: draw(j, k)))
        if j == len(levels) or sqnorm(x - message.vector) <= budget:
            return message._replace(branch=j)


def clag(h, y, x, level, zeta, draw=None) -> Message:
    return adacgd(h, y, x, (level,), zeta, draw)


def lag(h, y, x, zeta) -> Message:
    return clag(h, y, x, Level("identity"), zeta)


def fields(messages: list[Message], dim: int) -> tuple[np.ndarray, ...]:
    """Stacked messages as dense arrays: vectors, branches, kinds, entry counts,
    and the mask of the sent coordinates and the values sent there (+0.0 elsewhere)."""
    mask, sent = np.zeros((len(messages), dim), dtype=bool), np.zeros((len(messages), dim))
    for i, m in enumerate(messages):
        mask[i, m.indices], sent[i, m.indices] = True, m.values
    vectors = np.stack([m.vector for m in messages])
    columns = np.array([(m.branch, m.kind, m.indices.size) for m in messages]).T
    return (vectors, *columns, mask, sent)


FIELD_NAMES = ("vectors", "branches", "kinds", "entries", "mask", "sent")


def mismatched(ours: tuple[np.ndarray, ...], theirs: tuple[np.ndarray, ...]) -> list[str]:
    """The names of the fields where two ``fields`` tuples differ: floats bit for bit, integers by value."""
    def same(u, v):
        if u.shape != v.shape:
            return False
        return u.tobytes() == v.tobytes() if u.dtype.kind == "f" == v.dtype.kind else np.array_equal(u, v)

    return [name for name, u, v in zip(FIELD_NAMES, ours, theirs) if not same(u, v)]


def boundary_triples(dim: int, ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, y, x) stacks at zeta = 1 where a top-k level's candidate error is exactly its budget.

    For each k in ``ks``, scale in {1, 1/2, 4} and shift s < dim: h = 0, x
    holds k + 1, k, ..., 1 times the scale at alternating signs, rolled by s,
    and y = x - r e_j, where x_j = r is its least nonzero entry. The top-k
    candidate keeps all but x_j, so it errs by r^2, which is zeta |x - y|^2:
    the level fits under a test written <= and misses under <. Scales that
    are powers of two keep every square exact.
    """
    rows = []
    for k in ks:
        for scale in (1.0, 0.5, 4.0):
            base = np.zeros(dim)
            base[: k + 1] = scale * np.arange(k + 1, 0, -1) * (-1.0) ** np.arange(k + 1)
            for s in range(dim):
                x = np.roll(base, s)
                y = x.copy()
                y[(k + s) % dim] = 0.0
                rows.append((np.zeros(dim), y, x))
    return tuple(np.stack(column) for column in zip(*rows))


# The objective. Client i of a logistic problem holds rows a_r with labels
# b_r in {-1, +1}; its objective is the mean of log(1 + exp(-b_r a_r.x)) over
# its rows plus lam * sum_j x_j^2 / (1 + x_j^2). A quadratic client's is
# sum_j q_j x_j^2 / 2. A client oracle maps x to (value, gradient).
ClientOracle = Callable[[np.ndarray], tuple[float, np.ndarray]]


def logistic_client(features: np.ndarray, labels: np.ndarray, lam: float) -> ClientOracle:
    m = labels.shape[0]

    def oracle(x):
        margins = labels * (features @ x)
        value = np.sum(np.logaddexp(0.0, -margins)) / m + lam * np.sum(x**2 / (1.0 + x**2))
        # d/dz log(1 + exp(-z)) = -1 / (1 + exp(z)) = -expit(-z); d/dt t^2 / (1 + t^2) = 2t / (1 + t^2)^2
        weights = -labels * expit(-margins)
        return float(value), features.T @ weights / m + 2.0 * lam * x / (1.0 + x**2) ** 2

    return oracle


def logistic_magnitudes(features: np.ndarray, labels: np.ndarray, lam: float, x: np.ndarray):
    """The sums of the magnitudes of the terms that make a logistic client's value and each gradient entry.

    The value's terms are the loss terms, the products a_rj x_j inside each
    margin and the penalty terms; a gradient entry's are a_rj expit(-b_r a_r.x)
    over the rows and its penalty term. Differently ordered sums of the same
    terms differ by a small multiple of these.
    """
    m = labels.shape[0]
    margins = labels * (features @ x)
    terms = np.logaddexp(0.0, -margins) + np.abs(features) @ np.abs(x)
    value = np.sum(terms) / m + lam * np.sum(x**2 / (1.0 + x**2))
    return value, np.abs(features).T @ expit(-margins) / m + np.abs(2.0 * lam * x / (1.0 + x**2) ** 2)


def quadratic_client(diagonal: np.ndarray) -> ClientOracle:
    def oracle(x):
        gradient = diagonal * x
        return float(0.5 * np.sum(gradient * x)), gradient

    return oracle


class Objective(NamedTuple):
    """f = the mean of the clients' objectives; ``shared`` when every client has one objective, which f then is."""

    clients: list[ClientOracle]
    shared: bool = False

    def __call__(self, x: np.ndarray) -> tuple[float, list[np.ndarray]]:
        """f at x and every client's gradient there, client values averaged in client order."""
        values, grads = zip(*(client(x) for client in self.clients))
        return (values[0] if self.shared else sum(values) / len(values)), list(grads)


def objective_of(problem) -> Objective:
    """The objective of a problem read as data: clients with a ``diagonal`` each, or with
    ``shards`` of (features, labels) and weight ``lam``."""
    if problem.diagonal is not None:
        return Objective([quadratic_client(problem.diagonal)] * problem.n_clients, shared=True)
    return Objective([logistic_client(s.features, s.labels, problem.lam) for s in problem.shards])


# The round loop.
class Rule(NamedTuple):
    """A three-point rule: "ef21" with one level, "adacgd" over levels of
    ascending alpha, or "clag", one-level adacgd whose messages name no
    branch (LAG is clag with the identity)."""

    kind: str
    levels: tuple
    zeta: float = 0.0

    def message(self, h, y, x, draw=None) -> Message:
        if self.kind == "ef21":
            return ef21(h, x, self.levels[0], draw)
        return adacgd(h, y, x, self.levels, self.zeta, draw)

    @property
    def branches(self) -> int:
        return 1 if self.kind == "ef21" else len(self.levels) + 1

    @property
    def header_bits(self) -> int:
        """An AdaCGD sparse message names its branch among m levels and the skip: ceil(log2(m + 1)) bits."""
        return math.ceil(math.log2(len(self.levels) + 1)) if self.kind == "adacgd" else 0

    def strongest(self, dim: int):
        """The level of least alpha = k / d (the identity's is 1), the first of equals."""
        return min(self.levels, key=lambda level: 1.0 if level.kind == "identity" else level.k / dim)


IDENTITY = Rule("ef21", (Level("identity"),))


def bits(message: Message, dim: int, header: int) -> int:
    """Skip: 1 bit. Sparse: the header, plus 64 value bits and ceil(log2 d) index bits per entry,
    at most 64 d. Full: 64 d."""
    if message.kind == SKIP:
        return 1
    if message.kind == FULL:
        return 64 * dim
    index = math.ceil(math.log2(dim)) if dim > 1 else 0
    return header + min(message.indices.size * (64 + index), 64 * dim)


def mean(vectors: list[np.ndarray]) -> np.ndarray:
    """The mean, added up in ascending order from zeros."""
    total = np.zeros(vectors[0].shape)
    for v in vectors:
        total += v
    return total / len(vectors)


class Record(NamedTuple):
    round: int
    x: np.ndarray
    f_value: float
    grad_norm_sq: float
    phi: float
    psi: float
    g_error: float
    master_error: float
    uplink_bits: int  # cumulative
    downlink_bits: int  # cumulative
    branch_histogram: tuple[int, ...]  # worker branches chosen this round


def simulate(
    objective: Objective,
    worker: Rule,
    master: Rule,
    x0: np.ndarray,
    gamma: float,
    rounds: int,
    compressed_init: bool = False,
    draw: Optional[Callable] = None,
    worker_ab: tuple[float, float] = (1.0, 0.0),
    master_ab: tuple[float, float] = (1.0, 0.0),
    f_star: float = 0.0,
) -> list[Record]:
    """Records of rounds 0..rounds of the bidirectional loop (IDENTITY as master is the unidirectional one).

    Round 0: every worker sends its gradient at x0 against h = y = 0 through
    the identity, or, with ``compressed_init``, through the worker rule's
    strongest level; the server broadcasts the mean in full. Round t: x
    moves by -gamma times the broadcast; worker i compresses its new gradient
    against its estimate and its last gradient; the server averages the
    estimates and compresses the mean against its last broadcast and last
    mean. A rand-k support is ``draw(key, k)``, or ``draw(key, j, k)`` at
    level j of an adaptive rule, where key is ("init", i), ("worker", t, i)
    or ("master", t). The records' potentials use the worker's and master's
    (a, b) as given.
    """
    x = np.array(x0, dtype=np.float64)
    dim, n = x.shape[0], len(objective.clients)

    def keyed(key):
        return draw and (lambda *args: draw(key, *args))

    f, grads = objective(x)
    first = Rule("ef21", (worker.strongest(dim),)) if compressed_init else IDENTITY
    zero = np.zeros(dim)
    sent = [first.message(zero, zero, g, keyed(("init", i))) for i, g in enumerate(grads)]
    estimates = [m.vector for m in sent]
    aggregate = mean(estimates)
    broadcast = aggregate.copy()
    up, down = sum(bits(m, dim, 0) for m in sent), 64 * dim
    histogram = (0,) * worker.branches
    (wa, _), (ma, mb) = worker_ab, master_ab
    records = []
    for t in range(rounds + 1):
        if t:
            x = x - gamma * broadcast
            f, new_grads = objective(x)
            sent = [worker.message(estimates[i], grads[i], g, keyed(("worker", t, i))) for i, g in enumerate(new_grads)]
            estimates, grads = [m.vector for m in sent], new_grads
            new_aggregate = mean(estimates)
            down_message = master.message(broadcast, aggregate, new_aggregate, keyed(("master", t)))
            broadcast, aggregate = down_message.vector, new_aggregate
            up += sum(bits(m, dim, worker.header_bits) for m in sent)
            down += bits(down_message, dim, master.header_bits)
            histogram = tuple(sum(m.branch == b for m in sent) for b in range(worker.branches))
        g_error = sum(sqnorm(e - g) for e, g in zip(estimates, grads)) / n
        master_error = sqnorm(broadcast - aggregate)
        phi = f - f_star + (gamma / wa) * g_error
        psi = f + (gamma / ma) * master_error + (gamma / wa) * (1.0 + 3.0 * mb * (2.0 - wa) / ma) * g_error
        records.append(Record(t, x, f, sqnorm(mean(grads)), phi, psi, g_error, master_error, up, down, histogram))
    return records
