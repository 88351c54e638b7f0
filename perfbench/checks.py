"""Output checks computed apart from the program.

The checks read trace CSVs with their own parser and compare them with what
the paper's rules and a plain NumPy evaluation of the objective say they must
hold. They use the program only for the one thing they are about: the problem
it built (``Problem.shards``), whose data the NumPy oracle evaluates itself.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import VALUE_BITS, Method, Workload

COLUMNS = "round,f_value,grad_norm_sq,phi,psi,g_error,master_error,uplink_bits_cum,downlink_bits_cum,branch_hist"

# Relative tolerances. Round 1 is one step from x0, so only summation order
# separates the program from the oracle. Over a whole gradient-descent run
# the rounding differences compound through the iteration but stay far
# below this bound on the stable multipliers the workloads use.
ROUND1_RTOL = 1e-9
GD_RTOL = 1e-7
# Slack for "the potential never rises": one part in 10^12 of its value.
POTENTIAL_RTOL = 1e-12


@dataclass(frozen=True)
class Row:
    round: int
    f_value: float
    grad_norm_sq: float
    phi: float
    psi: float
    uplink: int
    downlink: int
    hist: tuple[int, ...]


def parse_trace(text: str) -> tuple[dict, list[Row]]:
    """Header values and rows of one trace CSV."""
    meta: dict = {}
    rows: list[Row] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, sep, value = lines[i][2:].partition(" = ")
        if not sep:
            raise ValueError(f"malformed header line {lines[i]!r}")
        meta[key] = value
        i += 1
    if i >= len(lines) or lines[i] != COLUMNS:
        raise ValueError("trace column line missing or changed")
    for line in lines[i + 1 :]:
        f = line.split(",")
        if len(f) != 10:
            raise ValueError(f"trace row has {len(f)} fields: {line!r}")
        hist = tuple(int(c) for c in f[9].split(";")) if f[9] else ()
        rows.append(Row(int(f[0]), float(f[1]), float(f[2]), float(f[3]), float(f[4]), int(f[7]), int(f[8]), hist))
    if not rows:
        raise ValueError("trace has no rows")
    return meta, rows


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class Oracle:
    """f = (1/n) sum_i f_i and its gradient, evaluated with NumPy over the shards.

    f_i(x) = mean_r softplus(-y_r a_r.x) + lam * sum_j x_j^2 / (1 + x_j^2).
    """

    def __init__(self, shards, lam: float):
        self.shards = [(np.asarray(s.features), np.asarray(s.labels)) for s in shards]
        self.lam = lam

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        n = len(self.shards)
        value = 0.0
        grad = np.zeros_like(x)
        for a, y in self.shards:
            t = -y * (a @ x)
            value += float(np.mean(np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))))
            sigma = 0.5 * (1.0 + np.tanh(0.5 * t))  # logistic(t), the weight of each row
            grad += a.T @ (-y * sigma) / a.shape[0]
        sq = x * x
        value = value / n + self.lam * float(np.sum(sq / (1.0 + sq)))
        grad = grad / n + 2.0 * self.lam * x / (1.0 + sq) ** 2
        return value, grad


def _payload_bits(kind: tuple, dim: int, header: int) -> int:
    if kind[0] == "skip":
        return 1
    if kind[0] == "full":
        return dim * VALUE_BITS
    index_bits = math.ceil(math.log2(dim)) if dim > 1 else 0
    return min(kind[1] * (VALUE_BITS + index_bits), dim * VALUE_BITS) + header


def check_bits(rows: list[Row], method: Method, wl: Workload) -> list[str]:
    """Every round's bit increments follow the cost rule applied to its branch histogram."""
    d, n = wl.dim, wl.n_clients
    costs = [_payload_bits(b, d, method.header_bits) for b in method.branches]
    down_cost = _payload_bits(wl.master_branch, d, 0)
    fails = []
    if rows[0].uplink != n * d * VALUE_BITS or rows[0].downlink != d * VALUE_BITS:
        fails.append(f"round 0 bits {rows[0].uplink}/{rows[0].downlink}, expected {n * d * VALUE_BITS}/{d * VALUE_BITS}")
    for prev, row in zip(rows, rows[1:]):
        if len(row.hist) != len(costs) or sum(row.hist) != n:
            fails.append(f"round {row.round}: branch histogram {row.hist} is not {len(costs)} counts summing to {n}")
            continue
        up = sum(c * k for c, k in zip(costs, row.hist))
        if row.uplink - prev.uplink != up:
            fails.append(f"round {row.round}: uplink grew by {row.uplink - prev.uplink}, rule gives {up}")
        if row.downlink - prev.downlink != down_cost:
            fails.append(f"round {row.round}: downlink grew by {row.downlink - prev.downlink}, rule gives {down_cost}")
    return fails


def check_rounds(rows: list[Row]) -> list[str]:
    if [r.round for r in rows] != list(range(len(rows))):
        return ["round numbers are not 0, 1, 2, ..."]
    return []


def check_start(rows: list[Row], gamma: float, oracle: Oracle, dim: int) -> list[str]:
    """Round 0 is f(0) = ln 2; round 1 is f and |grad f|^2 at x1 = -gamma * grad f(0)."""
    fails = []
    if not _close(rows[0].f_value, math.log(2.0), ROUND1_RTOL):
        fails.append(f"round 0 f_value {rows[0].f_value!r}, expected ln 2")
    _, g0 = oracle.value_grad(np.zeros(dim))
    if not _close(rows[0].grad_norm_sq, float(g0 @ g0), ROUND1_RTOL):
        fails.append(f"round 0 grad_norm_sq {rows[0].grad_norm_sq!r}, oracle {float(g0 @ g0)!r}")
    if len(rows) > 1:
        f1, g1 = oracle.value_grad(-gamma * g0)
        if not _close(rows[1].f_value, f1, ROUND1_RTOL):
            fails.append(f"round 1 f_value {rows[1].f_value!r}, oracle {f1!r}")
        if not _close(rows[1].grad_norm_sq, float(g1 @ g1), ROUND1_RTOL):
            fails.append(f"round 1 grad_norm_sq {rows[1].grad_norm_sq!r}, oracle {float(g1 @ g1)!r}")
    return fails


def check_gd(rows: list[Row], gamma: float, oracle: Oracle, dim: int) -> list[str]:
    """A gradient-descent trace follows x <- x - gamma * grad f(x) round by round."""
    x = np.zeros(dim)
    for row in rows:
        f, g = oracle.value_grad(x)
        if not (_close(row.f_value, f, GD_RTOL) and _close(row.grad_norm_sq, float(g @ g), GD_RTOL)):
            return [f"round {row.round}: gd trace ({row.f_value!r}, {row.grad_norm_sq!r}) "
                    f"left NumPy descent ({f!r}, {float(g @ g)!r})"]
        x = x - gamma * g
    return []


def check_potential(rows: list[Row], bidirectional: bool) -> list[str]:
    """At the theory stepsize the Lyapunov potential (phi, or psi when bidirectional) never rises."""
    name = "psi" if bidirectional else "phi"
    values = [r.psi if bidirectional else r.phi for r in rows]
    for t, (a, b) in enumerate(zip(values, values[1:]), start=1):
        if b > a + POTENTIAL_RTOL * abs(a):
            return [f"round {t}: {name} rose from {a!r} to {b!r}"]
    return []


def check_status(status: str, rows: list[Row], tol: float, max_rounds: int) -> list[str]:
    """The reported status is the one the rows and the tolerance imply."""
    hit = [r.round for r in rows if r.grad_norm_sq <= tol]
    last = rows[-1].round
    if hit and hit[0] != last:
        return [f"tolerance met at round {hit[0]} but the run went on to round {last}"]
    if status == "reached":
        ok = bool(hit)
    elif status == "unreached":
        ok = not hit and last == max_rounds
    elif status == "diverged":
        ok = not hit and last < max_rounds
    else:
        return [f"unknown status {status!r}"]
    if not ok:
        return [f"status {status} disagrees with final round {last} and grad_norm_sq {rows[-1].grad_norm_sq!r}"]
    return []


def check_trace(
    text: str, method: Method, multiplier: float, wl: Workload, oracle: Oracle, reported_status: str
) -> tuple[list[str], int]:
    """All checks on one trace; returns (failures, rounds simulated).

    ``reported_status`` is the status the sweep returned for the run; the
    trace header must carry the same one.
    """
    try:
        meta, rows = parse_trace(text)
    except ValueError as err:
        return [f"unreadable trace: {err}"], 0
    fails = check_rounds(rows) + check_bits(rows, method, wl)
    gamma = float(meta.get("gamma", "nan"))
    if not (math.isfinite(gamma) and gamma > 0):
        return fails + [f"bad gamma header {meta.get('gamma')!r}"], rows[-1].round
    fails += check_start(rows, gamma, oracle, wl.dim)
    if method.gd:
        fails += check_gd(rows, gamma, oracle, wl.dim)
    if multiplier == 1.0:
        fails += check_potential(rows, wl.bidirectional)
    fails += check_status(meta.get("status", ""), rows, wl.grad_tol_sq, wl.max_rounds)
    if meta.get("status") != reported_status:
        fails.append(f"trace header status {meta.get('status')!r}, sweep result {reported_status!r}")
    return fails, rows[-1].round
