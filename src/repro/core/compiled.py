"""Problem lowering and the vectorized LRGP engine.

The reference engine walks Python dicts per flow/node/link; at Table 2
scale that is thousands of interpreter round trips per iteration.  This
module lowers a frozen :class:`~repro.model.problem.Problem` into numpy
arrays once (:func:`compile_problem`) — the link/flow and node/flow
incidence as COO-style index triples, so memory and per-iteration cost
scale with the incidence *nonzeros* (a flow touches only the links and
nodes on its route) and 1k+ flows over 10k+ links stay cheap — and then
runs every LRGP iteration as batched array ops (:class:`VectorizedEngine`):

* **Rate allocation** (Algorithm 1, eq. 7-9) — aggregate path prices with
  ``np.bincount`` scatter-adds over the incidence triples, then a batched
  closed-form argmax per utility family: all-log flows via
  ``sum(n*scale)/price - offset``, all-power flows via the collapsed
  inverse derivative.  Flows whose classes mix shapes (or use a shape with
  no closed form) fall back to the reference's own solver,
  :func:`repro.utility.calculus.solve_rate` — the *fallback column* — so
  they get the same float as the reference engine.
* **Consumer allocation** (Algorithm 2, eq. 10-11) — benefit/cost ratios
  for all classes at once.  Nodes whose budget covers every class admit
  them all without ordering anything.  With 16 or more consumer nodes,
  the remaining (contended) nodes sit in a padded node x class layout
  built at bind (nodes bucketed so padding stays within twice the class
  count); one stable ``argsort`` per bucket puts each node's chargeable
  classes in the reference order — descending ratio, ties by class id.
  A node's greedy fill is then a prefix ``subtract.accumulate`` over
  ``[budget, n^max * cost, ...]``, which reproduces the reference's
  sequential budget float for float, so the run admitted at ``n^max``,
  the partial class and the exit once the budget cannot admit one
  consumer of the cheapest class still ahead are array ops; only a node
  that still admits after its partial class goes on in plain Python
  floats.  With fewer nodes, where those array calls cost more than the
  loop, one ``np.lexsort`` orders the contended classes and every node
  folds in Python.  Zero-cost classes, the covered nodes' need and
  ``BC(b,t)`` are array reductions.
* **Price updates** (eq. 12-13) — eq. 13 is one array expression over all
  bottleneck links; eq. 12 with the adaptive-gamma heuristic stays a
  scalar loop over the short node axis, where it costs less than the
  numpy calls a masked version needs at paper scale.

* **Telemetry** — when enabled, one columnar record per iteration
  (:class:`~repro.obs.events.ColumnarStepEvent`) built from the arrays
  above, instead of one event per node and link.

Every step keeps the reference arithmetic operation for operation, so
admission counts match the reference exactly and the trajectory matches
it within :data:`repro.utility.tolerance.ENGINE_EQUIVALENCE_RTOL` at every
iteration (``tests/core/test_engines.py``); the speedup over the
reference and the 1k-flow step time are guarded in
``benchmarks/test_perf_engines.py``.

Scope notes: the node axis of the lowered arrays covers *consumer* nodes
(the only nodes carrying prices) and the link axis covers *finite-capacity*
links (the only links carrying prices), mirroring which controllers the
reference driver instantiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from repro.core.consumer_allocation import (
    _FLOOR_SLACK,  # shared admission flooring slack; same constant by design
    allocate_consumers,
)
from repro.core.engines import LRGPEngine, StepOutcome
from repro.core.gamma import AdaptiveGamma, FixedGamma
from repro.model.entities import ClassId, FlowId, LinkId, NodeId
from repro.model.problem import Problem
from repro.obs.events import ColumnarStepEvent, now_ns
from repro.utility.base import UtilityFunction
from repro.utility.calculus import solve_rate
from repro.utility.functions import LogUtility, PowerUtility, ScaledUtility
from repro.utility.tolerance import close_enough, is_zero

if TYPE_CHECKING:
    from repro.core.lrgp import LRGPConfig

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]

#: The link usage a telemetry record carries when there are no links.
_NO_LINKS: FloatArray = np.zeros(0, dtype=np.float64)

#: Problems with fewer consumer nodes admit node by node in Python: there
#: the row-wise fill's ~70 numpy calls per bucket cost more than the loop.
_ROW_FILL_MIN_NODES = 16
#: Columns of a sorted admission row the array fold covers first (see
#: ``VectorizedEngine._admit``); doubled while a row admits n^max beyond it.
_FOLD_SPAN = 16

#: Utility-family codes used by the batched rate solver.
FAMILY_LOG = 0
FAMILY_POW = 1
FAMILY_GENERIC = 2


def _classify(
    utility: UtilityFunction, factor: float = 1.0
) -> tuple[int, float, float, float]:
    """Map a utility onto ``(family, effective_scale, offset, exponent)``.

    :class:`~repro.utility.functions.ScaledUtility` wrappers are unwrapped
    recursively, folding their factor into the effective scale; anything
    that is not (a rescaling of) the log or power family is generic and
    handled by the fallback column.
    """
    if isinstance(utility, ScaledUtility):
        return _classify(utility.base, factor * utility.factor)
    if isinstance(utility, LogUtility):
        return FAMILY_LOG, factor * utility.scale, utility.offset, 0.0
    if isinstance(utility, PowerUtility):
        return FAMILY_POW, factor * utility.scale, 0.0, utility.exponent
    return FAMILY_GENERIC, 0.0, 0.0, 0.0


@dataclass(frozen=True)
class CompiledProblem:
    """A :class:`Problem` lowered to index and incidence arrays.

    Index vocabularies are sorted tuples of ids; every array is positioned
    on them.  The incidence is stored *sparse-first* as parallel COO-style
    index arrays in row-major order: ``(ln_link, ln_flow, ln_cost)`` holds
    one entry per (bottleneck link, flow-on-it) pair — the paper's ``L``
    restricted to its nonzero pattern — and ``(fn_node, fn_flow,
    fn_cost)`` one entry per (consumer node, flow-at-it) pair (``F``).
    ``consumer_cost`` holds ``G`` for each class at its hosting node and
    ``class_fn_index`` points each class at its node/flow cell in the
    ``fn_*`` arrays (the class's node is always on its flow's route, so
    the cell always exists) for one-pass scatter-add of the
    population-dependent eq. 9 coefficients.  No dense incidence matrix
    is ever built: memory scales with the nonzeros, not with
    ``n_links x n_flows``.  The ``*_class_positions`` arrays pre-split
    the class axis by utility family so the batched evaluators touch only
    the columns they understand.
    """

    problem: Problem
    flow_ids: tuple[FlowId, ...]
    node_ids: tuple[NodeId, ...]
    link_ids: tuple[LinkId, ...]
    class_ids: tuple[ClassId, ...]
    rate_min: FloatArray
    rate_max: FloatArray
    node_capacity: FloatArray
    link_capacity: FloatArray
    ln_link: IntArray
    ln_flow: IntArray
    ln_cost: FloatArray
    fn_node: IntArray
    fn_flow: IntArray
    fn_cost: FloatArray
    consumer_cost: FloatArray
    class_flow: IntArray
    class_node: IntArray
    class_fn_index: IntArray
    max_consumers: IntArray
    utilities: tuple[UtilityFunction, ...]
    class_family: IntArray
    class_scale: FloatArray
    class_offset: FloatArray
    class_exponent: FloatArray
    flow_family: IntArray
    flow_offset: FloatArray
    flow_exponent: FloatArray
    log_class_positions: IntArray
    pow_class_positions: IntArray
    generic_class_positions: IntArray

    @property
    def n_flows(self) -> int:
        return len(self.flow_ids)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_links(self) -> int:
        return len(self.link_ids)

    @property
    def n_classes(self) -> int:
        return len(self.class_ids)

    @property
    def nnz_link(self) -> int:
        """Stored (link, flow) incidence entries."""
        return int(self.ln_cost.size)

    @property
    def nnz_node(self) -> int:
        """Stored (node, flow) incidence entries."""
        return int(self.fn_cost.size)

    def sparse_nbytes(self) -> int:
        """Bytes held by the sparse incidence entries (both axes)."""
        return int(
            self.ln_link.nbytes
            + self.ln_flow.nbytes
            + self.ln_cost.nbytes
            + self.fn_node.nbytes
            + self.fn_flow.nbytes
            + self.fn_cost.nbytes
            + self.class_fn_index.nbytes
        )

    # -- dict <-> vector converters ---------------------------------------

    def rates_vector(self, rates: dict[FlowId, float] | None = None) -> FloatArray:
        """Per-flow rate vector; missing entries default to ``rate_min``."""
        if rates is None:
            return self.rate_min.copy()
        return np.array(
            [
                float(rates.get(fid, self.problem.flows[fid].rate_min))
                for fid in self.flow_ids
            ],
            dtype=np.float64,
        )

    def populations_vector(
        self, populations: dict[ClassId, int] | None = None
    ) -> IntArray:
        """Per-class population vector; missing entries default to 0."""
        if populations is None:
            return np.zeros(self.n_classes, dtype=np.int64)
        return np.array(
            [int(populations.get(cid, 0)) for cid in self.class_ids], dtype=np.int64
        )

    def node_prices_vector(self, prices: dict[NodeId, float]) -> FloatArray:
        return np.array(
            [float(prices.get(nid, 0.0)) for nid in self.node_ids], dtype=np.float64
        )

    def link_prices_vector(self, prices: dict[LinkId, float]) -> FloatArray:
        return np.array(
            [float(prices.get(lid, 0.0)) for lid in self.link_ids], dtype=np.float64
        )

    def rates_dict(self, rates: FloatArray) -> dict[FlowId, float]:
        return dict(zip(self.flow_ids, rates.tolist()))

    def populations_dict(self, populations: IntArray) -> dict[ClassId, int]:
        return dict(zip(self.class_ids, populations.tolist()))

    # -- lowered accounting ----------------------------------------------

    def cell_coefficients(self, populations: FloatArray) -> FloatArray:
        """Eq. 9 coefficients ``F + sum_j G_j n_j`` per *stored* cell.

        One entry per ``fn_*`` incidence pair, never the full node x flow
        grid.  Every class scatter-adds into its own cell via
        ``class_fn_index``.
        """
        return np.asarray(
            self.fn_cost
            + np.bincount(
                self.class_fn_index,
                weights=self.consumer_cost * populations,
                minlength=self.nnz_node,
            ),
            dtype=np.float64,
        )

    def flow_prices(
        self,
        populations: FloatArray,
        node_prices: FloatArray,
        link_prices: FloatArray,
    ) -> FloatArray:
        """``PL_i + PB_i`` for every flow (eq. 8-9) via scatter-adds.

        Without bottleneck links ``PL`` is all zeros, and ``0.0 + PB_i`` is
        ``PB_i`` exactly (a scatter-add never yields ``-0.0``), so the link
        term is skipped.
        """
        pb = np.asarray(
            np.bincount(
                self.fn_flow,
                weights=node_prices[self.fn_node]
                * self.cell_coefficients(populations),
                minlength=self.n_flows,
            ),
            dtype=np.float64,
        )
        if not self.nnz_link:
            return pb
        pl = np.bincount(
            self.ln_flow,
            weights=link_prices[self.ln_link] * self.ln_cost,
            minlength=self.n_flows,
        )
        return np.asarray(pl + pb, dtype=np.float64)

    def link_usages(self, rates: FloatArray) -> FloatArray:
        """LHS of eq. 4 for every bottleneck link via scatter-adds."""
        return np.asarray(
            np.bincount(
                self.ln_link,
                weights=self.ln_cost * rates[self.ln_flow],
                minlength=self.n_links,
            ),
            dtype=np.float64,
        )

    def node_usages(
        self, rates: FloatArray, populations: FloatArray
    ) -> FloatArray:
        """LHS of eq. 5 for every consumer node via scatter-adds."""
        return np.asarray(
            np.bincount(
                self.fn_node,
                weights=self.cell_coefficients(populations) * rates[self.fn_flow],
                minlength=self.n_nodes,
            ),
            dtype=np.float64,
        )

    def node_flow_costs(self, rates: FloatArray) -> FloatArray:
        """Per-node consumer-independent flow cost ``sum_i F_{b,i} r_i``."""
        return np.asarray(
            np.bincount(
                self.fn_node,
                weights=self.fn_cost * rates[self.fn_flow],
                minlength=self.n_nodes,
            ),
            dtype=np.float64,
        )

    def class_values(self, rates: FloatArray) -> FloatArray:
        """``U_j(r_{flowMap(j)})`` for every class (batched by family)."""
        class_rate = rates[self.class_flow]
        n = self.n_classes
        if self.log_class_positions.size == n:
            return np.asarray(
                self.class_scale * np.log(self.class_offset + class_rate),
                dtype=np.float64,
            )
        if self.pow_class_positions.size == n:
            return np.asarray(
                self.class_scale * class_rate**self.class_exponent, dtype=np.float64
            )
        out = np.empty(n, dtype=np.float64)
        idx = self.log_class_positions
        if idx.size:
            out[idx] = self.class_scale[idx] * np.log(
                self.class_offset[idx] + class_rate[idx]
            )
        idx = self.pow_class_positions
        if idx.size:
            out[idx] = self.class_scale[idx] * class_rate[idx] ** self.class_exponent[idx]
        for pos in self.generic_class_positions:
            out[pos] = self.utilities[int(pos)].value(float(class_rate[pos]))
        return out

    def total_utility(self, rates: FloatArray, populations: IntArray) -> float:
        """The objective (eq. 6) on lowered state.

        Zero-population classes contribute exactly ``0 * U_j = 0``, so the
        plain dot product equals the reference's skip-if-empty sum.
        """
        values = self.class_values(rates)
        return float(np.dot(populations.astype(np.float64), values))


def _flow_families(
    class_flow: IntArray,
    class_family: IntArray,
    class_offset: FloatArray,
    class_exponent: FloatArray,
    n_flows: int,
) -> tuple[IntArray, FloatArray, FloatArray]:
    """Per flow ``(family, offset, exponent)`` for the batched rate solver.

    A flow is log when all its classes are log with one offset, power when
    all are power with one exponent, and generic otherwise; a flow with no
    classes is log (the rate solver only hits boundary cases for it, and
    log keeps it off the fallback column).  Each class is compared with
    its flow's first class, found by one stable class-by-flow sort, and
    the matches are counted per flow with ``bincount``: linear in the
    classes, not flows x classes.
    """
    sizes = np.bincount(class_flow, minlength=n_flows)
    by_flow = np.argsort(class_flow, kind="stable")
    first = np.zeros(n_flows, dtype=np.int64)
    present = sizes > 0
    first[present] = by_flow[(np.cumsum(sizes) - sizes)[present]]
    lead = first[class_flow]
    # Exact equality on purpose: it mirrors the reference solver's grouping
    # test (same-offset log terms collapse in closed form).
    same_log = (class_family == FAMILY_LOG) & (class_offset == class_offset[lead])
    same_pow = (class_family == FAMILY_POW) & (
        class_exponent == class_exponent[lead]
    )
    all_log = np.bincount(class_flow, weights=same_log, minlength=n_flows) == sizes
    all_pow = present & (
        np.bincount(class_flow, weights=same_pow, minlength=n_flows) == sizes
    )
    flow_family = np.where(
        all_log, FAMILY_LOG, np.where(all_pow, FAMILY_POW, FAMILY_GENERIC)
    ).astype(np.int64)
    flow_offset = np.zeros(n_flows, dtype=np.float64)
    flow_exponent = np.zeros(n_flows, dtype=np.float64)
    log_flows = all_log & present
    flow_offset[log_flows] = class_offset[first[log_flows]]
    flow_exponent[all_pow] = class_exponent[first[all_pow]]
    return flow_family, flow_offset, flow_exponent


def compile_problem(problem: Problem) -> CompiledProblem:
    """Lower ``problem`` into a :class:`CompiledProblem`.

    Pure indexing and coefficient gathering — no optimizer state, and no
    dense incidence allocation (memory here is ``O(nonzeros + classes)``).
    The result is immutable and reusable across engines bound to the same
    problem.
    """
    flow_ids = tuple(sorted(problem.flows))
    node_ids = problem.consumer_nodes()
    link_ids = problem.bottleneck_links()
    class_ids = tuple(sorted(problem.classes))
    flow_pos = {fid: i for i, fid in enumerate(flow_ids)}
    node_pos = {nid: b for b, nid in enumerate(node_ids)}

    n_classes = len(class_ids)

    rate_min = np.array([problem.flows[f].rate_min for f in flow_ids], dtype=np.float64)
    rate_max = np.array([problem.flows[f].rate_max for f in flow_ids], dtype=np.float64)
    node_capacity = np.array(
        [problem.nodes[n].capacity for n in node_ids], dtype=np.float64
    )
    link_capacity = np.array(
        [problem.links[l].capacity for l in link_ids], dtype=np.float64
    )

    # Sparse incidence entries in row-major (link- / node-major, then flow)
    # order: one entry per pair in the problem's incidence maps, zero-cost
    # pairs included — the *pattern* is what classes scatter into.
    ln_link_list: list[int] = []
    ln_flow_list: list[int] = []
    ln_cost_list: list[float] = []
    for l, lid in enumerate(link_ids):
        for i in sorted(flow_pos[fid] for fid in problem.flows_on_link(lid)):
            ln_link_list.append(l)
            ln_flow_list.append(i)
            ln_cost_list.append(problem.costs.link(lid, flow_ids[i]))
    fn_node_list: list[int] = []
    fn_flow_list: list[int] = []
    fn_cost_list: list[float] = []
    cell_index: dict[tuple[int, int], int] = {}
    for b, nid in enumerate(node_ids):
        for i in sorted(flow_pos[fid] for fid in problem.flows_at_node(nid)):
            cell_index[(b, i)] = len(fn_node_list)
            fn_node_list.append(b)
            fn_flow_list.append(i)
            fn_cost_list.append(problem.costs.flow_node(nid, flow_ids[i]))

    class_flow = np.empty(n_classes, dtype=np.int64)
    class_node = np.empty(n_classes, dtype=np.int64)
    class_fn_index = np.empty(n_classes, dtype=np.int64)
    max_consumers = np.empty(n_classes, dtype=np.int64)
    consumer_cost = np.empty(n_classes, dtype=np.float64)
    class_family = np.empty(n_classes, dtype=np.int64)
    class_scale = np.zeros(n_classes, dtype=np.float64)
    class_offset = np.zeros(n_classes, dtype=np.float64)
    class_exponent = np.zeros(n_classes, dtype=np.float64)
    utilities: list[UtilityFunction] = []
    for j, cid in enumerate(class_ids):
        cls = problem.classes[cid]
        class_flow[j] = flow_pos[cls.flow_id]
        class_node[j] = node_pos[cls.node]
        # build_problem guarantees the class node is on the flow's route,
        # so the (node, flow) cell exists in the stored pattern.
        class_fn_index[j] = cell_index[(int(class_node[j]), int(class_flow[j]))]
        max_consumers[j] = cls.max_consumers
        consumer_cost[j] = problem.costs.consumer(cls.node, cid)
        family, scale, offset, exponent = _classify(cls.utility)
        class_family[j] = family
        class_scale[j] = scale
        class_offset[j] = offset
        class_exponent[j] = exponent
        utilities.append(cls.utility)

    n_flows = len(flow_ids)
    flow_family, flow_offset, flow_exponent = _flow_families(
        class_flow, class_family, class_offset, class_exponent, n_flows
    )

    return CompiledProblem(
        problem=problem,
        flow_ids=flow_ids,
        node_ids=node_ids,
        link_ids=link_ids,
        class_ids=class_ids,
        rate_min=rate_min,
        rate_max=rate_max,
        node_capacity=node_capacity,
        link_capacity=link_capacity,
        ln_link=np.array(ln_link_list, dtype=np.int64),
        ln_flow=np.array(ln_flow_list, dtype=np.int64),
        ln_cost=np.array(ln_cost_list, dtype=np.float64),
        fn_node=np.array(fn_node_list, dtype=np.int64),
        fn_flow=np.array(fn_flow_list, dtype=np.int64),
        fn_cost=np.array(fn_cost_list, dtype=np.float64),
        consumer_cost=consumer_cost,
        class_flow=class_flow,
        class_node=class_node,
        class_fn_index=class_fn_index,
        max_consumers=max_consumers,
        utilities=tuple(utilities),
        class_family=class_family,
        class_scale=class_scale,
        class_offset=class_offset,
        class_exponent=class_exponent,
        flow_family=flow_family,
        flow_offset=flow_offset,
        flow_exponent=flow_exponent,
        log_class_positions=np.nonzero(class_family == FAMILY_LOG)[0].astype(np.int64),
        pow_class_positions=np.nonzero(class_family == FAMILY_POW)[0].astype(np.int64),
        generic_class_positions=np.nonzero(class_family == FAMILY_GENERIC)[0].astype(
            np.int64
        ),
    )


def _greedy_fill(
    cost: memoryview,
    caps: memoryview,
    counts: memoryview,
    k: int,
    end: int,
    remaining: float,
    total: float,
) -> float:
    """One node's greedy fill over ``cost[k:end]`` in plain Python floats.

    ``cost`` and ``caps`` hold chargeable classes in fill order; the
    admitted counts go to ``counts[k:end]``.  The fold uses the reference's
    operations (``count = int(remaining / cost + _FLOOR_SLACK)`` capped at
    ``n^max``, then ``remaining -= count * cost``) and leaves as soon as the
    budget cannot admit one consumer of the cheapest class still ahead:
    IEEE division and floor are monotone, so every class skipped that way
    would have admitted 0.  Returns ``total`` plus the consumer spend.
    """
    slack = _FLOOR_SLACK
    # Cheapest cost over cost[k:end] and where it sits; recomputed once the
    # fill moves past it.
    floor_at = k - 1
    floor_cost = 0.0
    while k < end and remaining > 0.0:
        unit = cost[k]
        count = int(remaining / unit + slack)
        cap = caps[k]
        if count > cap:
            count = cap
        counts[k] = count
        spent = count * unit
        remaining -= spent
        total += spent
        k += 1
        if count < cap and k < end:
            if floor_at < k:
                rest = cost[k:end].tolist()
                floor_cost = min(rest)
                floor_at = k + rest.index(floor_cost)
            if int(remaining / floor_cost + slack) == 0:
                break
    return total


def _validate_initial_price(price: float, what: str) -> float:
    if math.isnan(price) or math.isinf(price) or price < 0.0:
        raise ValueError(f"{what} must be finite and non-negative, got {price}")
    return price


def _admission_buckets(
    by_node: IntArray, counts: IntArray
) -> list[tuple[IntArray, IntArray, IntArray]]:
    """The padded node x class layout greedy admission sorts and folds.

    ``by_node`` is the class axis grouped by node (class positions
    ascending within a node) and ``counts`` each node's class count.  Each
    bucket is ``(nodes, cells, base)``: ``cells`` is a
    ``(len(nodes), width + 1)`` matrix whose row lists one node's class
    positions, then ``len(by_node)`` (a sentinel slot) up to the last
    column, which is all sentinel; ``base`` is each row's offset in
    ``cells.ravel()``.  Nodes are taken in decreasing class count, and a
    bucket takes the next node while its cells stay within twice its
    classes.  ``width`` is the bucket's first and largest count, and every
    node with more than half of it fits, so there are at most
    ``log2(largest / smallest count) + 1`` buckets (one on a uniform
    fabric).
    """
    starts = (np.cumsum(counts) - counts).tolist()
    groups: list[list[int]] = []
    width = classes = 0
    for b in np.argsort(-counts, kind="stable").tolist():
        count = int(counts[b])
        if groups and (len(groups[-1]) + 1) * (width + 1) <= 2 * (classes + count):
            groups[-1].append(b)
            classes += count
        else:
            groups.append([b])
            width = classes = count
    buckets = []
    for group in groups:
        cells = np.full(
            (len(group), int(counts[group[0]]) + 1), by_node.size, dtype=np.int64
        )
        for row, b in enumerate(group):
            cells[row, : counts[b]] = by_node[starts[b] : starts[b] + counts[b]]
        base = np.arange(0, cells.size, cells.shape[1])
        buckets.append((np.array(group, dtype=np.int64), cells, base))
    return buckets


@dataclass
class _NodeState:
    """Preserved per-node controller state across a rebind (figure 3)."""

    capacity: float
    price: float
    gamma: float
    last_delta: float
    has_last: bool


class VectorizedEngine(LRGPEngine):
    """Runs the full LRGP iteration as numpy array ops on lowered state.

    Supports the stock greedy admission and the fixed/adaptive gamma
    schedules; configs carrying a custom admission strategy or gamma
    subclass must use the reference engine (the constructor fails loudly
    rather than silently diverging from the configured behavior).

    Rates, populations and link prices live in numpy arrays across steps;
    the node controllers' state lives in plain lists, since eq. 12 runs as
    a scalar loop.  The accessors convert to dicts of Python ``int`` /
    ``float`` values, so results serialize exactly like the reference's.
    """

    name = "vectorized"

    def __init__(self, problem: Problem, config: "LRGPConfig") -> None:
        if config.admission is not allocate_consumers:
            raise ValueError(
                "the vectorized engine implements the paper's greedy admission "
                "only; use engine='reference' for custom admission strategies"
            )
        proto = config.node_gamma
        if type(proto) is FixedGamma:
            self._adaptive = False
            self._gamma_initial = proto.gamma
            self._gamma_increment = 0.0
            self._gamma_backoff = 1.0
            self._gamma_lower = 0.0
            self._gamma_upper = math.inf
        elif type(proto) is AdaptiveGamma:
            self._adaptive = True
            self._gamma_initial = proto.initial
            self._gamma_increment = proto.increment
            self._gamma_backoff = proto.backoff
            self._gamma_lower = proto.lower
            self._gamma_upper = proto.upper
        else:
            raise ValueError(
                "the vectorized engine supports FixedGamma and AdaptiveGamma "
                "schedules only; use engine='reference' for "
                f"{type(proto).__name__}"
            )
        # Reuse the schedule's own validation for the link step size.
        self._link_gamma = FixedGamma(config.link_gamma).gamma
        _validate_initial_price(config.initial_node_price, "initial node price")
        _validate_initial_price(config.initial_link_price, "initial link price")
        self._config = config
        self._compiled: CompiledProblem | None = None
        self.bind(problem, preserve_state=False)

    # -- accessors ----------------------------------------------------------

    @property
    def problem(self) -> Problem:
        return self.compiled.problem

    @property
    def compiled(self) -> CompiledProblem:
        """The lowered problem the engine is currently bound to."""
        if self._compiled is None:  # pragma: no cover - bind() runs in __init__
            raise RuntimeError("engine is not bound to a problem")
        return self._compiled

    def rates(self) -> dict[FlowId, float]:
        return self.compiled.rates_dict(self._rates)

    def populations(self) -> dict[ClassId, int]:
        return self.compiled.populations_dict(self._populations)

    def node_prices(self) -> dict[NodeId, float]:
        return dict(zip(self.compiled.node_ids, self._node_price))

    def link_prices(self) -> dict[LinkId, float]:
        return dict(zip(self.compiled.link_ids, self._link_price.tolist()))

    def node_gammas(self) -> dict[NodeId, float]:
        return dict(zip(self.compiled.node_ids, self._gamma))

    # -- binding ------------------------------------------------------------

    def bind(self, problem: Problem, preserve_state: bool) -> None:
        old_rates: dict[FlowId, float] = {}
        old_populations: dict[ClassId, int] = {}
        old_nodes: dict[NodeId, _NodeState] = {}
        old_links: dict[LinkId, tuple[float, float]] = {}
        if preserve_state and self._compiled is not None:
            previous = self.compiled
            old_rates = self.rates()
            old_populations = self.populations()
            for b, nid in enumerate(previous.node_ids):
                old_nodes[nid] = _NodeState(
                    capacity=float(previous.node_capacity[b]),
                    price=self._node_price[b],
                    gamma=self._gamma[b],
                    last_delta=self._last_delta[b],
                    has_last=self._has_last[b],
                )
            old_links = dict(
                zip(
                    previous.link_ids,
                    zip(
                        previous.link_capacity.tolist(), self._link_price.tolist()
                    ),
                )
            )

        # Lowering is the one compile-shaped cost of a (re)bind, so it gets
        # its own profiler phase; the reference engine has no counterpart
        # (its pinned phase tree is untouched).
        with self._config.telemetry.profiler.phase("lower"):
            compiled = compile_problem(problem)
        self._compiled = compiled
        self._rates = compiled.rates_vector(old_rates or None)
        self._populations = compiled.populations_vector(old_populations or None)

        config = self._config
        n_nodes = compiled.n_nodes
        # Node controller state stays in plain lists: eq. 12 is a scalar
        # loop mirroring the reference controllers' float arithmetic.
        initial_node_price = float(config.initial_node_price)
        self._node_price: list[float] = [initial_node_price] * n_nodes
        self._gamma: list[float] = [self._gamma_initial] * n_nodes
        self._last_delta: list[float] = [0.0] * n_nodes
        self._has_last: list[bool] = [False] * n_nodes
        for b, nid in enumerate(compiled.node_ids):
            state = old_nodes.get(nid)
            if state is not None and close_enough(
                state.capacity, float(compiled.node_capacity[b])
            ):
                self._node_price[b] = state.price
                self._gamma[b] = state.gamma
                self._last_delta[b] = state.last_delta
                self._has_last[b] = state.has_last
        link_prices = [float(config.initial_link_price)] * compiled.n_links
        for l, lid in enumerate(compiled.link_ids):
            entry = old_links.get(lid)
            if entry is not None and close_enough(
                entry[0], float(compiled.link_capacity[l])
            ):
                link_prices[l] = entry[1]
        # Keeps the sign of a -0.0 price, as the reference controllers do.
        self._link_price = np.array(link_prices, dtype=np.float64)

        # Static per-bind precomputation: which utility families are present
        # (to skip dead closed-form columns), the power-family exponent
        # transforms, the generic flows' terms and the admission layout.
        pow_flows = compiled.flow_family == FAMILY_POW
        self._has_log_flows = bool(np.any(compiled.flow_family == FAMILY_LOG))
        self._has_pow_flows = bool(np.any(pow_flows))
        self._log_flow_mask = compiled.flow_family == FAMILY_LOG
        self._pow_safe_exponent = np.where(pow_flows, compiled.flow_exponent, 1.0)
        self._pow_inverse_exponent = np.where(
            pow_flows, 1.0 / (compiled.flow_exponent - 1.0), 0.0
        )
        # Fallback column: per generic flow, its bounds and its classes
        # (position, utility) in class-id order, the reference's term order,
        # sliced from one stable class-by-flow sort.
        sizes = np.bincount(compiled.class_flow, minlength=compiled.n_flows)
        ends = np.cumsum(sizes)
        by_flow = np.argsort(compiled.class_flow, kind="stable")
        self._generic_flows = [
            (
                i,
                float(compiled.rate_min[i]),
                float(compiled.rate_max[i]),
                [
                    (j, compiled.utilities[j])
                    for j in by_flow[ends[i] - sizes[i] : ends[i]].tolist()
                ],
            )
            for i in np.nonzero(compiled.flow_family == FAMILY_GENERIC)[0].tolist()
        ]
        # The class axis grouped by node, for the admission layout and the
        # BC(b,t) reduceat; every consumer node hosts a class, so no
        # segment is empty.
        self._by_node = np.argsort(compiled.class_node, kind="stable")
        node_counts = np.bincount(compiled.class_node, minlength=n_nodes)
        self._node_starts = np.cumsum(node_counts) - node_counts
        self._buckets = (
            _admission_buckets(self._by_node, node_counts)
            if n_nodes >= _ROW_FILL_MIN_NODES
            else []
        )
        self._max_consumers_float = compiled.max_consumers.astype(np.float64)
        # n^max per class, and 0 for the layout's sentinel slot.
        self._caps = np.append(compiled.max_consumers, 0)
        self._node_capacity_list = compiled.node_capacity.tolist()
        if config.telemetry.enabled:
            # Telemetry records share these with the compiled problem.
            for shared in (compiled.node_capacity, compiled.link_capacity, compiled.class_node):
                shared.setflags(write=False)

    # -- one iteration -------------------------------------------------------

    def step(self) -> StepOutcome:
        compiled = self.compiled
        telemetry = self._config.telemetry
        registry = telemetry.registry
        profiler = telemetry.profiler
        snapshots = self._config.record_snapshots
        slack: dict[str, float] = {}

        with profiler.phase("iteration"):
            # 1. Rate allocation (Algorithm 1): prices from last iteration's
            #    populations, then the batched argmax of eq. 7.
            with profiler.phase("argmax"):
                populations = self._populations.astype(np.float64)
                prices = compiled.flow_prices(
                    populations,
                    np.array(self._node_price, dtype=np.float64),
                    self._link_price,
                )
                self._rates = self._solve_rates(prices, populations)

            # 2. Consumer allocation (Algorithm 2) and node prices (eq. 12).
            #    Same phase names as the reference engine, so profiles of
            #    the two engines diff phase-for-phase; γ observation runs
            #    inline in _update_node_prices and folds into price_update.
            with profiler.phase("admission"):
                values = compiled.class_values(self._rates)
                admitted, used, best = self._admit(values)
                self._populations = admitted
            with profiler.phase("price_update"):
                if telemetry.enabled:
                    # Eq. 12 moves the node lists in place; eq. 13
                    # replaces the link array.
                    old_node_price = list(self._node_price)
                    old_gamma = list(self._gamma)
                    old_link_price = self._link_price
                    usage = _NO_LINKS
                    branches: list[str] = []
                    fluctuations: list[bool] = []
                    fluctuation_steps = self._update_node_prices(
                        best, used, branches, fluctuations
                    )
                else:
                    self._update_node_prices(best, used)
            if snapshots:
                for b, nid in enumerate(compiled.node_ids):
                    slack[f"node:{nid}"] = self._node_capacity_list[b] - used[b]

            # 3. Link prices (eq. 13).
            with profiler.phase("price_update"):
                if compiled.n_links:
                    usage = compiled.link_usages(self._rates)
                    self._update_link_prices(usage)
                    if snapshots:
                        headroom = (compiled.link_capacity - usage).tolist()
                        for lid, value in zip(compiled.link_ids, headroom):
                            slack[f"link:{lid}"] = value

            if telemetry.enabled:
                # One columnar record per step from the arrays at hand (the
                # float node columns in one block); the counters move once
                # per step by the number of updates.
                n = compiled.n_nodes
                node = np.fromiter(
                    chain(old_node_price, self._node_price, old_gamma, self._gamma, used, best),
                    np.float64,
                    6 * n,
                )
                # The record shares these with the engine, which replaces
                # rather than writes them: keep readers from writing either
                # (before slicing, since views copy the flag).
                for shared in (node, admitted, self._link_price, usage):
                    shared.setflags(write=False)
                telemetry.emit(
                    ColumnarStepEvent(
                        t_ns=now_ns(),
                        node_ids=compiled.node_ids,
                        link_ids=compiled.link_ids,
                        class_ids=compiled.class_ids,
                        node_old_price=node[:n],
                        node_new_price=node[n : 2 * n],
                        node_gamma=node[2 * n : 3 * n],
                        node_new_gamma=node[3 * n : 4 * n],
                        node_fluctuated=np.array(fluctuations, dtype=np.bool_),
                        node_branch=tuple(branches),
                        node_used=node[4 * n : 5 * n],
                        node_capacity=compiled.node_capacity,
                        node_best_ratio=node[5 * n :],
                        populations=admitted,
                        class_node=compiled.class_node,
                        link_step=self._link_gamma,
                        link_old_price=old_link_price,
                        link_new_price=self._link_price,
                        link_usage=usage,
                        link_capacity=compiled.link_capacity,
                    )
                )
                if compiled.n_nodes:
                    registry.counter("prices.updates.node").inc(compiled.n_nodes)
                if compiled.n_links:
                    registry.counter("prices.updates.link").inc(compiled.n_links)
                if fluctuation_steps:
                    registry.counter("gamma.fluctuations").inc(fluctuation_steps)

            # Zero populations contribute exactly 0, so the dot product
            # equals the reference's skip-if-empty objective sum (eq. 6).
            utility = float(np.dot(admitted.astype(np.float64), values))

        return StepOutcome(utility=utility, slack=slack)

    # -- rate allocation ------------------------------------------------------

    def _solve_rates(self, prices: FloatArray, populations: FloatArray) -> FloatArray:
        """Batched argmax of eq. 7 for every flow.

        Boundary cases first (no active consumers, non-positive price), then
        the closed forms per family clamped to the rate bounds — equivalent
        to the reference's explicit boundary-derivative checks because the
        objective's derivative is strictly decreasing.  Flows marked generic
        go through :func:`~repro.utility.calculus.solve_rate`, the
        reference's solver, on the reference's terms.
        """
        compiled = self.compiled
        n_flows = len(compiled.flow_ids)
        # Sum of populations per flow: > 0 iff any class is active.
        active = (
            np.bincount(compiled.class_flow, weights=populations, minlength=n_flows)
            > 0.0
        )
        positive = prices > 0.0
        boundary = np.where(positive, compiled.rate_min, compiled.rate_max)
        interior = active & positive

        total_scale = np.bincount(
            compiled.class_flow,
            weights=populations * compiled.class_scale,
            minlength=n_flows,
        )
        # Whole-array closed forms; junk lanes (price 0, inactive, generic)
        # produce inf/nan that the interior mask filters out below.
        closed: FloatArray | None = None
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self._has_log_flows:
                closed = total_scale / prices - compiled.flow_offset
            if self._has_pow_flows:
                pow_closed = (
                    prices / (total_scale * self._pow_safe_exponent)
                ) ** self._pow_inverse_exponent
                closed = (
                    pow_closed
                    if closed is None
                    else np.where(self._log_flow_mask, closed, pow_closed)
                )
        if closed is not None:
            clamped = np.minimum(
                np.maximum(closed, compiled.rate_min), compiled.rate_max
            )
            rates = np.where(interior, clamped, boundary)
        else:
            rates = boundary

        for i, rate_min, rate_max, classes in self._generic_flows:
            terms = [(float(populations[j]), utility) for j, utility in classes]
            rates[i] = solve_rate(terms, float(prices[i]), rate_min, rate_max)
        return np.asarray(rates, dtype=np.float64)

    # -- consumer allocation ---------------------------------------------------

    def _admit(
        self, values: FloatArray
    ) -> tuple[IntArray, list[float], list[float]]:
        """Greedy admission (Algorithm 2) at every node, given class values.

        Ratios (eq. 10) are computed for all classes at once.  A node whose
        budget covers the cost of saturating every chargeable class admits
        everyone (order cannot matter), as do zero-cost classes anywhere —
        the reference admits them without touching the budget.  The other,
        *contended* nodes fill in the reference's order (descending ratio,
        ties by class id) with the reference's float operations: row by
        row on the padded layout (:meth:`_fill_rows`) when the problem has
        at least :data:`_ROW_FILL_MIN_NODES` consumer nodes, else node by
        node in Python (:meth:`_fill_flat`).  Returns ``(populations, used,
        best_unsatisfied_ratio)``; ``BC(b,t)`` is the largest finite ratio
        among classes below ``n^max``, 0 when none.
        """
        compiled = self.compiled
        max_consumers = compiled.max_consumers
        unit_cost = compiled.consumer_cost * self._rates[compiled.class_flow]
        chargeable = unit_cost > 0.0
        # Free classes rank +inf when useful, 0 otherwise (eq. 10's limits).
        ratios = np.divide(
            values,
            unit_cost,
            out=np.where(values > 0.0, np.inf, 0.0),
            where=chargeable,
        )

        flow_cost = compiled.node_flow_costs(self._rates)
        budget = compiled.node_capacity - flow_cost
        saturate = unit_cost * self._max_consumers_float
        need = np.bincount(
            compiled.class_node,
            weights=np.where(chargeable, saturate, 0.0),
            minlength=compiled.n_nodes,
        )
        covered = need <= budget
        contended = chargeable & ~covered[compiled.class_node]
        populations = np.where(contended, 0, max_consumers)
        if self._buckets:
            total = self._fill_rows(
                contended, ratios, unit_cost, saturate, budget, populations
            )
        else:
            total = self._fill_flat(contended, ratios, unit_cost, budget, populations)
        used = flow_cost + np.where(covered, need, total)

        unsatisfied = (populations < max_consumers) & np.isfinite(ratios)
        best = np.maximum.reduceat(
            np.where(unsatisfied, ratios, -np.inf)[self._by_node], self._node_starts
        )
        return (
            populations,
            used.tolist(),
            np.where(best > -np.inf, best, 0.0).tolist(),
        )

    def _fill_flat(
        self,
        contended: NDArray[np.bool_],
        ratios: FloatArray,
        unit_cost: FloatArray,
        budget: FloatArray,
        populations: IntArray,
    ) -> list[float]:
        """Greedy fill of every contended node in plain Python floats.

        One stable ``np.lexsort`` on ``(node, -ratio)`` over the contended
        class positions, which ascend, puts them in the reference's order;
        each node then folds its budget with :func:`_greedy_fill`.  Writes
        the admitted counts into ``populations`` and returns each node's
        consumer spend.
        """
        compiled = self.compiled
        sel = contended.nonzero()[0]
        sel_node = compiled.class_node[sel]
        order = sel[np.lexsort((-ratios[sel], sel_node))]
        filled = np.zeros(sel.size, dtype=np.int64)
        fold = (
            memoryview(unit_cost[order]),
            memoryview(compiled.max_consumers[order]),
            memoryview(filled),
        )
        total: list[float] = []
        start = 0
        for end, remaining in zip(
            np.bincount(sel_node, minlength=compiled.n_nodes).cumsum().tolist(),
            budget.tolist(),
        ):
            total.append(_greedy_fill(*fold, start, end, remaining, 0.0))
            start = end
        populations[order] = filled
        return total

    def _fill_rows(
        self,
        contended: NDArray[np.bool_],
        ratios: FloatArray,
        unit_cost: FloatArray,
        saturate: FloatArray,
        budget: FloatArray,
        populations: IntArray,
    ) -> FloatArray:
        """Greedy fill of every contended node, row by row on the padded
        node x class layout of :func:`_admission_buckets`.

        * One stable ``argsort`` per bucket on ``-ratio`` puts each row's
          contended classes in the reference's order (the row lists class
          positions in ascending order, so ties keep class-id order); every
          other class and the padding are keyed NaN, which sorts last.
        * A row's budget fold is ``subtract.accumulate`` over
          ``[budget, n^max * cost, ...]`` and its spend ``add.accumulate``
          over ``[0, n^max * cost, ...]``: over the run of classes admitted
          at ``n^max`` these are the reference's sequential floats, so the
          first column that does not admit at ``n^max`` is one ``argmin``
          and its partial count ``int(budget / cost + _FLOOR_SLACK)`` an
          array op.
        * After that partial class a node stops once the budget cannot
          admit one consumer of the cheapest class still ahead (a segmented
          minimum); only a row that still can goes on, with
          :func:`_greedy_fill` from the next column.

        Writes the admitted counts into ``populations`` and returns each
        node's consumer spend.
        """
        # Class-axis operands with a trailing slot for the padding sentinel.
        # Outside the contended classes the key is NaN, which sorts last,
        # and the cost +inf, which marks a column as not contended.
        key = np.append(np.where(contended, -ratios, np.nan), np.nan)
        cost = np.append(np.where(contended, unit_cost, np.inf), np.inf)
        spend = np.append(saturate, 0.0)
        caps = self._caps
        max_consumers = self.compiled.max_consumers
        slack = _FLOOR_SLACK
        total = np.zeros(self.compiled.n_nodes)
        for nodes, cells, base in self._buckets:
            n_rows, width = cells.shape
            rows = np.arange(n_rows)
            cols = cells.take(
                np.argsort(key[cells], axis=1, kind="stable") + base[:, None]
            )
            # Budget left before each column while every column before it
            # admitted n^max.  A run ends at the first column that is not
            # contended (contended columns come first), so the spend of
            # later columns never counts.  Runs are short: the fold covers
            # the first ``span`` columns, doubled until every row's run ends
            # inside it; the all-sentinel last column ends any run.
            span = min(_FOLD_SPAN, width)
            while True:
                head = cols[:, :span]
                fold = np.empty(head.shape)
                fold[:, 1:] = spend[head[:, :-1]]
                fold[:, 0] = budget[nodes]
                remaining = np.subtract.accumulate(fold, axis=1)
                head_cost = cost[head]
                fits = remaining / head_cost
                fits += slack
                full = (head_cost < np.inf) & (remaining > 0.0) & (fits >= caps[head])
                stop = full.argmin(axis=1)
                if span == width or not full[rows, stop].any():
                    break
                span = min(2 * span, width)
            saturated = head[np.arange(span) < stop[:, None]]
            populations[saturated] = max_consumers[saturated]
            fold[:, 0] = 0.0
            spent_before = np.add.accumulate(fold[:, : stop.max() + 1], axis=1)

            at = head[rows, stop]
            left = remaining[rows, stop]
            unit = head_cost[rows, stop]
            partial = (unit < np.inf) & (left > 0.0)
            count = np.where(partial, fits[rows, stop], 0.0).astype(np.int64)
            populations[at[partial]] = count[partial]
            paid = count * np.where(partial, unit, 0.0)
            left = left - paid
            total[nodes] = spent_before[rows, stop] + paid

            # The cheapest cost after the stop column: one min per row over
            # [base + stop + 1, next row's base); odd segments are unused.
            row_cost = cost[cols]
            ahead = np.minimum(stop + 1, width - 1)
            bounds = np.empty(2 * n_rows - 1, dtype=np.int64)
            bounds[0::2] = base + ahead
            bounds[1::2] = base[1:]
            cheapest = np.minimum.reduceat(row_cost.ravel(), bounds)[0::2]
            more = partial & (left > 0.0)
            more &= left / cheapest + slack >= 1.0
            if not more.any():
                continue
            flat = cols.ravel()
            filled = np.zeros(cols.size, dtype=np.int64)
            fold_rest = (
                memoryview(row_cost.ravel()),
                memoryview(caps[flat]),
                memoryview(filled),
            )
            ends = base + np.count_nonzero(row_cost < np.inf, axis=1)
            for r in more.nonzero()[0].tolist():
                k, end = int(base[r] + ahead[r]), int(ends[r])
                total[nodes[r]] = _greedy_fill(
                    *fold_rest, k, end, float(left[r]), float(total[nodes[r]])
                )
                populations[flat[k:end]] = filled[k:end]
        return total

    # -- price updates ----------------------------------------------------------

    def _update_node_prices(
        self,
        best: list[float],
        used: list[float],
        branches: list[str] | None = None,
        fluctuations: list[bool] | None = None,
    ) -> int:
        """Eq. 12 per node, mirroring :class:`NodePriceController` exactly,
        including the adaptive-gamma observation (section 4.2).

        With ``branches`` given (telemetry on), appends each node's branch
        and fluctuation test to ``branches`` / ``fluctuations`` and returns
        how many fluctuations moved γ — what the reference schedules count
        as ``gamma.fluctuations``; returns 0 otherwise.
        """
        prices = self._node_price
        gammas = self._gamma
        adaptive = self._adaptive
        isfinite = math.isfinite
        fluctuation_steps = 0
        for b, capacity in enumerate(self._node_capacity_list):
            benefit_cost = best[b]
            used_b = used[b]
            if not isfinite(benefit_cost) or benefit_cost < 0.0:
                raise ValueError(
                    "benefit_cost must be finite and non-negative, "
                    f"got {benefit_cost}"
                )
            if not isfinite(used_b) or used_b < 0.0:
                raise ValueError(
                    f"used must be finite and non-negative, got {used_b}"
                )
            old_price = prices[b]
            gamma = gammas[b]
            if used_b <= capacity:
                new_price = old_price + gamma * (benefit_cost - old_price)
                branch = "track"
            else:
                new_price = old_price + gamma * (used_b - capacity)
                branch = "violation"
            new_price = max(new_price, 0.0)
            prices[b] = new_price
            delta = new_price - old_price

            if adaptive:
                fluctuated = self._has_last[b] and delta * self._last_delta[b] < 0.0
                if fluctuated:
                    adjusted = gamma * self._gamma_backoff
                else:
                    adjusted = gamma + self._gamma_increment
                new_gamma = min(max(adjusted, self._gamma_lower), self._gamma_upper)
                gammas[b] = new_gamma
                if not is_zero(delta):
                    self._last_delta[b] = delta
                    self._has_last[b] = True
            else:
                fluctuated = False
                new_gamma = gamma

            if branches is not None and fluctuations is not None:
                branches.append(branch)
                fluctuations.append(fluctuated)
                if fluctuated and not is_zero(new_gamma - gamma):
                    fluctuation_steps += 1
        return fluctuation_steps

    def _update_link_prices(self, usage: FloatArray) -> None:
        """Eq. 13 (gradient projection) on every bottleneck link at once,
        mirroring :class:`LinkPriceController` exactly.

        The projection is ``where(0 > x, 0, x)`` — Python's ``max(x, 0.0)``
        — rather than ``np.maximum``, which would turn a ``-0.0`` into
        ``0.0``.
        """
        # One whole-array check; a NaN fails both bounds.
        if not (usage.min() >= 0.0 and usage.max() < math.inf):
            bad = usage[~(np.isfinite(usage) & (usage >= 0.0))][0]
            raise ValueError(
                f"usage must be finite and non-negative, got {float(bad)}"
            )
        gamma = self._link_gamma
        old = self._link_price
        moved = old + gamma * (usage - self.compiled.link_capacity)
        # A fresh array each step: a telemetry record keeps the old one.
        self._link_price = np.where(0.0 > moved, 0.0, moved)
