"""Parallel execution strategy optimizer (paper §V-C).

Given a platform, a CNN, a total rank count, and a mini-batch size, find a
good assignment of distributions to layers:

1. **Candidates.**  For convolutional (and FC) layers we "heuristically
   select distributions that are load balanced and prefer cheaper
   partitioning methods (i.e. sample over spatial parallelism) when
   possible": all factorizations ``sample x height x width = P`` with
   near-square spatial factors, sample ways dividing the mini-batch, and
   spatial ways no larger than the layer's output extent.  Candidates that
   cannot fit in GPU memory (checked with the memory model, uniformly) are
   dropped.  Other layers inherit their parent's distribution.
2. **Line networks.**  Reduce to single-source shortest path: one vertex
   per (layer, candidate); an edge from ``(l_i, D_i)`` to ``(l_j, D_j)``
   weighted ``Cost_{D_i}(l_i) + Shuffle(D_i, D_j)``; source/sink as in the
   paper.  The graph is a layered DAG, solved in linear time by a dynamic
   program in path order.
3. **Branchy networks** (ResNets): find the most expensive source-to-sink
   path, optimize it as a line, fix those layers, and repeat with the next
   path that "contains as few of the already-used layers as possible"
   (already-fixed layers contribute zero weight to path selection, and act
   as fixed-constraint vertices during optimization) until every layer has
   a distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.nn.graph import NetworkSpec
from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.memory import MemoryModel
from repro.perfmodel.network_cost import NetworkCostModel
from repro.core.parallelism import LayerParallelism, ParallelStrategy

#: Layer kinds that choose their own distribution; the rest inherit.
DECISION_KINDS = ("conv", "fc")


def factorizations(p: int) -> list[tuple[int, int, int]]:
    """All (sample, height, width) with sample*height*width == p and the
    spatial part as square as possible for each (sample, ways) pair."""
    out = []
    for sample in range(1, p + 1):
        if p % sample:
            continue
        ways = p // sample
        h = w = 1
        best = (ways, 1)
        for cand_w in range(1, int(math.isqrt(ways)) + 1):
            if ways % cand_w == 0:
                best = (ways // cand_w, cand_w)
        h, w = best
        out.append((sample, h, w))
    return out


@dataclass
class OptimizationReport:
    """The chosen strategy plus the evidence behind it."""

    strategy: ParallelStrategy
    predicted_time: float
    candidates_considered: int
    paths_optimized: int

    def describe(self) -> str:
        return (
            f"predicted mini-batch time {self.predicted_time * 1e3:.2f} ms, "
            f"{self.candidates_considered} candidate distributions, "
            f"{self.paths_optimized} path(s) optimized"
        )


class StrategyOptimizer:
    """Performance-model-driven strategy search."""

    def __init__(
        self,
        spec: NetworkSpec,
        machine: MachineSpec,
        total_ranks: int,
        n_global: int,
        conv_model=None,
        check_memory: bool = True,
    ) -> None:
        self.spec = spec
        self.machine = machine
        self.total_ranks = total_ranks
        self.n_global = n_global
        self.cost_model = NetworkCostModel(spec, machine, conv_model=conv_model)
        self.memory = MemoryModel(spec, machine)
        self.check_memory = check_memory
        self.shapes = spec.infer_shapes()

    # -- candidate generation ----------------------------------------------------
    def candidates(self, name: str) -> list[LayerParallelism]:
        """Feasible distributions for one decision layer, cheapest-first."""
        layer = self.spec[name]
        c, h, w = self.shapes[name]
        cands = []
        for sample, gh, gw in factorizations(self.total_ranks):
            if sample > self.n_global:
                continue  # load balance: no empty sample shards
            if layer.kind == "fc" and (gh > 1 or gw > 1):
                continue  # FC layers are sample- or model-parallel only
            if gh > 1 and h < gh:
                continue
            if gw > 1 and w < gw:
                continue
            cands.append(LayerParallelism(sample=sample, height=gh, width=gw))
        # Prefer cheaper partitioning: sample parallelism first.
        cands.sort(key=lambda p: (p.spatial_ways, -p.sample))
        if not cands:
            # Degenerate layer (e.g. FC with batch < ranks): run it with the
            # sample-axis distribution; dimensions too small to split are
            # replicated by activation_dist, so execution stays correct.
            cands = [LayerParallelism(sample=self.total_ranks)]
        if self.check_memory:
            feasible = [
                p
                for p in cands
                if self.memory.fits(self.n_global, ParallelStrategy.uniform(p))
            ]
            if feasible:
                return feasible
        return cands

    # -- cost pieces --------------------------------------------------------------
    def _segment_layers(self, name: str) -> list[str]:
        """A decision layer plus its inherit-children up to the next
        decision layer (these are costed under the same distribution)."""
        out = [name]
        frontier = [name]
        while frontier:
            nxt = []
            for n in frontier:
                for child in self.spec.children_of(n):
                    if self.spec[child].kind not in DECISION_KINDS:
                        if child not in out:
                            out.append(child)
                            nxt.append(child)
            frontier = nxt
        return out

    def _layer_cost(self, name: str, par: LayerParallelism) -> float:
        strategy = ParallelStrategy.uniform(par)
        total = 0.0
        for seg_name in self._segment_layers(name):
            cost = self.cost_model.layer_cost(seg_name, self.n_global, strategy)
            if cost is not None:
                total += cost.fp_time() + cost.bp_time()
        return total

    def _shuffle_cost(self, parent: str, pa: LayerParallelism, pb: LayerParallelism) -> float:
        if pa.grid_shape == pb.grid_shape:
            return 0.0
        c, h, w = self.shapes[parent]
        nbytes = float(self.n_global) * c * h * w * self.machine.dtype_bytes
        return 2 * self.cost_model._shuffle_cost(nbytes, self.total_ranks)

    # -- path optimization ----------------------------------------------------------
    def _decision_parents(self, order: list[str]) -> dict[str, list[str]]:
        """Nearest decision-layer ancestors of each decision layer (edges of
        the DAG over decision layers; non-decision layers are looked through)."""
        parents: dict[str, list[str]] = {}
        for name in order:
            seen, out, stack = set(), [], list(self.spec[name].parents)
            while stack:
                p = stack.pop()
                if p in seen:
                    continue
                seen.add(p)
                if self.spec[p].kind in DECISION_KINDS:
                    out.append(p)
                else:
                    stack.extend(self.spec[p].parents)
            parents[name] = out
        return parents

    def _optimize_path(
        self,
        path: list[str],
        fixed: dict[str, LayerParallelism],
    ) -> dict[str, LayerParallelism]:
        """Shortest-path assignment along one line of decision layers.

        Dynamic program over the layered candidate DAG: ``dist[j]`` is the
        cheapest cost of reaching candidate ``j`` of the current layer, via
        edges weighted ``Cost_{D_i}(l_i) + Shuffle(D_i, D_j)``.  Ties keep
        the earliest candidate, i.e. the cheaper partitioning, since
        :meth:`candidates` lists sample parallelism first.
        """
        cand_sets = []
        for name in path:
            cands = [fixed[name]] if name in fixed else self.candidates(name)
            if not cands:
                raise RuntimeError(
                    f"no feasible distribution for layer {name!r} with "
                    f"{self.total_ranks} ranks and N={self.n_global}"
                )
            cand_sets.append((name, cands))

        def argmin(costs: list[float]) -> int:
            return min(range(len(costs)), key=costs.__getitem__)

        name, cands = cand_sets[0]
        dist = [0.0] * len(cands)
        back: list[list[int]] = []
        for next_name, next_cands in cand_sets[1:]:
            own = [self._layer_cost(name, par) for par in cands]
            choice, next_dist = [], []
            for nxt in next_cands:
                costs = [
                    dist[i] + (own[i] + self._shuffle_cost(name, par, nxt))
                    for i, par in enumerate(cands)
                ]
                i = argmin(costs)
                choice.append(i)
                next_dist.append(costs[i])
            back.append(choice)
            name, cands, dist = next_name, next_cands, next_dist
        j = argmin([dist[i] + self._layer_cost(name, par) for i, par in enumerate(cands)])
        picks = [j]
        for choice in reversed(back):
            j = choice[j]
            picks.append(j)
        return {
            layer: options[j]
            for (layer, options), j in zip(cand_sets, reversed(picks))
        }

    def optimize(self) -> OptimizationReport:
        """Run the full §V-C procedure; returns strategy + evidence."""
        reference = LayerParallelism(sample=math.gcd(self.total_ranks, self.n_global))
        assigned: dict[str, LayerParallelism] = {}
        candidates_considered = 0
        paths = 0

        decision_layers = [
            layer.name for layer in self.spec.topo_order() if layer.kind in DECISION_KINDS
        ]
        parents = self._decision_parents(decision_layers)
        # Path "length" = sum of the layers' costs under the reference
        # distribution; already-assigned layers count ~zero so new paths
        # prefer unassigned layers.
        weight = {n: max(self._layer_cost(n, reference), 1e-12) for n in decision_layers}

        def heaviest_path() -> list[str]:
            """Longest source-to-sink chain of decision layers (a DP in
            topological order).  Ties keep the parent found first and, at
            the end, the chain ending earliest in topological order."""
            dist: dict[str, float] = {}
            prev: dict[str, str | None] = {}
            for n in decision_layers:
                best = max(parents[n], key=dist.__getitem__, default=None)
                w = 1e-12 if n in assigned else weight[n]
                prev[n] = best
                dist[n] = (0.0 if best is None else dist[best]) + w
            n: str | None = max(decision_layers, key=dist.__getitem__)
            path = []
            while n is not None:
                path.append(n)
                n = prev[n]
            return path[::-1]

        while any(n not in assigned for n in decision_layers):
            paths += 1
            path = heaviest_path()
            new_on_path = [n for n in path if n not in assigned]
            if not new_on_path:
                # Degenerate: remaining layers are off every longest path;
                # assign them greedily with their cheapest candidate.
                for n in decision_layers:
                    if n not in assigned:
                        assigned[n] = self.candidates(n)[0]
                break
            for n in path:
                if n not in assigned:
                    candidates_considered += len(self.candidates(n))
            result = self._optimize_path(path, assigned)
            assigned.update(result)

        # Inherit: non-decision layers take their first parent's assignment;
        # inputs take their first child's (second pass, children come later).
        full: dict[str, LayerParallelism] = {}
        for layer in self.spec.topo_order():
            if layer.name in assigned:
                full[layer.name] = assigned[layer.name]
            elif layer.kind == "input":
                continue
            else:
                full[layer.name] = full[layer.parents[0]]
        for layer in self.spec.inputs():
            children = self.spec.children_of(layer.name)
            full[layer.name] = full[children[0]] if children else reference
        strategy = ParallelStrategy(full)
        predicted = self.cost_model.minibatch_time(self.n_global, strategy)

        # Final guard: the path objective omits network-level effects
        # (allreduce exposure, optimizer pass), so also evaluate the
        # feasible *uniform* strategies under the full model and keep the
        # best — the optimizer must never lose to a uniform choice.
        for sample, gh, gw in factorizations(self.total_ranks):
            if sample > self.n_global:
                continue
            par = LayerParallelism(sample=sample, height=gh, width=gw)
            uniform = ParallelStrategy.uniform(par)
            if self.check_memory and not self.memory.fits(self.n_global, uniform):
                continue
            try:
                t = self.cost_model.minibatch_time(self.n_global, uniform)
            except ValueError:
                continue
            if t < predicted:
                strategy, predicted = uniform, t

        return OptimizationReport(
            strategy=strategy,
            predicted_time=predicted,
            candidates_considered=candidates_considered,
            paths_optimized=paths,
        )
