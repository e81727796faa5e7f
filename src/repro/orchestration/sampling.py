"""Decision sampling: design augmentation for BoolGebra training data.

Two samplers are provided, matching Section III-A/III-B of the paper:

* :class:`RandomSampler` — every node receives a uniformly random operation.
  Figure 2 shows that the resulting quality-of-results follow an approximately
  Gaussian distribution, which makes purely random search a poor minimizer and
  (as Section III-C notes) yields weakly distinctive training data.
* :class:`PriorityGuidedSampler` — a base sample assigns to every node the
  highest-priority *applicable* operation (``rw`` before ``rs`` before ``rf``,
  prioritising minimal structural change), and additional samples are derived
  by re-randomising a partial subset of the nodes (10%–90%).  This produces
  better-performing and more diverse samples, which is what the model trains
  on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.aig.aig import Aig
from repro.orchestration.decision import DecisionVector, Operation
from repro.orchestration.orchestrate import OrchestrationResult, orchestrate
from repro.orchestration.transformability import (
    NodeTransformability,
    OperationParams,
    analyze_network,
)


@dataclass
class SampleRecord:
    """One Boolean-manipulation sample: the decisions and (once run) the result."""

    decisions: DecisionVector
    result: Optional[OrchestrationResult] = None

    @property
    def size_after(self) -> Optional[int]:
        """Optimized AIG size, available after evaluation."""
        return None if self.result is None else self.result.size_after

    @property
    def reduction(self) -> Optional[int]:
        """Node reduction achieved by this sample, available after evaluation."""
        return None if self.result is None else self.result.reduction

    # JSON interchange (used by the artifact store) --------------------- #
    def to_dict(self) -> Dict:
        """Return a JSON-serializable rendering of the record."""
        return {
            "decisions": {
                str(node): int(operation)
                for node, operation in sorted(self.decisions.items())
            },
            "result": None if self.result is None else self.result.to_dict(),
        }

    @staticmethod
    def from_dict(payload: Dict) -> "SampleRecord":
        """Rebuild a record previously rendered by :meth:`to_dict`."""
        result = payload.get("result")
        return SampleRecord(
            decisions=DecisionVector(
                {
                    int(node): Operation(operation)
                    for node, operation in payload["decisions"].items()
                }
            ),
            result=None if result is None else OrchestrationResult.from_dict(result),
        )


class RandomSampler:
    """Uniformly random per-node operation assignment."""

    def __init__(self, aig: Aig, seed: int = 0) -> None:
        self.aig = aig
        self.seed = seed
        self._nodes = list(aig.nodes())

    def sample(self, rng: Optional[random.Random] = None) -> DecisionVector:
        """Draw one random decision vector."""
        rng = rng or random.Random(self.seed)
        return DecisionVector(
            {node: Operation(rng.randrange(3)) for node in self._nodes}
        )

    def generate(self, count: int) -> List[DecisionVector]:
        """Draw ``count`` independent random decision vectors."""
        rng = random.Random(self.seed)
        return [self.sample(rng) for _ in range(count)]


class PriorityGuidedSampler:
    """Priority-guided sampling with partial-random augmentation.

    Parameters
    ----------
    aig:
        The design to sample decisions for.
    priority:
        Operation priority order, highest first.  The paper prioritises
        rewriting (smallest structural change) over resubstitution over
        refactoring.
    min_fraction / max_fraction:
        Range of the fraction of nodes re-randomised when deriving additional
        samples from the base sample (the paper uses 10%–90%).
    params:
        Operation tuning parameters used for the transformability analysis.
    """

    def __init__(
        self,
        aig: Aig,
        seed: int = 0,
        priority: Sequence[Operation] = (
            Operation.REWRITE,
            Operation.RESUB,
            Operation.REFACTOR,
        ),
        min_fraction: float = 0.1,
        max_fraction: float = 0.9,
        params: Optional[OperationParams] = None,
    ) -> None:
        if not 0.0 <= min_fraction <= max_fraction <= 1.0:
            raise ValueError("fractions must satisfy 0 <= min <= max <= 1")
        self.aig = aig
        self.seed = seed
        self.priority = tuple(priority)
        self.min_fraction = min_fraction
        self.max_fraction = max_fraction
        self.params = params or OperationParams()
        self._nodes = list(aig.nodes())

    # ------------------------------------------------------------------ #
    @property
    def analysis(self) -> Dict[int, NodeTransformability]:
        """Per-node transformability of the three operations (memoized per design)."""
        return analyze_network(self.aig, self.params)

    def base_sample(self, rng: Optional[random.Random] = None) -> DecisionVector:
        """Return the priority-guided base assignment.

        Each node gets the highest-priority applicable operation; nodes where
        no operation applies receive a random assignment (they will simply be
        skipped by the orchestrated optimizer, but keeping them assigned makes
        the dynamic features well defined).
        """
        rng = rng or random.Random(self.seed)
        analysis = self.analysis
        decisions = DecisionVector()
        for node in self._nodes:
            info = analysis.get(node)
            chosen: Optional[Operation] = None
            if info is not None:
                for operation in self.priority:
                    if info.applicable(operation):
                        chosen = operation
                        break
            if chosen is None:
                chosen = Operation(rng.randrange(3))
            decisions[node] = chosen
        return decisions

    def mutate(
        self, base: DecisionVector, fraction: float, rng: random.Random
    ) -> DecisionVector:
        """Re-randomise ``fraction`` of the nodes of ``base`` (partial random assignment)."""
        mutated = base.copy()
        num_mutations = max(1, int(round(fraction * len(self._nodes))))
        for node in rng.sample(self._nodes, min(num_mutations, len(self._nodes))):
            mutated[node] = Operation(rng.randrange(3))
        return mutated

    def generate(self, count: int) -> List[DecisionVector]:
        """Return ``count`` decision vectors: the base sample plus mutated variants."""
        rng = random.Random(self.seed)
        base = self.base_sample(rng)
        samples = [base]
        while len(samples) < count:
            fraction = rng.uniform(self.min_fraction, self.max_fraction)
            samples.append(self.mutate(base, fraction, rng))
        return samples[:count]


def evaluate_samples(
    aig: Aig,
    decision_vectors: Sequence[DecisionVector],
    params: Optional[OperationParams] = None,
    evaluator=None,
) -> List[SampleRecord]:
    """Run Algorithm 1 for every decision vector (on copies) and record the results.

    ``evaluator`` selects the batch-evaluation backend: ``None`` keeps the
    historical in-process loop, anything else is resolved through
    :func:`repro.engine.evaluator.get_evaluator` (accepting ``"serial"``,
    ``"process[:N]"`` or an :class:`~repro.engine.evaluator.Evaluator`
    instance).  All backends return records in input order.
    """
    if evaluator is not None:
        from repro.engine.evaluator import get_evaluator

        return get_evaluator(evaluator).evaluate(aig, decision_vectors, params=params)
    records = []
    for decisions in decision_vectors:
        result = orchestrate(aig, decisions, params=params, in_place=False)
        records.append(SampleRecord(decisions=decisions, result=result))
    return records
