"""The model-power hierarchy (paper, Sections 6 and 9).

The paper's conclusion orders the models by the selection problems they
can solve:

    L  is strictly more powerful than  Q,
    Q  is strictly more powerful than  bounded-fair S,
    bounded-fair S  is strictly more powerful than  fair S.

The *qualitative* content is in how the similarity rules differ:

* L vs Q -- processors that give the same name to the same variable can
  tell themselves apart (a lock race has exactly one winner);
* Q vs bounded-fair S -- processors can eventually learn the number of
  neighbors of each variable (a ``peek`` returns a sub-value multiset,
  whereas a ``read`` hides multiplicity);
* bounded-fair S vs fair S -- with a bound, silence is informative; under
  plain fairness a processor can never rule out that part of the system
  has not executed yet (mimicry).

This module evaluates one network+state under every model and reports the
selection decision per model, which is how the benchmarks regenerate the
paper's hierarchy table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..exceptions import WitnessRecordError
from .names import NodeId, State
from .network import Network
from .selection import SelectionDecision, decide_selection
from .system import InstructionSet, ScheduleClass, System

#: Model axis used throughout benchmarks: (label, instruction set, schedule).
MODEL_AXIS: Tuple[Tuple[str, InstructionSet, ScheduleClass], ...] = (
    ("fair-S", InstructionSet.S, ScheduleClass.FAIR),
    ("bounded-fair-S", InstructionSet.S, ScheduleClass.BOUNDED_FAIR),
    ("Q", InstructionSet.Q, ScheduleClass.FAIR),
    ("L", InstructionSet.L, ScheduleClass.FAIR),
    ("L2", InstructionSet.L2, ScheduleClass.FAIR),
)

#: The paper's claimed strict order, weakest first (L2 at least as strong as L).
POWER_ORDER: Tuple[str, ...] = ("fair-S", "bounded-fair-S", "Q", "L", "L2")


@dataclass(frozen=True)
class ModelReport:
    """Selection decisions for one network+state across all models."""

    description: str
    decisions: Mapping[str, SelectionDecision]

    def solvable_models(self) -> Tuple[str, ...]:
        return tuple(m for m in POWER_ORDER if self.decisions[m].possible)

    def respects_power_order(self) -> bool:
        """Monotonicity: if a weaker model solves selection, so must every
        stronger one.  (The hierarchy claims exactly this, plus strictness
        witnessed by *some* system per adjacent pair.)"""
        solved_weaker = False
        for model in POWER_ORDER:
            possible = self.decisions[model].possible
            if solved_weaker and not possible:
                return False
            solved_weaker = solved_weaker or possible
        return True


def selection_across_models(
    network: Network,
    state: Optional[Mapping[NodeId, State]] = None,
    description: str = "",
) -> ModelReport:
    """Decide selection for the same network+state under every model."""
    decisions: Dict[str, SelectionDecision] = {}
    for label, iset, sched in MODEL_AXIS:
        system = System(network, state, iset, sched)
        decisions[label] = decide_selection(system)
    return ModelReport(description or repr(network), decisions)


@dataclass(frozen=True)
class SeparationWitness:
    """A system separating two adjacent models in the hierarchy.

    ``weaker`` cannot solve selection on this system; ``stronger`` can.
    """

    weaker: str
    stronger: str
    report: ModelReport

    @property
    def valid(self) -> bool:
        return (
            not self.report.decisions[self.weaker].possible
            and self.report.decisions[self.stronger].possible
        )


def verify_separation(
    weaker: str,
    stronger: str,
    network: Network,
    state: Optional[Mapping[NodeId, State]] = None,
    description: str = "",
) -> SeparationWitness:
    """Package and check a claimed separation witness."""
    report = selection_across_models(network, state, description)
    return SeparationWitness(weaker, stronger, report)


# ----------------------------------------------------------------------
# Witness schemas: separations at every size
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSchema:
    """A separation witness as a function of ``n``.

    The fixed witnesses in :mod:`repro.topologies.witnesses` separate
    adjacent models at *one* size each; a schema names a symbolic family
    (:data:`repro.core.families.PARAMETRIC_FAMILIES`) every member of
    which is a witness, so the separation is a parameterized statement:
    ``instantiate(n)`` rebuilds and re-verifies the size-``n`` witness
    on demand.
    """

    weaker: str
    stronger: str
    family: str
    description: str
    min_size: int = 0  # 0: inherit the family's own min_size

    def first_size(self) -> int:
        from .families import parametric_family

        fam = parametric_family(self.family)
        return max(self.min_size, fam.min_size)

    def instantiate(self, n: int) -> SeparationWitness:
        """The size-``n`` witness, freshly re-verified."""
        from .families import parametric_family

        fam = parametric_family(self.family)
        system = fam.instantiate(n)
        return verify_separation(
            self.weaker,
            self.stronger,
            system.network,
            system.initial_state,
            f"{self.description} (n={n})",
        )

    def holds_at(self, n: int) -> bool:
        return self.instantiate(n).valid


#: Schemas known to hold at every admissible size (asserted by the
#: hypothesis suite; the parametric CLI re-verifies sampled sizes).
#: The unmarked ring is deliberately absent: L cannot select on any
#: unmarked ring (relabel versions stay rotation-symmetric), so stars
#: are the all-sizes Q/L separator.
WITNESS_SCHEMAS: Tuple[WitnessSchema, ...] = (
    WitnessSchema(
        weaker="Q",
        stronger="L",
        family="star",
        description="n-leaf star: peeking leaves stay mutually similar "
        "under Q, the hub lock race has one winner under L",
    ),
)


def witness_schema(weaker: str, stronger: str) -> WitnessSchema:
    """Look up the schema separating an adjacent model pair."""
    for schema in WITNESS_SCHEMAS:
        if schema.weaker == weaker and schema.stronger == stronger:
            return schema
    pairs = sorted((s.weaker, s.stronger) for s in WITNESS_SCHEMAS)
    raise WitnessRecordError(
        f"no witness schema separates {weaker!r} from {stronger!r}; "
        f"known pairs: {pairs}"
    )


# ----------------------------------------------------------------------
# Witness records: store round-trip with canonical-form keys
# ----------------------------------------------------------------------


def _encoded_form(network: Network, state) -> bytes:
    from .encoding import encode_value
    from .quotient import canonical_form

    system = System(network, state, InstructionSet.Q, ScheduleClass.FAIR)
    return encode_value(canonical_form(system))


def _form_matches(recorded: object, network: Network, state) -> bool:
    """Does a recorded ``"b:" + hex`` canonical-form key match this
    network+state?  Any other shape matches nothing."""
    from .encoding import form_from_wire

    try:
        return form_from_wire(recorded) == _encoded_form(network, state)
    except ValueError:
        return False


def separation_witness_to_json(
    witness: SeparationWitness,
    network: Optional[Network] = None,
    state: Optional[Mapping[NodeId, State]] = None,
) -> Dict[str, object]:
    """Serialize a witness for the content store.

    With ``network`` given, the record carries a ``"b:"``-tagged
    canonical-form key so a later reader can check the record still
    describes the same system up to isomorphism.
    """
    doc: Dict[str, object] = {
        "weaker": witness.weaker,
        "stronger": witness.stronger,
        "description": witness.report.description,
        "decisions": {
            model: witness.report.decisions[model].possible
            for model in POWER_ORDER
        },
    }
    if network is not None:
        from .encoding import form_to_wire

        doc["form"] = form_to_wire(_encoded_form(network, state))
    return doc


def separation_witness_from_json(
    doc: Mapping[str, object],
    network: Optional[Network] = None,
    state: Optional[Mapping[NodeId, State]] = None,
) -> SeparationWitness:
    """Rebuild a witness record; re-verify it when the system is given.

    Without a system, the recorded decisions are trusted (marked with
    reason ``"recorded"``).  With one, selection is re-decided under
    every model and the record's decisions *and* its ``"b:" + hex``
    canonical-form key must match, else
    :class:`repro.exceptions.WitnessRecordError`.
    """
    try:
        weaker = str(doc["weaker"])
        stronger = str(doc["stronger"])
        recorded = {m: bool(doc["decisions"][m]) for m in POWER_ORDER}  # type: ignore[index]
    except (KeyError, TypeError) as exc:
        raise WitnessRecordError(
            f"malformed separation witness record: missing {exc}"
        ) from None
    description = str(doc.get("description", ""))

    if network is None:
        decisions = {
            model: SelectionDecision(
                possible=recorded[model],
                reason="recorded",
                theorem="",
            )
            for model in POWER_ORDER
        }
        return SeparationWitness(
            weaker, stronger, ModelReport(description, decisions)
        )

    form_key = doc.get("form")
    if form_key is not None and not _form_matches(form_key, network, state):
        raise WitnessRecordError(
            "separation witness record does not describe this system: "
            "canonical-form key mismatch"
        )
    report = selection_across_models(network, state, description)
    rederived = {m: report.decisions[m].possible for m in POWER_ORDER}
    if rederived != recorded:
        diffs = sorted(m for m in POWER_ORDER if rederived[m] != recorded[m])
        raise WitnessRecordError(
            f"separation witness record disagrees with re-verification "
            f"on models {diffs}"
        )
    return SeparationWitness(weaker, stronger, report)
