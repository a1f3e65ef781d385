"""Parameterized verification with cutoff detection: verify once,
conclude for all n.

The paper's headline results quantify over *every* member of a topology
family -- "DP-n deadlocks", "Theorem 4 holds on every unmarked ring" --
while the explorer (:mod:`repro.analysis.explore`) checks one size at a
time.  This module lifts the per-instance machinery to symbolic families
(:class:`repro.core.families.TopologyFamily`) with the classic cutoff
recipe, mechanized the way *Regular Symmetry Patterns* mechanizes
parameterized symmetry groups:

1. **Abstract.**  Every reachable state of the size-``n`` member is
   mapped to a *counter-abstracted profile*: per (Θ-class, local state,
   halted) triple, the number of processors in that configuration, with
   counts at or above a threshold ω collapsed to "many"; variable states
   abstract their owner/poster references to Θ-class indices the same
   way.  Θ-classes themselves are named *size-independently* by
   ω-bounded refinement over the similarity quotient, so profiles of
   different sizes live in one shared alphabet.

2. **Detect.**  Each probed size runs *twice*: a **verdict run** at the
   property's own depth rule (e.g. ``2n`` -- deep enough to reach the
   DP-n deadlock) and a **structure run** collecting abstract profiles
   at a fixed ``structure_depth`` that does *not* grow with ``n``.
   Fixing the structure depth is what makes stabilization provable
   rather than hopeful: one transition moves one processor, so a
   population count seeded at ``n`` (all-initial processors, untouched
   variables) stays at least ``n - structure_depth`` -- abstracted to
   "many" whenever ``n >= structure_depth + ω``.  From that size on,
   a bounded-degree family's depth-``d`` reachable profiles mention
   only the bounded neighborhood the schedule has touched plus the
   ω-pool, so the profile *set* is literally ``n``-invariant.  Sizes
   are probed in family order (respecting ``step`` and structural
   ``period``) until a full period of consecutive sizes is
   Θ-quotient-isomorphic to its successor period -- equal abstract
   reachable structure, equal verdict, equal violation kind.  The
   first size of the stable run is the **cutoff**.

3. **Certify.**  Emit a :class:`CutoffCertificate` claiming the
   property for all admissible ``n >= cutoff``, and let
   :func:`verify_cutoff` independently re-check it at
   ``cutoff + step`` and ``cutoff + 2*step``: a fresh *unreduced*
   exploration (exact-configuration dedup, no symmetry reduction, no
   shared caches) at each size must reproduce the claimed verdict, and
   a fresh profile run must reproduce the stable fingerprint of its
   residue.

The certificate is inductive evidence in the bounded-abstraction sense,
and honest about it: ``claim`` quantifies over the explored depth rule
(e.g. ``2n+2``) and the ω used, both recorded in the JSON document.

The same stabilization loop, minus the explorer, powers
:class:`LabelingSchema`: a similarity labeling as a function of ``n``,
with the stabilization size and the per-period class-count growth
recorded, and :meth:`LabelingSchema.instantiate` delegating to the real
refinement engine at any size.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, replace
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..core.encoding import encode_value, fingerprint
from ..core.families import TopologyFamily, parametric_family
from ..core.labeling import Labeling
from ..core.quotient import quotient_system
from ..core.refinement import compute_similarity_labeling
from ..core.system import System
from ..exceptions import ParametricError
from .explore import (
    ExploreResult,
    ExploreSpec,
    explore_with_profiles,
    run_explore,
)

#: Default counter-abstraction threshold: counts 0 and 1 stay exact,
#: anything larger is "many" -- the classic 0/1/∞ counter abstraction.
#: Two is the smallest ω that separates "nobody" from "exactly one"
#: (selection!), and small ω means early stabilization: profiles are
#: provably n-invariant once n >= structure_depth + ω.
OMEGA_DEFAULT = 2

#: Default depth of the fixed-depth structure run.  Must not grow with
#: n (see the module docstring); 2 keeps the expected cutoff at
#: structure_depth + ω = 4, where the verify sizes are still cheap to
#: explore unreduced.
STRUCTURE_DEPTH_DEFAULT = 2

_MANY = "ω"


def _abs_count(count: int, omega: int) -> Hashable:
    return count if count < omega else _MANY


def abstract_value(value: Hashable, omega: int) -> Hashable:
    """ω-threshold every integer inside a state value, recursively.

    Local states and variable values may embed unbounded counters --
    meal counts, program counters, lock-order positions -- that grow
    with the exploration depth, and the depth rule grows with ``n``.
    Left alone they would make the abstract alphabet infinite and
    stabilization impossible; thresholding them is the value-level half
    of the counter abstraction (the profile counts are the other half).
    Booleans, strings and small ints pass through unchanged, so
    size-independent control states keep their identity.
    """
    if value is None or isinstance(value, (bool, str, bytes, float)):
        return value
    if isinstance(value, int):
        if -omega < value < omega:
            return value
        return (_MANY, value >= 0)
    if isinstance(value, tuple):
        return tuple(abstract_value(v, omega) for v in value)
    if isinstance(value, frozenset):
        return frozenset(abstract_value(v, omega) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.replace(
            value,
            **{
                f.name: abstract_value(getattr(value, f.name), omega)
                for f in dataclasses.fields(value)
            },
        )
    return value


# ----------------------------------------------------------------------
# depth rules
# ----------------------------------------------------------------------

_DEPTH_RE = re.compile(r"^(?:(\d*)n)?([+-]?\d+)?$")


def eval_depth(rule: str, n: int) -> int:
    """Evaluate a linear depth rule like ``"2n"``, ``"2n+2"``, ``"8"``.

    Depth bounds must travel in JSON certificates, so they are strings
    in a tiny linear grammar ``[A]n[+-B]`` rather than callables.
    """
    text = rule.replace(" ", "")
    match = _DEPTH_RE.match(text)
    if not match or text in ("", "+", "-"):
        raise ParametricError(
            f"bad depth rule {rule!r}; expected forms like '2n+2', 'n', '8'"
        )
    coeff_s, const_s = match.groups()
    coeff = 0 if "n" not in text else int(coeff_s) if coeff_s else 1
    const = int(const_s) if const_s else 0
    depth = coeff * n + const
    if depth <= 0:
        raise ParametricError(f"depth rule {rule!r} gives {depth} at n={n}")
    return depth


# ----------------------------------------------------------------------
# size-independent Θ-class structure
# ----------------------------------------------------------------------


def class_structure(
    system: System, omega: int = OMEGA_DEFAULT
) -> Tuple[Dict[Any, int], Tuple[Hashable, ...]]:
    """Name the Θ-classes of a system in a size-independent alphabet.

    Starts from the similarity quotient and colors each class with
    ``(kind, initial state, ω-abstracted size)``, then refines at most
    ω times by the ω-abstracted multiset of quotient edges in current
    colors.  Bounding the refinement is what keeps the alphabet finite
    across sizes: in a marked ring the distance-``d`` classes are
    pairwise distinguishable for every ``d``, but after ω rounds all
    classes further than ω steps from the mark share a color, so the
    color alphabet stops growing with ``n`` while still separating
    everything a bounded observer can see.

    Returns ``(node_to_index, colors)``: every node mapped to the rank
    of its class color, plus the sorted color tuple itself (the
    structural fingerprint material).  Classes sharing a color share an
    index -- a sound merge, coarser never lies.
    """
    theta = compute_similarity_labeling(system).labeling
    q = quotient_system(system, theta)

    color: Dict[Hashable, Hashable] = {}
    for label, size, state in q.pclasses:
        color[label] = ("P", state, _abs_count(size, omega))
    for label, size, state in q.vclasses:
        color[label] = ("V", state, _abs_count(size, omega))

    for _round in range(omega):
        new_color: Dict[Hashable, Hashable] = {}
        for label in color:
            incident = tuple(
                sorted(
                    (
                        ("out", e.name, repr(color[e.vlabel]), _abs_count(e.count, omega))
                        for e in q.edges
                        if e.plabel == label
                    )
                )
                + sorted(
                    (
                        ("in", e.name, repr(color[e.plabel]), _abs_count(e.count, omega))
                        for e in q.edges
                        if e.vlabel == label
                    )
                )
            )
            new_color[label] = (color[label], incident)
        if len(set(new_color.values())) == len(set(color.values())):
            # partition stopped refining; keep the pre-round colors
            # (they induce the same classes with shorter encodings)
            break
        color = new_color

    distinct = sorted({encode_value(c) for c in color.values()})
    rank = {enc: i for i, enc in enumerate(distinct)}
    node_to_index = {
        node: rank[encode_value(color[theta[node]])] for node in system.nodes
    }
    colors = tuple(distinct)
    return node_to_index, colors


class StateAbstraction:
    """Counter abstraction of exploration states for one member system.

    :meth:`profile` folds an executor snapshot
    (:meth:`repro.runtime.executor.Executor.exploration_state`) into a
    size-independent byte string: processor counts per (class, local
    state, halted) with ω-thresholding, variable states with owners and
    subvalue posters abstracted to class indices and multiplicities
    ω-thresholded.  Equal profiles across members of *different* sizes
    mean "a bounded observer cannot tell these global states apart".
    """

    def __init__(self, system: System, omega: int = OMEGA_DEFAULT) -> None:
        self.omega = omega
        node_index, colors = class_structure(system, omega)
        self.colors = colors
        self._proc_class = tuple(node_index[p] for p in system.processors)
        self._var_class = tuple(node_index[v] for v in system.variables)

    def structure_fingerprint(self) -> str:
        """Fingerprint of the initial Θ-class structure alone."""
        return fingerprint(self.colors)

    def _proc_ref(self, index: int) -> Hashable:
        return self._proc_class[index] if index >= 0 else None

    def profile_value(self, executor) -> Hashable:
        """The abstract profile as a plain value (for tests/debugging)."""
        proc_part, var_part = executor.exploration_state()
        omega = self.omega

        proc_counts: Dict[Hashable, int] = {}
        for cls, (local, halted) in zip(self._proc_class, proc_part):
            key = (cls, abstract_value(local, omega), halted)
            proc_counts[key] = proc_counts.get(key, 0) + 1
        proc_items = tuple(
            sorted(
                ((key, _abs_count(c, omega)) for key, c in proc_counts.items()),
                key=encode_value,
            )
        )

        var_counts: Dict[Hashable, int] = {}
        for cls, entry in zip(self._var_class, var_part):
            if entry[0] == "subvalue":
                _tag, base, posted = entry
                base = abstract_value(base, omega)
                sub_counts: Dict[Hashable, int] = {}
                for proc_index, val in posted:
                    sub_key = (self._proc_ref(proc_index), abstract_value(val, omega))
                    sub_counts[sub_key] = sub_counts.get(sub_key, 0) + 1
                folded = tuple(
                    sorted(
                        (
                            (sub_key, _abs_count(c, omega))
                            for sub_key, c in sub_counts.items()
                        ),
                        key=encode_value,
                    )
                )
                key = (cls, "subvalue", base, folded)
            else:
                _tag, value, locked, owner = entry
                key = (
                    cls,
                    "plain",
                    abstract_value(value, omega),
                    locked,
                    self._proc_ref(owner),
                )
            var_counts[key] = var_counts.get(key, 0) + 1
        var_items = tuple(
            sorted(
                ((key, _abs_count(c, omega)) for key, c in var_counts.items()),
                key=encode_value,
            )
        )
        return (proc_items, var_items)

    def profile(self, executor) -> bytes:
        return encode_value(self.profile_value(executor))


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PropertySpec:
    """One verifiable parameterized property.

    ``expect`` states the *claim shape*: ``"violation"`` properties
    assert every member fails the same way (DP-n deadlocks),
    ``"certified"`` properties assert every member passes to the depth
    bound.  ``k_bounded`` requests the Theorem-4 fairness restriction
    with ``k`` equal to the member's processor count.
    """

    name: str
    claim: str
    depth_rule: str
    expect: str  # "violation" | "certified"
    invariants: Tuple[str, ...] = ()
    check_deadlock: bool = True
    k_bounded: bool = False
    violation_kind: Optional[str] = None  # required shape when expect=violation


PROPERTIES: Dict[str, PropertySpec] = {
    "deadlock": PropertySpec(
        name="deadlock",
        claim="reaches the circular-hold deadlock in every member",
        depth_rule="2n",
        expect="violation",
        violation_kind="deadlock",
    ),
    "deadlock-free": PropertySpec(
        name="deadlock-free",
        claim="no deadlock, exclusion breach, or stuck schedule to the "
        "depth bound in any member",
        # A constant bound, not "2n": the claim is bounded-depth freedom
        # for every size, and a constant keeps the unreduced verify runs
        # at cutoff+step and cutoff+2*step affordable on large members.
        depth_rule="6",
        expect="certified",
        invariants=("exclusion",),
    ),
    "lockstep": PropertySpec(
        name="lockstep",
        claim="Θ-classes stay state-uniform at every balanced point of "
        "every k-bounded schedule (Theorem 4, sharpened)",
        depth_rule="2n",
        expect="certified",
        invariants=("lockstep",),
        check_deadlock=False,
        k_bounded=True,
    ),
}


def property_spec(name: str) -> PropertySpec:
    try:
        return PROPERTIES[name]
    except KeyError:
        raise ParametricError(
            f"unknown property {name!r}; pick from {sorted(PROPERTIES)}"
        ) from None


def member_explore_spec(
    family: TopologyFamily, prop: PropertySpec, n: int
) -> ExploreSpec:
    """The exploration spec of one member under one property."""
    scenario = family.scenario(n)
    system = family.instantiate(n)
    k = len(system.processors) if prop.k_bounded else None
    return ExploreSpec(
        scenario=scenario,
        max_depth=eval_depth(prop.depth_rule, n),
        fairness="k-bounded" if prop.k_bounded else "none",
        k=k,
        invariants=prop.invariants,
        probes=(),
        check_deadlock=prop.check_deadlock,
    )


# ----------------------------------------------------------------------
# cutoff detection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SizeRecord:
    """What one explored size contributed to cutoff detection.

    ``depth``/``unique_states`` describe the verdict run (the property's
    own depth rule); ``structure_depth``/``profile_count`` describe the
    fixed-depth structure run whose profile set feeds the fingerprint.
    """

    size: int
    verdict: str
    violation_kind: Optional[str]
    unique_states: int
    profile_count: int
    depth: int
    structure_depth: int
    fingerprint: str  # abstract reachable structure + verdict shape

    def to_json(self) -> Dict[str, Any]:
        return {
            "size": self.size,
            "verdict": self.verdict,
            "violation_kind": self.violation_kind,
            "unique_states": self.unique_states,
            "profile_count": self.profile_count,
            "depth": self.depth,
            "structure_depth": self.structure_depth,
            "fingerprint": self.fingerprint,
        }


@dataclass(frozen=True)
class CutoffCertificate:
    """A "holds for all n >= cutoff" certificate.

    The certificate is exactly as strong as its ingredients, all of
    which it records: the property's depth rule (claims are bounded-
    depth claims), the abstraction threshold ω, the structural period,
    and the per-size records whose fingerprint run stabilized.  The
    soundness argument is the standard cutoff induction: once a full
    period of consecutive sizes is Θ-quotient-isomorphic (in the
    ω-bounded abstract alphabet) to the next period, larger members
    keep reproducing the same abstract reachable structure, so the
    verdict -- a function of that structure -- is size-invariant from
    the cutoff on.  :func:`verify_cutoff` spot-checks the induction
    base independently.
    """

    family: str
    property: str
    cutoff: int
    period: int
    step: int
    omega: int
    structure_depth: int
    depth_rule: str
    verdict: str
    violation_kind: Optional[str]
    stable_fingerprints: Tuple[str, ...]  # one per residue in the period
    records: Tuple[SizeRecord, ...]

    @property
    def claim(self) -> str:
        prop = property_spec(self.property)
        sizes = (
            f"all n >= {self.cutoff}"
            if self.step == 1
            else f"all n >= {self.cutoff} with n ≡ {self.cutoff % self.step} (mod {self.step})"
        )
        return (
            f"{self.family}: {prop.claim} -- for {sizes}, "
            f"to depth {self.depth_rule} (ω={self.omega})"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "property": self.property,
            "cutoff": self.cutoff,
            "period": self.period,
            "step": self.step,
            "omega": self.omega,
            "structure_depth": self.structure_depth,
            "depth_rule": self.depth_rule,
            "verdict": self.verdict,
            "violation_kind": self.violation_kind,
            "stable_fingerprints": list(self.stable_fingerprints),
            "claim": self.claim,
            "records": [r.to_json() for r in self.records],
        }


def _size_record(
    family: TopologyFamily,
    spec: ExploreSpec,
    n: int,
    omega: int,
    structure_depth: int,
    result: ExploreResult,
) -> SizeRecord:
    """The record of size ``n`` from its verdict run ``result``.

    ``spec`` is the member's exploration spec; ``result`` is a run of it
    at the property's own depth rule — symmetry-reduced in detection,
    unreduced in verification — and supplies the verdict.
    """
    violation_kind = None if result.violation is None else result.violation.kind
    # Structure run: fixed depth, so the abstract profile set can
    # stabilize across sizes (see the module docstring).
    system = family.instantiate(n)
    abstraction = StateAbstraction(system, omega)
    _, profiles = explore_with_profiles(
        replace(spec, max_depth=structure_depth), abstraction.profile
    )
    reachable = tuple(sorted(set(profiles)))
    fp = fingerprint(
        (
            abstraction.structure_fingerprint(),
            reachable,
            result.verdict,
            violation_kind,
            None if result.violation is None else result.violation.invariant,
        )
    )
    return SizeRecord(
        size=n,
        verdict=result.verdict,
        violation_kind=violation_kind,
        unique_states=result.unique_states,
        profile_count=len(reachable),
        depth=spec.max_depth,
        structure_depth=structure_depth,
        fingerprint=fp,
    )


def _check_claim_shape(prop: PropertySpec, record: SizeRecord) -> None:
    if prop.expect == "violation":
        if record.verdict != "violation" or (
            prop.violation_kind is not None
            and record.violation_kind != prop.violation_kind
        ):
            raise ParametricError(
                f"property {prop.name!r} expects every member to fail with "
                f"{prop.violation_kind!r}, but size {record.size} produced "
                f"verdict {record.verdict!r} "
                f"(violation kind {record.violation_kind!r}); "
                "this family does not satisfy the property uniformly"
            )
    else:
        if record.verdict != "certified":
            raise ParametricError(
                f"property {prop.name!r} expects every member certified, but "
                f"size {record.size} produced verdict {record.verdict!r} "
                f"(violation kind {record.violation_kind!r})"
            )


def detect_cutoff(
    family_name: str,
    property_name: str,
    start: Optional[int] = None,
    max_sizes: int = 8,
    omega: int = OMEGA_DEFAULT,
    structure_depth: int = STRUCTURE_DEPTH_DEFAULT,
) -> CutoffCertificate:
    """Explore sizes until the abstract reachable structure stabilizes.

    Sizes are probed in family order; stabilization at index ``i``
    means every size in the period starting there has the same
    fingerprint as its successor one period later.  Raises
    :class:`~repro.exceptions.ParametricError` if the verdict is not
    uniform across probed sizes or nothing stabilizes within
    ``max_sizes``.
    """
    family = parametric_family(family_name)
    prop = property_spec(property_name)
    period = max(1, family.period)
    if max_sizes < 2 * period:
        raise ParametricError(
            f"max_sizes={max_sizes} cannot cover two periods of "
            f"{period} size(s); raise it to at least {2 * period}"
        )
    sizes = family.sizes(max_sizes, start)
    records: List[SizeRecord] = []
    for i, n in enumerate(sizes):
        spec = member_explore_spec(family, prop, n)
        # Verdict run: the property's own depth rule, symmetry-reduced.
        verdict_run = run_explore(spec, workers=0)
        records.append(
            _size_record(family, spec, n, omega, structure_depth, verdict_run)
        )
        _check_claim_shape(prop, records[-1])
        # stabilized at index i0 if records i0..i0+period-1 each match
        # the record one period later -- needs i >= i0 + 2*period - 1
        i0 = i - 2 * period + 1
        if i0 < 0:
            continue
        if all(
            records[i0 + j].fingerprint == records[i0 + period + j].fingerprint
            for j in range(period)
        ):
            stable = records[: i0 + 2 * period]
            return CutoffCertificate(
                family=family_name,
                property=property_name,
                cutoff=records[i0].size,
                period=period,
                step=family.step,
                omega=omega,
                structure_depth=structure_depth,
                depth_rule=prop.depth_rule,
                verdict=records[i0].verdict,
                violation_kind=records[i0].violation_kind,
                stable_fingerprints=tuple(
                    records[i0 + j].fingerprint for j in range(period)
                ),
                records=tuple(stable),
            )
    raise ParametricError(
        f"family {family_name!r} did not stabilize for property "
        f"{property_name!r} within sizes {list(sizes)}; the abstract "
        f"reachable structure is still changing (raise max_sizes or ω)"
    )


def verify_cutoff(
    certificate: CutoffCertificate, extra_sizes: int = 2
) -> Optional[str]:
    """Independently re-check a certificate above its cutoff.

    For the ``extra_sizes`` admissible sizes directly above the cutoff
    (``cutoff + step``, ``cutoff + 2*step``, ...), (a) a fresh
    *unreduced* exploration (exact dedup, no symmetry reduction -- a
    different engine mode than detection used) must reproduce the
    certified verdict and violation kind, and (b) a fresh profile run,
    fingerprinted with that unreduced verdict, must land on the stable
    fingerprint of the matching residue.  Each size thus runs one
    verdict search and one structure search.
    Returns ``None`` on success or a message naming the first mismatch
    (the :func:`repro.analysis.explore.verify_counterexample`
    convention).
    """
    family = parametric_family(certificate.family)
    prop = property_spec(certificate.property)
    for j in range(1, extra_sizes + 1):
        n = certificate.cutoff + j * certificate.step
        spec = member_explore_spec(family, prop, n)
        unreduced = run_explore(replace(spec, symmetry=False), workers=0)
        kind = None if unreduced.violation is None else unreduced.violation.kind
        if unreduced.verdict != certificate.verdict or kind != certificate.violation_kind:
            return (
                f"unreduced re-check at n={n} returned verdict "
                f"{unreduced.verdict!r} (violation kind {kind!r}), but the "
                f"certificate promises {certificate.verdict!r} "
                f"({certificate.violation_kind!r})"
            )
        record = _size_record(
            family, spec, n, certificate.omega, certificate.structure_depth,
            unreduced,
        )
        index = (n - certificate.cutoff) // certificate.step
        expected = certificate.stable_fingerprints[index % certificate.period]
        if record.fingerprint != expected:
            return (
                f"abstract structure at n={n} has fingerprint "
                f"{record.fingerprint}, but the certificate's stable "
                f"fingerprint for its residue is {expected}"
            )
    return None


# ----------------------------------------------------------------------
# labeling schemas: similarity labelings as functions of n
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LabelingSchema:
    """A similarity labeling as a function of ``n``.

    Records where the ω-bounded class structure stabilized and how the
    class *count* grows from there (``slope`` classes per period --
    constant growth is what "the labeling is a function of n" means
    mechanically).  :meth:`instantiate` always delegates to the real
    refinement engine, so the schema can never drift from the ground
    truth it summarizes; what the schema adds is the *prediction*
    (:meth:`predicted_classes`) and the stabilization evidence.
    """

    family: str
    omega: int
    period: int
    step: int
    stabilized_at: int  # size where the fingerprint run starts
    checked_to: int  # largest size probed
    stable_fingerprints: Tuple[str, ...]  # per residue in the period
    base_counts: Tuple[int, ...]  # class counts at the stabilization period
    slope: int  # class-count growth per period

    def instantiate(self, n: int) -> Labeling:
        """The real similarity labeling of the size-``n`` member."""
        family = parametric_family(self.family)
        return compute_similarity_labeling(family.instantiate(n)).labeling

    def class_count(self, n: int) -> int:
        """Ground truth: distinct similarity classes at size ``n``."""
        return len(self.instantiate(n).labels)

    def predicted_classes(self, n: int) -> int:
        """The affine prediction for ``n`` at or above the cutoff."""
        if n < self.stabilized_at:
            raise ParametricError(
                f"size {n} is below the schema's stabilization size "
                f"{self.stabilized_at}; instantiate it directly instead"
            )
        index = (n - self.stabilized_at) // self.step
        residue = index % self.period
        periods = index // self.period
        return self.base_counts[residue] + self.slope * periods

    def to_json(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "omega": self.omega,
            "period": self.period,
            "step": self.step,
            "stabilized_at": self.stabilized_at,
            "checked_to": self.checked_to,
            "stable_fingerprints": list(self.stable_fingerprints),
            "base_counts": list(self.base_counts),
            "slope": self.slope,
        }


def compute_labeling_schema(
    family_name: str,
    start: Optional[int] = None,
    max_sizes: int = 8,
    omega: int = OMEGA_DEFAULT,
) -> LabelingSchema:
    """Run partition refinement at increasing n until the ω-bounded
    class structure stabilizes; emit the labeling-as-a-function-of-n.

    Stabilization requires a full period of sizes whose structural
    fingerprints equal their successors one period later *and* whose
    class counts grow by a constant per period from there on.
    """
    family = parametric_family(family_name)
    period = max(1, family.period)
    if max_sizes < 2 * period + 1:
        raise ParametricError(
            f"max_sizes={max_sizes} cannot witness constant growth over "
            f"period {period}; raise it to at least {2 * period + 1}"
        )
    sizes = family.sizes(max_sizes, start)
    fps: List[str] = []
    counts: List[int] = []
    for n in sizes:
        system = family.instantiate(n)
        node_index, colors = class_structure(system, omega)
        theta = compute_similarity_labeling(system).labeling
        fps.append(fingerprint(colors))
        counts.append(len(theta.labels))

    total = len(sizes)
    for i0 in range(total - 2 * period):
        fp_stable = all(
            fps[j] == fps[j + period] for j in range(i0, total - period)
        )
        if not fp_stable:
            continue
        slopes = {
            counts[j + period] - counts[j] for j in range(i0, total - period)
        }
        if len(slopes) != 1:
            continue
        return LabelingSchema(
            family=family_name,
            omega=omega,
            period=period,
            step=family.step,
            stabilized_at=sizes[i0],
            checked_to=sizes[-1],
            stable_fingerprints=tuple(fps[i0 + j] for j in range(period)),
            base_counts=tuple(counts[i0 + j] for j in range(period)),
            slope=slopes.pop(),
        )
    raise ParametricError(
        f"family {family_name!r} labeling structure did not stabilize "
        f"within sizes {list(sizes)} (ω={omega}); raise max_sizes or ω"
    )


# ----------------------------------------------------------------------
# the full parametric run (CLI entry)
# ----------------------------------------------------------------------


def run_parametric(
    family_name: str,
    property_name: str,
    start: Optional[int] = None,
    max_sizes: int = 8,
    omega: int = OMEGA_DEFAULT,
    structure_depth: int = STRUCTURE_DEPTH_DEFAULT,
    verify_extra: int = 2,
    schema: bool = True,
) -> Dict[str, Any]:
    """Detect a cutoff, independently verify it, and (optionally)
    compute the labeling schema; returns the JSON report document."""
    certificate = detect_cutoff(
        family_name,
        property_name,
        start=start,
        max_sizes=max_sizes,
        omega=omega,
        structure_depth=structure_depth,
    )
    verify_error = verify_cutoff(certificate, extra_sizes=verify_extra)
    doc: Dict[str, Any] = {
        "certificate": certificate.to_json(),
        "verify_cutoff": {
            "extra_sizes": verify_extra,
            "confirmed": verify_error is None,
            "error": verify_error,
        },
    }
    if schema:
        doc["labeling_schema"] = compute_labeling_schema(
            family_name, start=start, max_sizes=max_sizes, omega=omega
        ).to_json()
    return doc
