"""Reference orbit canonicalizer: the oracle for the stabilizer chain.

:class:`OrbitCanonicalizer` enumerates the automorphism group once per
system (optionally truncated -- soundness does not depend on closure,
only dedup strength does: every permutation applied maps reachable
states to reachable states, so ``canonical(x) == canonical(y)`` always
means ``x`` and ``y`` are in the same orbit) and canonicalizes a state by
taking the least image under the enumerated permutations, comparing
encoded byte forms (:mod:`repro.core.encoding`) so heterogeneous state
values are ordered totally and type-stably.  It is transparent but
linear in |Aut| per state; uncapped, it induces exactly the orbit
equivalence that
:class:`repro.core.orbits.StabilizerChainCanonicalizer` must reproduce.
"""

from typing import List, Optional, Sequence, Tuple

from repro.core.automorphism import iter_automorphisms
from repro.core.encoding import encode_value
from repro.core.orbits import ProcVector
from repro.core.system import System


class OrbitCanonicalizer:
    """Canonicalize exploration states under the automorphism group.

    Args:
        system: the system whose automorphisms are enumerated.
        limit: cap on the number of enumerated automorphisms (the group
            can be large); truncation weakens deduplication but never
            merges states from different orbits.
    """

    def __init__(self, system: System, limit: Optional[int] = 2000) -> None:
        self.system = system
        procs = tuple(system.processors)
        variables = tuple(system.variables)
        pindex = {p: i for i, p in enumerate(procs)}
        vindex = {v: i for i, v in enumerate(variables)}
        # Per permutation: where each output slot reads from, plus the
        # inverse processor rename for embedded owner/poster indices.
        self._perms: List[Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]] = []
        count = 0
        truncated = False
        # Enumerate one element past the cap: a group of exactly `limit`
        # elements is complete, not truncated — only an extra element
        # proves the enumeration was cut short.
        peek = None if limit is None else limit + 1
        for sigma in iter_automorphisms(system, limit=peek):
            if limit is not None and count == limit:
                truncated = True
                break
            psrc = tuple(pindex[sigma[p]] for p in procs)
            vsrc = tuple(vindex[sigma[v]] for v in variables)
            inverse = {sigma[p]: p for p in procs}
            prename = tuple(pindex[inverse[p]] for p in procs)
            self._perms.append((psrc, vsrc, prename))
            count += 1
        self.group_size = count
        self.truncated = truncated

    def _apply(
        self,
        perm: Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]],
        proc_part: Tuple[object, ...],
        var_part: Tuple[object, ...],
        vectors: Tuple[ProcVector, ...],
    ) -> Tuple[object, ...]:
        psrc, vsrc, prename = perm
        new_procs = tuple(proc_part[i] for i in psrc)
        new_vars: List[object] = []
        for j in vsrc:
            entry = var_part[j]
            if entry[0] == "plain":
                _kind, value, locked, owner = entry
                new_vars.append(
                    ("plain", value, locked, prename[owner] if owner >= 0 else -1)
                )
            else:  # ("subvalue", base, ((proc_index, value), ...))
                _kind, base, items = entry
                new_vars.append(
                    (
                        "subvalue",
                        base,
                        tuple(sorted((prename[i], val) for i, val in items)),
                    )
                )
        new_vectors = tuple(tuple(vec[i] for i in psrc) for vec in vectors)
        return (new_procs, tuple(new_vars), new_vectors)

    def canonical(
        self,
        proc_part: Tuple[object, ...],
        var_part: Tuple[object, ...],
        vectors: Sequence[ProcVector] = (),
    ) -> Tuple[object, ...]:
        """The least orbit member, compared by canonical byte encoding.

        The old ``repr``-string comparison ordered numeric values as text
        (``"10" < "2"``) and tied the canonical choice to repr
        formatting; :func:`repro.core.encoding.encode_value` is total,
        type-stable, and numeric for machine-size ints.
        """
        vectors = tuple(vectors)
        best = None
        best_key = None
        for perm in self._perms:
            candidate = self._apply(perm, proc_part, var_part, vectors)
            candidate_key = encode_value(candidate)
            if best_key is None or candidate_key < best_key:
                best = candidate
                best_key = candidate_key
        if best is None:  # no automorphism enumerated (cannot happen: identity)
            return (proc_part, var_part, vectors)
        return best
