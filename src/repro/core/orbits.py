"""Θ-orbit canonicalization of execution states (symmetry reduction).

The similarity labeling Θ is an isomorphism invariant: every automorphism
of the system graph permutes nodes *within* Θ classes.  Because the
paper's programs are anonymous and deterministic, an automorphism ``σ``
also commutes with the step relation -- if configuration ``c`` steps to
``c'`` when processor ``p`` runs, then ``σ·c`` steps to ``σ·c'`` when
``σ(p)`` runs.  Two configurations in the same orbit therefore have
isomorphic futures, and a state-space search may identify them: this is
classic symmetry reduction (Clarke/Emerson/Jha; Ip/Dill), with Θ playing
its usual role of bounding the candidate permutations.

:class:`StabilizerChainCanonicalizer` walks a Schreier–Sims stabilizer
chain (:func:`repro.core.automorphism.stabilizer_chain`) instead of
enumerating the group: a greedy minimal-image search fixes one processor
slot at a time, keeping only the candidate cosets that minimize the
rendered slot and deduplicating candidates whose full rendered images
coincide.  It is exact for the whole group -- polynomial per state even
for star topologies whose groups are factorial -- and its output is the
flat canonical *byte key* the engines hash, share and compare.  The
tests check it against an enumerating canonicalizer that takes the least
encoded image over every automorphism (``tests/core/reference_orbits.py``).

States are the executor's *exploration states*
(:meth:`repro.runtime.executor.Executor.exploration_state`): processor
entries positional in ``system.processors`` order, variable entries
positional in ``system.variables`` order, with embedded processor
references (lock owners, subvalue posters) encoded as processor indices.
A permutation acts by permuting both node axes and renaming the embedded
indices through the inverse processor map.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .automorphism import StabilizerChain, stabilizer_chain
from .encoding import StateEncoder
from .system import System

#: A processor-indexed vector riding along with the execution state
#: (fairness deadline ages, per-processor step counts, ...); permuted on
#: the processor axis exactly like the local-state part.
ProcVector = Tuple[object, ...]


class StabilizerChainCanonicalizer:
    """Exact canonical byte keys via a Schreier–Sims stabilizer chain.

    ``canonical_key`` returns the minimum, over the whole automorphism
    group, of the flat byte rendering of the permuted state — without
    ever enumerating the group.  The search walks the chain's base
    points (processors, in slot order): at each level every frontier
    candidate is extended by every coset representative of the level's
    transversal, only extensions minimizing that output slot survive,
    and survivors whose *complete* rendered images coincide are merged
    (if two prefix permutations render the whole state identically, all
    their extensions do too, so keeping one loses nothing — this is what
    keeps uniform states on factorial star groups polynomial).

    Isolated variables (no processor neighbors) permute freely within
    similarity classes; rendering sorts those slots within each class,
    which is the exact minimum over that symmetric factor.

    The key is deterministic across processes and ``PYTHONHASHSEED``
    values, and key equality is exactly orbit equivalence.
    """

    def __init__(
        self,
        system: System,
        encoder: Optional[StateEncoder] = None,
        chain: Optional[StabilizerChain] = None,
    ) -> None:
        self.system = system
        self.encoder = encoder if encoder is not None else StateEncoder(system)
        self.chain = chain if chain is not None else stabilizer_chain(system)
        self.group_size = self.chain.order
        self._identity = (
            tuple(range(self.chain.n_procs)),
            tuple(range(self.chain.n_vars)),
        )

    def _render(
        self,
        parr: Tuple[int, ...],
        varr: Tuple[int, ...],
        pslots: Tuple[bytes, ...],
        ventries: Tuple[tuple, ...],
    ) -> bytes:
        """The flat byte key of the state permuted by ``(parr, varr)``."""
        inv = [0] * len(parr)
        for outpos, img in enumerate(parr):
            inv[img] = outpos
        slots = [pslots[img] for img in parr]
        render_var = self.encoder.render_var
        pos = inv.__getitem__
        var_slots = [render_var(ventries[img], pos) for img in varr]
        for members in self.chain.isolated_classes:
            # Transversal elements are the identity on isolated
            # variables, so output slot j of an isolated variable is j
            # itself: minimizing over the free Sym(class) factor is
            # sorting the rendered slots within the class.
            rendered = sorted(var_slots[j] for j in members)
            for j, blob in zip(members, rendered):
                var_slots[j] = blob
        slots.extend(var_slots)
        return self.encoder.join_slots(slots)

    def canonical_key(
        self,
        proc_part: Tuple[object, ...],
        var_part: Tuple[object, ...],
        vectors: Sequence[ProcVector] = (),
    ) -> bytes:
        """The least encoded orbit member (exact minimal image)."""
        pslots = self.encoder.proc_slots(proc_part, tuple(vectors))
        ventries = self.encoder.var_entries(var_part)
        frontier = [self._identity]
        for level in self.chain.levels:
            if len(level.transversal) == 1 and len(frontier) == 1:
                continue
            i = level.point_index
            best_slot = None
            extensions: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
            for gp, gv in frontier:
                for up, uv in level.transversal.values():
                    comp = (
                        tuple(gp[x] for x in up),
                        tuple(gv[x] for x in uv),
                    )
                    blob = pslots[comp[0][i]]
                    # Slots are length-prefixed in the final key, so the
                    # induced per-slot order is (length, bytes).
                    slot = (len(blob), blob)
                    if best_slot is None or slot < best_slot:
                        best_slot = slot
                        extensions = [comp]
                    elif slot == best_slot:
                        extensions.append(comp)
            if len(extensions) > 1:
                merged: Dict[bytes, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
                for comp in extensions:
                    image = self._render(comp[0], comp[1], pslots, ventries)
                    if image not in merged:
                        merged[image] = comp
                frontier = list(merged.values())
            else:
                frontier = extensions
        return min(
            self._render(gp, gv, pslots, ventries) for gp, gv in frontier
        )
