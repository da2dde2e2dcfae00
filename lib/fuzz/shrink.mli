(** Greedy minimization of failing fuzz descriptions.

    Shrinking operates on {!Gen.desc} (never on lowered IR), so every
    candidate is well-formed by construction. The strategy is standard
    delta-debugging: propose one-step simplifications in decreasing order
    of aggressiveness, keep the first candidate on which the failure
    predicate still holds, and iterate to a fixpoint. *)

(** One-step simplifications of a description, most aggressive first
    (structure removal before parameter flattening). *)
val candidates : Gen.desc -> Gen.desc list

(** [minimize d ~still_fails] greedily shrinks [d] while preserving
    [still_fails]; the result is one-step minimal: no candidate of the
    returned description fails. Candidates are re-checked with
    {!Gen.validate} before the predicate sees them (invalid ones are
    skipped without consuming budget), and a predicate that raises on a
    candidate counts as not failing — minimization never crashes and never
    walks into an ill-formed description. [still_fails d] must be
    deterministic. At most 400 predicate evaluations are made. *)
val minimize : Gen.desc -> still_fails:(Gen.desc -> bool) -> Gen.desc
