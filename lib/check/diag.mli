(** Structured certifier diagnostics.

    Every finding carries a stable code (the [CCDP-W...] namespace below is
    append-only: codes are never renumbered once released, so CI gates and
    suppression lists stay valid across versions), a severity derived from
    the code, a source span when the program came from CRAFT text, and the
    reference/loop/epoch context the finding is about.

    Code table:
    - [CCDP-W001] (error) — potentially-stale read neither prefetched nor
      bypassed (uncovered coherence obligation);
    - [CCDP-W002] (error) — broken cover chain: a reference points at a
      leading reference that is not a lead, has no prefetch op, or whose
      vector group omits the member;
    - [CCDP-W003] (error) — DOALL race: a loop marked parallel carries a
      cross-iteration dependence, reads an unprivatizable scalar, or
      assigns a scalar that is read after it;
    - [CCDP-W004] (warning) — spurious coverage: prefetch or bypass attached
      to a read the certifier proves clean (suppressed when the pipeline
      compiled with [prefetch_clean]);
    - [CCDP-W005] (warning) — redundant prefetch: a covered group member
      also carries its own prefetch op;
    - [CCDP-W006] (warning) — dead prefetch: the data volume touched between
      issue and use exceeds the cache, so the prefetched line is evicted
      before its reference executes;
    - [CCDP-W007] (warning) — mis-sized SP distance: shorter than the group
      span or overflowing the prefetch queue;
    - [CCDP-W008] (warning) — mis-sized VPG volume: the pulled section is
      empty, unbounded, or exceeds the vector-prefetch budget;
    - [CCDP-W009] (error) — unprotected cross-PE conflict: a same-element
      conflicting pair inside a DOALL where only one side sits in a
      critical section (lock domination cannot discharge the race);
    - [CCDP-W010] (error) — inconsistent lock domains: both sides of a
      conflicting pair are locked, but under different locks (mutual
      exclusion does not compose across locks);
    - [CCDP-W011] (error) — bogus reduction: a recognized reduction whose
      operator is not commutative-associative, whose variable is also
      written by an ordinary assignment in the same DOALL, or whose
      contributions use conflicting operators. *)

type severity = Error | Warning

type code =
  | Uncovered_stale  (** CCDP-W001 *)
  | Broken_cover  (** CCDP-W002 *)
  | Doall_race  (** CCDP-W003 *)
  | Spurious_cover  (** CCDP-W004 *)
  | Redundant_prefetch  (** CCDP-W005 *)
  | Dead_prefetch  (** CCDP-W006 *)
  | Sp_missized  (** CCDP-W007 *)
  | Vpg_missized  (** CCDP-W008 *)
  | Unprotected_conflict  (** CCDP-W009 *)
  | Inconsistent_lock  (** CCDP-W010 *)
  | Bad_reduction  (** CCDP-W011 *)

val code_string : code -> string

type t = {
  code : code;
  severity : severity;
  message : string;
  loc : Ccdp_ir.Loc.t;
  ref_id : int option;
  loop_id : int option;
  epoch : int option;
}

val make :
  code -> ?loc:Ccdp_ir.Loc.t -> ?ref_id:int -> ?loop_id:int -> ?epoch:int ->
  string -> t

val makef :
  code -> ?loc:Ccdp_ir.Loc.t -> ?ref_id:int -> ?loop_id:int -> ?epoch:int ->
  ('a, unit, string, t) format4 -> 'a

(** Report order: by source span, then code, then reference. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Append one diagnostic as a JSON object (Bench_json house style). *)
val buf : Buffer.t -> t -> unit
