(** Statements: assignments, loops, conditionals, procedure calls.

    Loops carry the paper's execution-model annotations directly: a loop is
    either [Serial] or a [Doall] with a scheduling strategy. Scheduling
    matters twice — it determines which PE touches which iteration (stale
    analysis, Section 4.1) and which branch of the prefetch scheduling
    algorithm applies (Fig. 2 distinguishes static from dynamic DOALLs). *)

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type sched =
  | Static_block  (** contiguous chunk of iterations per PE *)
  | Static_aligned of int
      (** CRAFT [doshared] affinity scheduling: iteration value [i] runs on
          the PE owning index [i] of a block-distributed dimension of the
          given extent — the owner-computes mapping even when the loop
          range is a sub-range of the dimension *)
  | Static_cyclic  (** iteration [i] on PE [i mod p] *)
  | Dynamic of int  (** self-scheduled chunks of the given size *)

type loop_kind = Serial | Doall of sched

type cond =
  | Icond of cmp * Affine.t * Affine.t
      (** structural comparison on induction variables / parameters:
          statically analyzable *)
  | Fcond of cmp * Fexpr.t * Fexpr.t
      (** data-dependent comparison: analyses treat both branches as
          possible *)

type t =
  | Assign of Reference.t * Fexpr.t
  | Sassign of string * Fexpr.t  (** task-private scalar assignment *)
  | For of loop
  | If of cond * t list * t list
  | Call of string * (string * Affine.t) list
      (** procedure call; the alist maps formal names to affine actuals *)
  | Critical of critical
      (** lock-protected section: on each executing PE the body runs between
          an acquire and a release of the named lock. Acquire is a
          potential-staleness frontier (data written under the same lock by
          other PEs may have newer versions than any cached copy); release
          publishes the section's writes to the next acquirer. *)
  | Reduce of reduce
      (** recognized reduction update [s = s op e]: each PE accumulates a
          task-private partial; partials are combined PE-major and broadcast
          at the enclosing DOALL's barrier *)

and critical = { lock : string; cbody : t list; cloc : Loc.t }

and reduce = {
  rop : Fexpr.binop;
  rvar : string;
  rexpr : Fexpr.t;  (** must not read [rvar] *)
  rloc : Loc.t;
}

and loop = {
  loop_id : int;
  var : string;
  lo : Bound.t;
  hi : Bound.t;
  step : int;
  kind : loop_kind;
  body : t list;
  loc : Loc.t;  (** span of the loop header; {!Loc.Synthetic} when built *)
}

val eval_cmp : cmp -> int -> int -> bool
val eval_fcmp : cmp -> float -> float -> bool

(** [fcmp_at op stack d] is [eval_fcmp op stack.(d) stack.(d + 1)],
    without boxing either operand (see {!Fexpr.binop_at}). *)
val fcmp_at : cmp -> float array -> int -> bool

(** All array reads performed by one statement, not descending into nested
    loops/ifs/calls. For [Assign], subscript evaluation itself performs no
    array reads (subscripts are affine), so this is exactly the RHS reads. *)
val direct_reads : t -> Reference.t list

(** The written reference of an [Assign], if any. *)
val direct_write : t -> Reference.t option

(** Fold over every statement in a statement list, recursively (pre-order),
    including loop bodies, both branches of ifs, but not callee bodies. *)
val fold : ('a -> t -> 'a) -> 'a -> t list -> 'a

(** Fold over every reference (with write flag), recursively. *)
val fold_refs : ('a -> write:bool -> Reference.t -> 'a) -> 'a -> t list -> 'a

(** Substitute affine expressions for variables everywhere (inlining). *)
val subst_env : t -> (string * Affine.t) list -> t

(** Re-key every reference id (cloning call sites for context sensitivity). *)
val map_ref_ids : (int -> int) -> t -> t

(** Re-key every loop id. *)
val map_loop_ids : (int -> int) -> t -> t

(** Arithmetic-operation count of the statement itself (not iterated). *)
val direct_flops : t -> int

val pp : Format.formatter -> t -> unit
val pp_list : Format.formatter -> t list -> unit
