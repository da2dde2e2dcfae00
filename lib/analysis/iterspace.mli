(** Iteration-space environments.

    Maps every in-scope variable to a value triplet [(lo, hi, step)]: loop
    variables to their (possibly outer-variable-dependent, hence widened)
    ranges, program parameters to point triplets. Feeding such an
    environment to {!Ccdp_ir.Section.of_subscripts} yields the array region
    a reference touches; restricting the parallel variable to one PE's
    schedule triplet yields the per-PE region. *)

type env = (string * (int * int * int)) list

(** Environment of a loop stack (outermost first) on top of the program
    parameters. A loop whose bounds cannot be resolved contributes nothing
    (downstream sections widen to [Whole]). *)
val of_loops : params:(string * int) list -> Ccdp_ir.Stmt.loop list -> env

(** Evaluate a bound to its extreme values under an environment:
    [(min, max)]; [None] when unknown. *)
val bound_range : Ccdp_ir.Bound.t -> env -> (int * int) option

(** Numeric range [(min, max)] of an affine expression under an
    environment, by interval arithmetic over each variable's [(lo, hi)];
    [None] when a variable is unbound (an unresolved or opaque bound). *)
val affine_range : env -> Ccdp_ir.Affine.t -> (int * int) option

(** Numeric trip count of a loop under an environment, using the widest
    bounds; [None] when either bound is unknown. *)
val trip_count : Ccdp_ir.Stmt.loop -> env -> int option

(** [restrict env loop ~by] rebinds the loop variable to the given value
    triplet. *)
val restrict : env -> Ccdp_ir.Stmt.loop -> by:int * int * int -> env

(** Outcome of restricting a loop to one PE. [Exact] means the environment
    precisely describes the PE's iterations; [Widened] means the PE {e may}
    run any iteration (dynamic schedules, unresolvable bounds) — usable for
    may-analyses only, never as a must-set. *)
type restriction = Idle | Exact of env | Widened of env

val restrict_pe_info :
  env -> Ccdp_ir.Stmt.loop -> n_pes:int -> pe:int -> restriction

(** Per-PE environment for a static DOALL: the parallel variable is
    restricted to the PE's schedule triplet. [None] when the PE receives no
    iterations; falls back to the unrestricted environment for dynamic
    schedules or non-constant bounds (conservative may-set). *)
val restrict_pe :
  env -> Ccdp_ir.Stmt.loop -> n_pes:int -> pe:int -> env option

(** Rebind loops other than [inner] to point ranges at their lower bound:
    the environment of a {e single} execution of the inner loop (used for
    prefetch capacity checks, which are per-visit). *)
val pin_outer : env -> inner:Ccdp_ir.Stmt.loop -> Ccdp_ir.Stmt.loop list -> env
