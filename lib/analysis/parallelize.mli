(** Polaris-style automatic loop parallelization, and the one loop
    dependence test of the system.

    The paper's methodology starts from sequential Fortran: "We first
    parallelize the application codes using the Polaris compiler" (Section
    5.2). This pass reproduces the relevant slice of that substrate: a
    dependence test over affine subscripts plus scalar privatization,
    promoting serial loops with no loop-carried dependences to DOALLs. The
    static certifier's race check ([Ccdp_check.Race]) judges every DOALL
    with the same pieces: {!scalar_flow}, {!live_outs} and {!conflicts}.

    The dependence test, per pair of same-array references with at least
    one write, examines every dimension:
    - equal subscripts with zero coefficient on the loop variable and
      different constants can never alias ({e disjoint} — kills the pair);
    - a non-zero coefficient with a constant offset gives the classic
      strong-SIV distance: zero distance means same-iteration only (also
      kills the carried dependence), a non-integer distance or one that is
      no multiple of the loop step means no dependence, a distance below
      trip count × step means a carried dependence;
    - these two assume every other variable equal in the two iterations,
      true of the enclosing loops' variables only: a dimension that uses
      the variable of a loop nested in the judged one ([A(i+j)] judged on
      [j]) pins nothing, and goes to the range test unless both sides are
      one expression free of the judged variable;
    - non-uniform subscripts get a Banerjee-style range test: the two
      accesses are independent instances, so each side is narrowed to its
      extreme values by substituting the bounds of its own loops (innermost
      first, picked by coefficient sign), and the pair is disjoint when the
      difference range excludes zero. This proves triangular patterns like
      writing columns [k+1..n-1] while reading column [k] disjoint;
    - anything else is conservatively a dependence unless another dimension
      kills the pair.

    A scalar blocks parallelization unless it is {e privatizable}: written
    before read on every path through one iteration (each task then gets a
    private copy — which the execution model's per-PE scalar environments
    provide). A nested serial loop runs within one task, so a temporary it
    defines and then uses is privatizable. Recognized reductions are
    merged at the barrier; the parallelizer recognizes none of its own.

    A privatizable scalar must also not be {e live out}: after the loop
    only one PE's last value survives, so a read that can run after the
    loop (later in the enclosing blocks, or on the next trip of an
    enclosing serial loop) before a definite write sees the wrong value.

    Only outermost qualifying serial loops are promoted (the epoch model
    runs one level of parallelism). *)

type verdict =
  | Parallel
  | Carried of { array_name : string; distance : int option }
      (** a loop-carried data dependence (distance [None] = unknown) *)
  | Scalar_flow of string  (** scalar read before written in an iteration *)
  | Live_out of string  (** scalar the loop writes is read after it *)
  | Has_doall  (** already contains parallelism *)
  | Has_calls  (** inline first *)

(** Judge one loop in the context of enclosing loops (outermost first);
    [live_out] is the scalar {!live_outs} finds for it, if any. *)
val judge :
  params:(string * int) list ->
  outer:Ccdp_ir.Stmt.loop list ->
  live_out:string option ->
  Ccdp_ir.Stmt.loop ->
  verdict

type report = {
  promoted : (int * string) list;  (** loop id, variable *)
  rejected : (int * string * verdict) list;
}

(** Promote every outermost parallelizable serial loop of the (call-free)
    main body to a DOALL, scheduled aligned to the loop's constant extent
    when it resolves, else static block. *)
val transform : Ccdp_ir.Program.t -> Ccdp_ir.Program.t * report

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 The pieces the race check shares} *)

(** The first scalar a loop body reads before writing it in one iteration,
    if any. *)
val scalar_flow : Ccdp_ir.Stmt.t list -> string option

(** Every loop of a (call-free) body, DOALL bodies not entered, that
    assigns a scalar (reduction variables aside) which a later read can
    see before a definite write: (loop id, first such scalar). *)
val live_outs : Ccdp_ir.Stmt.t list -> (int * string) list

(** One array reference of a loop body, with the loops it iterates in (the
    judged loop outermost) and the lock of its innermost enclosing
    critical section. *)
type access = {
  write : bool;
  ref_ : Ccdp_ir.Reference.t;
  loops : Ccdp_ir.Stmt.loop list;
  lock : string option;
}

(** [conflicts ~params ~outer l]: every ordered pair of [l]'s accesses to
    one array, at least one a write, that may touch the same element in
    different iterations of [l], in syntactic order, with the carried
    distance when it is a known constant. Locks are recorded, not
    judged. *)
val conflicts :
  params:(string * int) list ->
  outer:Ccdp_ir.Stmt.loop list ->
  Ccdp_ir.Stmt.loop ->
  (access * access * int option) list
