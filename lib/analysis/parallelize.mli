(** Polaris-style automatic loop parallelization.

    The paper's methodology starts from sequential Fortran: "We first
    parallelize the application codes using the Polaris compiler" (Section
    5.2). This pass reproduces the relevant slice of that substrate: a
    ZIV/strong-SIV dependence test over affine subscripts plus scalar
    privatization, promoting serial loops with no loop-carried dependences
    to DOALLs.

    The dependence test, per pair of same-array references with at least
    one write, examines every dimension:
    - equal subscripts with zero coefficient on the loop variable and
      different constants can never alias ({e disjoint} — kills the pair);
    - a non-zero coefficient with a constant offset gives the classic
      strong-SIV distance: zero distance means same-iteration only (also
      kills the carried dependence), a non-integer distance means no
      dependence, an integer distance within the trip count means a carried
      dependence;
    - anything non-uniform is conservatively a dependence unless another
      dimension kills the pair.

    A scalar blocks parallelization unless it is {e privatizable}: written
    before read on every path through one iteration (each task then gets a
    private copy — which the execution model's per-PE scalar environments
    provide). Reductions are not recognized (future work in Polaris terms).

    Only outermost qualifying serial loops are promoted (the epoch model
    runs one level of parallelism). *)

type verdict =
  | Parallel
  | Carried of { array_name : string; distance : int option }
      (** a loop-carried data dependence (distance [None] = unknown) *)
  | Scalar_flow of string  (** scalar read before written in an iteration *)
  | Has_doall  (** already contains parallelism *)
  | Has_calls  (** inline first *)

(** Judge one loop in the context of enclosing loops (outermost first). *)
val judge :
  params:(string * int) list ->
  outer:Ccdp_ir.Stmt.loop list ->
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
