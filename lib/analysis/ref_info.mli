(** Per-reference context extracted from the epoch structure.

    Every analysis phase consumes these records instead of re-walking the
    program: which epoch a reference executes in, its enclosing loop stack
    (outermost first, including serial structure loops {e around} the
    epoch), whether it sits in an innermost loop, whether it is guarded by
    an if, and its position inside the enclosing statement block (the
    moving-back budget). *)

type t = {
  ref_ : Ccdp_ir.Reference.t;
  write : bool;
  epoch : int;
  outer_serial : Ccdp_ir.Stmt.loop list;
      (** serial structure loops enclosing the whole epoch, outermost first *)
  loops : Ccdp_ir.Stmt.loop list;
      (** loops inside the epoch enclosing the reference, outermost first;
          for a parallel epoch the DOALL is the head *)
  par_loop : Ccdp_ir.Stmt.loop option;  (** the DOALL loop of a parallel epoch *)
  innermost : Ccdp_ir.Stmt.loop option;
      (** the innermost enclosing loop inside the epoch, if any *)
  in_innermost : bool;
      (** the reference sits directly in a loop that contains no other loop *)
  if_depth : int;  (** number of enclosing if-statements inside the epoch *)
  if_in_loop : bool;
      (** an if-statement sits between the innermost enclosing loop and the
          reference (paper Fig. 2 case 5: moved-back prefetches must not
          cross the branch boundary) *)
  loop_has_if : bool;  (** the innermost enclosing loop body contains ifs *)
  stmts_before : Ccdp_ir.Stmt.t list;
      (** statements preceding this one in its innermost block, nearest
          first (the moving-back window, paper Section 4.3.2); entering a
          critical section resets the window (a moved-back prefetch must
          not cross the acquire) *)
  lock : string option;
      (** the innermost enclosing critical section's lock, if any *)
}

(** All references of a partitioned program, in syntactic order. *)
val collect : Ccdp_ir.Epoch.t -> t list

(** Index by reference id. *)
val index : t list -> (int, t) Hashtbl.t

(** All loop variables in scope at the reference (outer serial + epoch
    loops), outermost first. *)
val scope_loops : t -> Ccdp_ir.Stmt.loop list
