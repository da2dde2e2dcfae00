(** Loop volume and execution-time estimation (paper Sections 4.2/4.3).

    Static cycle estimates feed two scheduling decisions: the software-
    pipelining prefetch distance (latency divided by estimated iteration
    time, Mowry's rule) and the moving-back distance (cycles of the
    statements a prefetch can cross). Estimates assume cache hits —
    underestimating iteration time only moves prefetches earlier, which is
    the safe direction for timeliness. *)

(** Estimated cycles of a statement list executed once. Nested loops
    multiply by their trip count, 8 when unknown; branches contribute the
    larger arm. *)
val stmts_cycles :
  Ccdp_machine.Config.t -> Iterspace.env -> Ccdp_ir.Stmt.t list -> int

(** Estimated cycles of one iteration of the loop body. *)
val iter_cycles :
  Ccdp_machine.Config.t -> Iterspace.env -> Ccdp_ir.Stmt.loop -> int

(** Words of shared data read per iteration (queue-pressure input). *)
val words_read_per_iter :
  decl_of:(string -> Ccdp_ir.Array_decl.t) -> Ccdp_ir.Stmt.loop -> int
