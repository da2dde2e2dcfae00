(** The sequential value oracle: untimed, value-only sequential execution.

    Verification needs the final values of a sequential run, not its
    timing. [run] evaluates the program's lowered {!Ccdp_analysis.Xplan}
    on one PE straight into a memory image ({!Memsys.image}): no machine
    clock, cache, prefetch queue, write log or staleness bookkeeping. It
    keeps everything of {!Interp.run}[ ~mode:Seq] that decides a value:
    evaluation order, reduction seeding and barrier merge, and the
    unbound-variable errors. The image is therefore bit-identical to the
    timed one-PE sequential run's memory on the same [cfg] (pinned by
    [test/test_verify.ml]), and reads back through {!Memsys.get} and
    {!Verify.compare_states} like any run's. *)

(** [run cfg program ?init ()]: the final memory of [program] (call-free,
    see {!Ccdp_ir.Program.inline}) after [init] and sequential execution.
    Only [cfg]'s address-map parameters matter; the image has one PE
    whatever [cfg.n_pes] says.
    @raise Invalid_argument where the timed run would (a call in the
    program, an unbound variable or scalar, an unknown loop bound). *)
val run :
  Ccdp_machine.Config.t ->
  Ccdp_ir.Program.t ->
  ?init:(Memsys.t -> unit) ->
  unit ->
  Memsys.t
