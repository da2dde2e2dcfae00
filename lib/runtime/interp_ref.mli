(** The reference interpreter: the pre-compiled-plan tree-walking engine,
    kept verbatim as the executable specification of the timed semantics.

    {!Interp.run} lowers the program once ({!Ccdp_analysis.Xplan}) and
    executes the compiled plan; this module still walks the IR directly,
    with string-keyed environments and a fresh register memo per iteration.
    The two must agree cycle-for-cycle: the engine differential tests run
    the fuzz corpus through both and assert identical cycles, stats,
    per-PE clocks, epoch profiles and final memory images, and
    [ccdp bench perf] reports the compiled engine's throughput relative to
    this one. Intentionally unoptimized — do not touch its hot path. *)

type result = {
  mode : Memsys.mode;
  cycles : int;
  stats : Ccdp_machine.Stats.t;
  per_pe_cycles : int array;
  epochs : int;
  epoch_profile : (int * int * int) list;
  sys : Memsys.t;
}

(** Same contract as {!Interp.run}. *)
val run :
  Ccdp_machine.Config.t ->
  ?oracle:bool ->
  ?sabotage:Memsys.sabotage ->
  Ccdp_ir.Program.t ->
  plan:Ccdp_analysis.Annot.plan ->
  mode:Memsys.mode ->
  ?init:(Memsys.t -> unit) ->
  unit ->
  result
