(** The CCDP compiler pipeline (paper Section 3.2).

    [compile] runs the three phases end to end on a program for a given
    machine: interprocedural inlining and epoch partitioning, stale
    reference analysis, prefetch target analysis, prefetch scheduling. The
    result bundles every intermediate so that reports, tests and the
    runtime all see the same facts. *)

type t = {
  program : Ccdp_ir.Program.t;  (** inlined *)
  epochs : Ccdp_ir.Epoch.t;
  infos : Ccdp_analysis.Ref_info.t list;
  region : Ccdp_analysis.Region.t;
  stale : Ccdp_analysis.Stale.result;
  target : Ccdp_analysis.Target.t;
  plan : Ccdp_analysis.Annot.plan;
  decisions : Ccdp_analysis.Schedule.decision list;
  cfg : Ccdp_machine.Config.t;  (** machine the plan was scheduled for *)
  tuning : Ccdp_analysis.Schedule.tuning;  (** resolved scheduling knobs *)
  prefetch_clean : bool;  (** were clean reads eligible for prefetching? *)
  cluster_pes : int;
      (** effective island width of the alignment discharge: the machine's
          [cluster_pes] when compiled with [~cluster_coherent:true] (and
          the clustering divides the machine), 1 otherwise. The certifier
          re-derives obligations with the same width. *)
}

(** What one mode runs ({!for_mode}): the machine, the inlined program
    and the plan. *)
type setup = {
  cfg : Ccdp_machine.Config.t;
  program : Ccdp_ir.Program.t;  (** inlined *)
  plan : Ccdp_analysis.Annot.plan;
  compiled : t option;  (** the compile behind [plan]; [None] when plan-free *)
}

(** [mutate_stale] rewrites the stale-analysis result before target
    analysis and scheduling consume it — a fault-injection hook: the
    differential fuzzer drops a mark to prove the staleness oracle catches
    an unsound analysis. Defaults to the identity.

    [cluster_coherent] (default false) compiles for the clustered runtime
    ([Memsys.Clustered]): the stale analysis discharges reads whose
    writers provably land in the reader's hardware-coherent island
    ({!Ccdp_analysis.Region.aligned_cluster} at the machine's
    [Config.cluster_pes]). Unsound for every other mode — flat runs on a
    clustered machine must leave it off; {!for_mode} sets it for exactly
    that mode. *)
val compile :
  Ccdp_machine.Config.t ->
  ?tuning:Ccdp_analysis.Schedule.tuning ->
  ?innermost_only:bool ->
  ?group_spatial:bool ->
  ?prefetch_clean:bool ->
  ?cluster_coherent:bool ->
  ?mutate_stale:(Ccdp_analysis.Stale.result -> Ccdp_analysis.Stale.result) ->
  Ccdp_ir.Program.t ->
  t

(** The set-up rule every comparison of coherence schemes runs under.
    [Seq] runs on a one-PE [machine] whatever [n_pes] says; [Ccdp] runs
    the {!compile} with [tuning], [innermost_only], [group_spatial],
    [prefetch_clean] and [mutate_stale]; [Clustered] runs the same compile
    with [~cluster_coherent:true]; every other mode runs the inlined
    program with an empty plan and compiles nothing. [machine] selects the
    machine preset (default {!Ccdp_machine.Config.t3d}). *)
val for_mode :
  ?tuning:Ccdp_analysis.Schedule.tuning ->
  ?innermost_only:bool ->
  ?group_spatial:bool ->
  ?prefetch_clean:bool ->
  ?mutate_stale:(Ccdp_analysis.Stale.result -> Ccdp_analysis.Stale.result) ->
  ?machine:(n_pes:int -> Ccdp_machine.Config.t) ->
  n_pes:int ->
  Ccdp_runtime.Memsys.mode ->
  Ccdp_ir.Program.t ->
  setup

(** Human-readable compilation report: epoch structure, stale counts,
    target groups, scheduling decisions. *)
val report : Format.formatter -> t -> unit
