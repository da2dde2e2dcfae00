(** Experiment harness: regenerates the paper's Tables 1 and 2 plus the
    ablation studies indexed in DESIGN.md.

    Every parallel run is verified against the sequential execution (a wrong
    answer under any coherence scheme is an experiment failure, not a data
    point). Speedups are ratios of simulated machine cycles.

    Every run is a {!run_mode} call, set up by {!Pipeline.for_mode}. The
    runs are embarrassingly parallel; every entry point that executes
    more than one run takes an optional [?jobs] argument and shards its
    rows over a {!Ccdp_exec.Pool}. Results are deterministic: the same
    rows, in the same order, for any job count (see DESIGN.md section
    8). *)

type row = {
  workload : string;
  pes : int;
  seq_cycles : int;
  base_cycles : int;
  ccdp_cycles : int;
  base_ok : bool;
  ccdp_ok : bool;
}

val base_speedup : row -> float
val ccdp_speedup : row -> float

(** Improvement in execution time of the CCDP code over the BASE code,
    percent (paper Table 2). *)
val improvement : row -> float

(** Run a workload's program at one machine width under one mode, set up
    by {!Pipeline.for_mode} (which [tuning], [innermost_only],
    [group_spatial], [prefetch_clean] and [machine] are passed to).
    [jobs > 1] simulates the run's DOALL epochs in that many domain shards
    (intra-run parallelism, see {!Ccdp_runtime.Interp.run}); the default
    runs serially without creating a pool — the simulated result is
    identical either way. *)
val run_mode :
  ?tuning:Ccdp_analysis.Schedule.tuning ->
  ?innermost_only:bool ->
  ?group_spatial:bool ->
  ?prefetch_clean:bool ->
  ?machine:(n_pes:int -> Ccdp_machine.Config.t) ->
  ?jobs:int ->
  n_pes:int ->
  Ccdp_runtime.Memsys.mode ->
  Ccdp_workloads.Workload.t ->
  Ccdp_runtime.Interp.result

(** Full BASE/CCDP/sequential matrix over the machine widths [pes],
    sharded over [jobs] domains (default: {!Ccdp_exec.Pool.resolve_jobs}).
    Every BASE and CCDP run is verified against the sequential one. The
    row list is identical for every job count. *)
val evaluate :
  ?jobs:int -> pes:int list -> Ccdp_workloads.Workload.t list -> row list

(** A rendered experiment table: the unit of both the plain-text report
    ({!print_tbl}) and the JSON bench emission ({!Bench_json}). *)
type table = {
  title : string;
  headers : string list;
  trows : string list list;
}

val print_tbl : Format.formatter -> table -> unit

(** Paper Tables 1 and 2 as values. *)
val table1 : row list -> table

val table2 : row list -> table

(** Ablation A: prefetch target analysis disabled (every potentially-stale
    reference prefetched individually) vs the full scheme. *)
val ablation_target_table :
  ?n_pes:int -> ?jobs:int -> Ccdp_workloads.Workload.t list -> table

(** Ablation B: scheduling restricted to a single technique. *)
val ablation_technique_table :
  ?n_pes:int -> ?jobs:int -> Ccdp_workloads.Workload.t list -> table

(** Ablation C: CCDP vs epoch-boundary invalidation vs BASE. *)
val ablation_coherence_table :
  ?n_pes:int -> ?jobs:int -> Ccdp_workloads.Workload.t list -> table

(** Experiment E (the paper's future work, Section 6): additionally
    prefetch the non-stale references as pure latency hiding. *)
val ablation_prefetch_clean_table :
  ?n_pes:int -> ?jobs:int -> Ccdp_workloads.Workload.t list -> table

(** Experiment G: the paper's one-level vector-prefetch pulling restriction
    vs Gornish's multi-level pulling (with the staging-displacement hazard
    modelled). *)
val ablation_vpg_levels_table :
  ?n_pes:int -> ?jobs:int -> Ccdp_workloads.Workload.t list -> table

(** Experiment F: uniform remote latency vs the 3-D torus distance model. *)
val ablation_topology_table :
  ?n_pes:int -> ?jobs:int -> Ccdp_workloads.Workload.t list -> table

(** The four T3D interconnect presets the machine sweep reports, in table
    order: uniform, torus, mesh, crossbar. *)
val machine_presets :
  (string * (n_pes:int -> Ccdp_machine.Config.t)) list

(** Machine sweep: workload × mode × interconnect. One row per
    (workload, machine preset) with BASE/CCDP cycles, improvement and the
    link-contention counters; [only] restricts the sweep to a single named
    preset (any {!Ccdp_machine.Config.preset_of_string} name). *)
val machines_table :
  ?n_pes:int ->
  ?only:string ->
  ?jobs:int ->
  Ccdp_workloads.Workload.t list ->
  table

(** The CXL-style coherence-cluster presets the cluster sweep reports, in
    table order: 2, 4 and 8 islands on the crossbar fabric. *)
val cluster_presets :
  (string * (n_pes:int -> Ccdp_machine.Config.t)) list

(** Coherence-cluster sweep: one row per (workload, cxl preset) running
    the Clustered mode, anchored against flat CCDP and the flat full-map
    directory on [t3d-xbar] (the same crossbar fabric without islands).
    Rows report cycles, the improvement over each anchor, and the
    intra-cluster hit / inter-cluster CCDP traffic counters. [only]
    restricts to a single cxl preset; a non-cxl [only] yields an empty
    table (the sweep has nothing to say about flat machines). *)
val clusters_table :
  ?n_pes:int ->
  ?only:string ->
  ?jobs:int ->
  Ccdp_workloads.Workload.t list ->
  table

(** {1 Hardware-coherence rivals}

    Workload × mode × machine sweep pitting the compiler-directed schemes
    against hardware coherence: BASE (the normalization anchor), CCDP,
    MSI/MESI bus snooping and the full-map directory, on the torus and
    crossbar distance-modelled machines. Every run is verified against the
    sequential execution. *)

type rival_row = {
  rv_workload : string;
  rv_machine : string;
  rv_mode : string;
  rv_pes : int;
  rv_cycles : int;
  rv_norm : float;
      (** execution time normalized to BASE on the same workload+machine *)
  rv_ok : bool;
  rv_stats : Ccdp_machine.Stats.t;
}

(** One row per workload, machine ([t3d-torus], [t3d-xbar]) and mode
    (BASE, CCDP, MSI, MESI, DIR), in that nesting order. Deterministic
    for any [jobs]. Default [n_pes] = 64 — wide enough for bus
    arbitration to crush snooping on the crossbar. *)
val rivals_rows :
  ?n_pes:int -> ?jobs:int -> Ccdp_workloads.Workload.t list -> rival_row list

val rivals_table : rival_row list -> table

(** Sweeps: remote latency, prefetch-queue capacity and cache capacity
    (shape studies), one row per point, sharded over [jobs]. *)
val sweep_remote_table :
  ?n_pes:int -> ?points:int list -> ?jobs:int -> Ccdp_workloads.Workload.t ->
  table

val sweep_queue_table :
  ?n_pes:int -> ?points:int list -> ?jobs:int -> Ccdp_workloads.Workload.t ->
  table

(** Cache-capacity sweep across the coherence schemes: blanket invalidation
    wastes retention that version-based HSCD and CCDP keep as capacity
    grows. *)
val sweep_cache_table :
  ?n_pes:int -> ?points:int list -> ?jobs:int -> Ccdp_workloads.Workload.t ->
  table
