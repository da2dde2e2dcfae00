open Ccdp_machine
open Ccdp_runtime
open Ccdp_workloads
module Pool = Ccdp_exec.Pool

type row = {
  workload : string;
  pes : int;
  seq_cycles : int;
  base_cycles : int;
  ccdp_cycles : int;
  base_ok : bool;
  ccdp_ok : bool;
}

let base_speedup r = float_of_int r.seq_cycles /. float_of_int r.base_cycles
let ccdp_speedup r = float_of_int r.seq_cycles /. float_of_int r.ccdp_cycles

let improvement r =
  100.0 *. (float_of_int (r.base_cycles - r.ccdp_cycles) /. float_of_int r.base_cycles)

type spec = { pes : int list; verify : bool }

let default_spec = { pes = [ 1; 2; 4; 8; 16; 32; 64 ]; verify = true }

(* [jobs]: intra-run shard count for the epoch simulation (see
   Interp.run's [pool]); [None] — the default, and what every table's
   grid tasks use from inside their own pool — runs the serial walk
   without creating any pool. *)
let run_mode ?tuning ?innermost_only ?group_spatial ?prefetch_clean ?machine
    ?jobs ~n_pes mode (w : Workload.t) =
  let s =
    Pipeline.for_mode ?tuning ?innermost_only ?group_spatial ?prefetch_clean
      ?machine ~n_pes mode w.program
  in
  let go ?pool () = Interp.run s.cfg ?pool s.program ~plan:s.plan ~mode () in
  match jobs with
  | Some j when j > 1 -> Pool.with_pool ~jobs:j (fun pool -> go ~pool ())
  | _ -> go ()

(* Every table is a grid of independent tasks, one per key (a workload, a
   (workload, width or machine) cell, a sweep point). Every Interp.run
   allocates its whole machine state, so the tasks run on any domain in
   any order; Pool.run collects their results in key order, which makes
   every table byte-identical to the sequential construction. [label]
   names a key's task in Pool.Run_failed. *)
let grid ?jobs label f keys =
  Pool.run ?jobs ~label:(fun i -> label (List.nth keys i)) (fun _ k -> f k) keys

let name (w : Workload.t) = w.name
let pairs xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* Relative gain of [b] over [a], percent of [a]. *)
let gain a b = Report.fpct (100. *. float_of_int (a - b) /. float_of_int a)

let evaluate ?jobs ?(spec = default_spec) workloads =
  let seqs =
    grid ?jobs (fun w -> "seq:" ^ name w) (run_mode ~n_pes:1 Memsys.Seq) workloads
  in
  grid ?jobs
    (fun ((w, _), n_pes) -> Printf.sprintf "%s@%dpe" (name w) n_pes)
    (fun (((w : Workload.t), (seq : Interp.result)), n_pes) ->
      let check (r : Interp.result) =
        (not spec.verify)
        || (Verify.compare_states ~expected:seq.sys ~got:r.sys
              (Ccdp_ir.Program.inline w.program))
             .ok
      in
      let base = run_mode ~n_pes Memsys.Base w in
      let ccdp = run_mode ~n_pes Memsys.Ccdp w in
      {
        workload = w.name;
        pes = n_pes;
        seq_cycles = seq.cycles;
        base_cycles = base.cycles;
        ccdp_cycles = ccdp.cycles;
        base_ok = check base;
        ccdp_ok = check ccdp;
      })
    (pairs (List.combine workloads seqs) spec.pes)

(* ------------------------------------------------------------------ *)
(* Tables as values                                                    *)
(* ------------------------------------------------------------------ *)

type table = { title : string; headers : string list; trows : string list list }

let print_tbl ppf t = Report.table ppf ~title:t.title ~headers:t.headers t.trows

(* Tables 1 and 2: one row per machine width, with the [columns] headers
   and the [cells] of the width's row (if any) for each workload, in
   first-appearance order. *)
let by_width ~title ~columns cells rows =
  let names =
    List.fold_left
      (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
      [] rows
  in
  {
    title;
    headers = "#PEs" :: List.concat_map columns names;
    trows =
      List.map
        (fun p ->
          string_of_int p
          :: List.concat_map
               (fun name ->
                 cells
                   (List.find_opt
                      (fun (r : row) -> r.workload = name && r.pes = p)
                      rows))
               names)
        (List.sort_uniq compare (List.map (fun (r : row) -> r.pes) rows));
  }

let table1 =
  let tag b = if b then "" else "!" in
  by_width
    ~title:
      "Table 1. Speedups over sequential execution time ('!' marks a failed \
       numeric verification)"
    ~columns:(fun n -> [ n ^ " BASE"; n ^ " CCDP" ])
    (function
      | Some r ->
          [
            Report.fx (base_speedup r) ^ tag r.base_ok;
            Report.fx (ccdp_speedup r) ^ tag r.ccdp_ok;
          ]
      | None -> [ "-"; "-" ])

let table2 =
  by_width
    ~title:"Table 2. Improvement in execution time of CCDP codes over BASE codes"
    ~columns:(fun n -> [ n ])
    (function Some r -> [ Report.fpct (improvement r) ] | None -> [ "-" ])

let csv_rows ppf rows =
  Report.csv ppf
    ~headers:
      [
        "workload"; "pes"; "seq_cycles"; "base_cycles"; "ccdp_cycles";
        "base_speedup"; "ccdp_speedup"; "improvement_pct"; "base_verified";
        "ccdp_verified";
      ]
    (List.map
       (fun (r : row) ->
         [
           r.workload;
           string_of_int r.pes;
           string_of_int r.seq_cycles;
           string_of_int r.base_cycles;
           string_of_int r.ccdp_cycles;
           Printf.sprintf "%.4f" (base_speedup r);
           Printf.sprintf "%.4f" (ccdp_speedup r);
           Printf.sprintf "%.2f" (improvement r);
           string_of_bool r.base_ok;
           string_of_bool r.ccdp_ok;
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Ablations: one row per workload                                     *)
(* ------------------------------------------------------------------ *)

let ablation_target_table ?(n_pes = 16) ?jobs workloads =
  let row w =
    let ccdp ?innermost_only ?group_spatial () =
      (run_mode ?innermost_only ?group_spatial ~n_pes Memsys.Ccdp w).cycles
    in
    let full = ccdp () in
    let no_group = ccdp ~group_spatial:false () in
    let all_stale = ccdp ~group_spatial:false ~innermost_only:false () in
    (* what each analysis saves, percent of the full scheme's cycles *)
    let save x = Report.fpct (100. *. float_of_int (x - full) /. float_of_int full) in
    name w :: List.map string_of_int [ full; no_group; all_stale ]
    @ [ save no_group; save all_stale ]
  in
  {
    title =
      Printf.sprintf
        "Ablation A (%d PEs): prefetch target analysis off (cycles; lower is \
         better)" n_pes;
    headers =
      [
        "workload"; "full"; "no group-spatial"; "no target analysis";
        "groups save"; "target saves";
      ];
    trows = grid ?jobs name row workloads;
  }

let ablation_technique_table ?(n_pes = 16) ?jobs workloads =
  let open Ccdp_analysis.Schedule in
  let t0 = default_tuning in
  let variants =
    [
      ("all", t0);
      ("VPG only", { t0 with allow_sp = false; allow_mbp = false });
      ("SP only", { t0 with allow_vpg = false; allow_mbp = false });
      ("MBP only", { t0 with allow_vpg = false; allow_sp = false });
    ]
  in
  let row w =
    name w
    :: List.map
         (fun (_, tuning) ->
           string_of_int (run_mode ~tuning ~n_pes Memsys.Ccdp w).cycles)
         variants
  in
  {
    title =
      Printf.sprintf "Ablation B (%d PEs): single scheduling technique (cycles)"
        n_pes;
    headers = "workload" :: List.map fst variants;
    trows = grid ?jobs name row workloads;
  }

let ablation_coherence_table ?(n_pes = 16) ?jobs workloads =
  let row w =
    let run mode = (run_mode ~n_pes mode w).cycles in
    let base = run Memsys.Base and inv = run Memsys.Invalidate in
    let hscd = run Memsys.Hscd and ccdp = run Memsys.Ccdp in
    name w :: List.map string_of_int [ base; inv; hscd; ccdp ]
    @ [ gain base ccdp; gain inv ccdp; gain hscd ccdp ]
  in
  {
    title =
      Printf.sprintf
        "Ablation C (%d PEs): coherence schemes (cycles; uncached BASE, \
         epoch-invalidate, version-based HSCD, CCDP)" n_pes;
    headers =
      [ "workload"; "BASE"; "INV"; "HSCD"; "CCDP"; "vs BASE"; "vs INV";
        "vs HSCD" ];
    trows = grid ?jobs name row workloads;
  }

let ablation_prefetch_clean_table ?(n_pes = 16) ?jobs workloads =
  let row w =
    let ccdp = run_mode ~n_pes Memsys.Ccdp w in
    let plus = run_mode ~prefetch_clean:true ~n_pes Memsys.Ccdp w in
    [
      name w;
      string_of_int ccdp.cycles;
      string_of_int plus.cycles;
      gain ccdp.cycles plus.cycles;
      string_of_int (Stats.total_prefetches plus.stats);
    ]
  in
  {
    title =
      Printf.sprintf
        "Experiment E (%d PEs): CCDP + prefetching of non-stale references \
         (the paper's future work)" n_pes;
    headers = [ "workload"; "CCDP"; "CCDP+clean"; "extra gain"; "prefetches" ];
    trows = grid ?jobs name row workloads;
  }

let ablation_vpg_levels_table ?(n_pes = 16) ?jobs workloads =
  let open Ccdp_analysis.Schedule in
  let row w =
    let one = run_mode ~n_pes Memsys.Ccdp w in
    let tuning = { default_tuning with vpg_levels = 2 } in
    let two = run_mode ~tuning ~n_pes Memsys.Ccdp w in
    [
      name w;
      string_of_int one.cycles;
      string_of_int two.cycles;
      gain one.cycles two.cycles;
      string_of_int two.stats.pf_evicted;
    ]
  in
  {
    title =
      Printf.sprintf
        "Experiment G (%d PEs): one-level vs multi-level vector-prefetch \
         pulling (the paper's Gornish modification)" n_pes;
    headers = [ "workload"; "1-level"; "2-level"; "2-level gain"; "evicted" ];
    trows = grid ?jobs name row workloads;
  }

let ablation_topology_table ?(n_pes = 64) ?jobs workloads =
  let row w =
    let run machine mode = (run_mode ~machine ~n_pes mode w).cycles in
    let flat = Config.t3d and torus = Config.t3d_torus in
    let bf = run flat Memsys.Base and bt = run torus Memsys.Base in
    let cf = run flat Memsys.Ccdp and ct = run torus Memsys.Ccdp in
    name w :: List.map string_of_int [ bf; bt; cf; ct ] @ [ gain bt ct ]
  in
  {
    title =
      Printf.sprintf
        "Experiment F (%d PEs): uniform remote latency vs 3-D torus distance \
         model (cycles)" n_pes;
    headers =
      [ "workload"; "BASE flat"; "BASE torus"; "CCDP flat"; "CCDP torus";
        "torus improvement" ];
    trows = grid ?jobs name row workloads;
  }

(* ------------------------------------------------------------------ *)
(* Machine sweep                                                       *)
(* ------------------------------------------------------------------ *)

(* The four T3D interconnect variants, in the order the table reports
   them. [t3d] is the uniform-latency paper machine; the others move part
   of the remote latency into the distance model (and, for the crossbar,
   the shared-port contention model). *)
let machine_presets =
  [
    ("t3d", Config.t3d);
    ("t3d-torus", Config.t3d_torus);
    ("t3d-mesh", Config.t3d_mesh);
    ("t3d-xbar", Config.t3d_xbar);
  ]

let machines_table ?(n_pes = 16) ?only ?jobs workloads =
  let machines =
    match only with
    | None -> machine_presets
    | Some only -> (
        match Config.preset_of_string only with
        | Some p -> [ (String.lowercase_ascii only, p) ]
        | None -> invalid_arg ("unknown machine preset: " ^ only))
  in
  let row (w, (mname, machine)) =
    let base = run_mode ~machine ~n_pes Memsys.Base w in
    let ccdp = run_mode ~machine ~n_pes Memsys.Ccdp w in
    [
      name w;
      mname;
      string_of_int base.cycles;
      string_of_int ccdp.cycles;
      gain base.cycles ccdp.cycles;
      string_of_int ccdp.stats.link_conflicts;
      string_of_int ccdp.stats.link_occ_max;
    ]
  in
  {
    title =
      Printf.sprintf
        "Machine sweep (%d PEs): workload x mode x interconnect (cycles)"
        n_pes;
    headers =
      [
        "workload"; "machine"; "BASE"; "CCDP"; "improvement"; "link conflicts";
        "max link occ";
      ];
    trows =
      grid ?jobs
        (fun (w, (mname, _)) -> name w ^ "@" ^ mname)
        row (pairs workloads machines);
  }

(* ------------------------------------------------------------------ *)
(* Coherence-cluster sweep                                             *)
(* ------------------------------------------------------------------ *)

(* The CXL-style island presets share the crossbar fabric with t3d-xbar,
   so the honest anchors are flat CCDP and the flat full-map directory on
   t3d-xbar: same distance model, same shared-port contention, no
   islands. A positive "vs" column means the islands won. *)
let cluster_presets =
  [
    ("cxl-2x32", Config.cxl_2x32);
    ("cxl-4x16", Config.cxl_4x16);
    ("cxl-8x8", Config.cxl_8x8);
  ]

let clusters_table ?(n_pes = 16) ?only ?jobs workloads =
  let presets =
    match only with
    | None -> cluster_presets
    | Some only ->
        let only = String.lowercase_ascii only in
        List.filter (fun (mname, _) -> mname = only) cluster_presets
  in
  (* one task per workload, so the two flat anchors run once each *)
  let rows w =
    let run machine mode = run_mode ~machine ~n_pes mode w in
    let ccdp = (run Config.t3d_xbar Memsys.Ccdp).cycles in
    let dir = (run Config.t3d_xbar Memsys.Directory).cycles in
    List.map
      (fun (mname, machine) ->
        let clu = run machine Memsys.Clustered in
        name w :: mname :: List.map string_of_int [ clu.cycles; ccdp; dir ]
        @ [ gain ccdp clu.cycles; gain dir clu.cycles ]
        @ List.map string_of_int
            [
              clu.stats.cluster_hits;
              clu.stats.cluster_inter;
              clu.stats.bus_conflicts;
            ])
      presets
  in
  {
    title =
      Printf.sprintf
        "Coherence-cluster sweep (%d PEs): CLU on the CXL island presets \
         vs flat CCDP and the flat directory on the same crossbar fabric \
         (cycles; positive %% = islands win)"
        n_pes;
    headers =
      [
        "workload"; "machine"; "CLU"; "flat CCDP"; "flat DIR";
        "vs flat CCDP"; "vs flat DIR"; "cluster hits"; "cluster inter";
        "bus conflicts";
      ];
    trows =
      (if presets = [] then []
       else
         List.concat (grid ?jobs (fun w -> name w ^ "@clusters") rows workloads));
  }

(* ------------------------------------------------------------------ *)
(* Hardware-coherence rivals sweep                                     *)
(* ------------------------------------------------------------------ *)

type rival_row = {
  rv_workload : string;
  rv_machine : string;
  rv_mode : string;
  rv_pes : int;
  rv_cycles : int;
  rv_norm : float;  (** execution time normalized to BASE (same cell) *)
  rv_ok : bool;
  rv_stats : Stats.t;
}

(* BASE is the normalization anchor; CCDP, the two snooping flavours and
   the directory are the contenders. *)
let rival_modes =
  [ Memsys.Base; Memsys.Ccdp; Memsys.Msi; Memsys.Mesi; Memsys.Directory ]

(* One distance-modelled machine per contention regime: the torus spreads
   traffic over per-destination ports, the crossbar funnels it through
   shared ports — and the snooping bus serializes on both, which is the
   sweep's payoff at high PE counts. *)
let rival_machines =
  [ ("t3d-torus", Config.t3d_torus); ("t3d-xbar", Config.t3d_xbar) ]

let rivals_rows ?(n_pes = 64) ?jobs workloads =
  let seqs =
    grid ?jobs
      (fun w -> "seq:" ^ name w)
      (fun (w : Workload.t) ->
        Seq_oracle.run (Config.t3d ~n_pes:1) (Ccdp_ir.Program.inline w.program) ())
      workloads
  in
  let rows (((w : Workload.t), seq), (mname, machine)) =
    let inlined = Ccdp_ir.Program.inline w.program in
    let base = run_mode ~machine ~n_pes Memsys.Base w in
    List.map
      (fun mode ->
        let r =
          if mode = Memsys.Base then base else run_mode ~machine ~n_pes mode w
        in
        {
          rv_workload = w.name;
          rv_machine = mname;
          rv_mode = Memsys.mode_name mode;
          rv_pes = n_pes;
          rv_cycles = r.cycles;
          rv_norm = float_of_int r.cycles /. float_of_int base.cycles;
          rv_ok = (Verify.compare_states ~expected:seq ~got:r.sys inlined).ok;
          rv_stats = r.stats;
        })
      rival_modes
  in
  List.concat
    (grid ?jobs
       (fun ((w, _), (mname, _)) -> name w ^ "@" ^ mname)
       rows
       (pairs (List.combine workloads seqs) rival_machines))

let rivals_table rows =
  let n_pes = match rows with r :: _ -> r.rv_pes | [] -> 0 in
  {
    title =
      Printf.sprintf
        "Hardware-coherence rivals (%d PEs): execution time normalized to \
         BASE, lower is better ('!' marks a failed numeric verification)"
        n_pes;
    headers =
      [
        "workload"; "machine"; "mode"; "cycles"; "norm"; "invalidations";
        "upgrades"; "dir msgs"; "bus conflicts"; "link conflicts";
      ];
    trows =
      List.map
        (fun r ->
          [
            r.rv_workload;
            r.rv_machine;
            r.rv_mode;
            string_of_int r.rv_cycles;
            Report.fx r.rv_norm ^ (if r.rv_ok then "" else "!");
            string_of_int r.rv_stats.Stats.invalidations;
            string_of_int r.rv_stats.Stats.upgrades;
            string_of_int r.rv_stats.Stats.dir_msgs;
            string_of_int r.rv_stats.Stats.bus_conflicts;
            string_of_int r.rv_stats.Stats.link_conflicts;
          ])
        rows;
  }

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

(* One row per point [p], each run of [w] on the t3d machine with [edit p]
   applied: [cells run] gives the row after its point, [run mode] running
   [w] under [mode] at that point. *)
let sweep ?jobs ~n_pes ~points ~title ~headers edit cells (w : Workload.t) =
  let row p =
    let machine ~n_pes = edit p (Config.t3d ~n_pes) in
    string_of_int p :: cells (fun mode -> run_mode ~machine ~n_pes mode w)
  in
  {
    title = Printf.sprintf title w.name n_pes;
    headers;
    trows = grid ?jobs string_of_int row points;
  }

let sweep_cache_table ?(n_pes = 16) ?(points = [ 512; 1024; 2048; 4096; 8192 ])
    ?jobs =
  sweep ?jobs ~n_pes ~points
    ~title:"Sweep: cache capacity, %s at %d PEs (cycles)"
    ~headers:[ "cache (words)"; "INV"; "HSCD"; "CCDP" ]
    (fun cache_words c -> { c with Config.cache_words })
    (fun run ->
      List.map
        (fun mode -> string_of_int (run mode).Interp.cycles)
        [ Memsys.Invalidate; Memsys.Hscd; Memsys.Ccdp ])

let sweep_remote_table ?(n_pes = 16) ?(points = [ 30; 60; 90; 150; 300; 600 ])
    ?jobs =
  sweep ?jobs ~n_pes ~points ~title:"Sweep: remote latency, %s at %d PEs"
    ~headers:[ "remote (cyc)"; "BASE"; "CCDP"; "improvement" ]
    (fun remote c -> { c with Config.remote })
    (fun run ->
      let base = (run Memsys.Base).Interp.cycles in
      let ccdp = (run Memsys.Ccdp).Interp.cycles in
      [ string_of_int base; string_of_int ccdp; gain base ccdp ])

let sweep_queue_table ?(n_pes = 16) ?(points = [ 4; 8; 16; 32; 64 ]) ?jobs =
  sweep ?jobs ~n_pes ~points
    ~title:"Sweep: prefetch queue capacity, %s at %d PEs"
    ~headers:[ "queue (words)"; "CCDP cycles"; "dropped"; "late" ]
    (fun q c -> { c with Config.prefetch_queue_words = q })
    (fun run ->
      let r = run Memsys.Ccdp in
      List.map string_of_int
        [ r.Interp.cycles; r.stats.pf_dropped; r.stats.pf_late ])
