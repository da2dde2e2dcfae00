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
  ccdp_stats : Stats.t;
}

let base_speedup r = float_of_int r.seq_cycles /. float_of_int r.base_cycles
let ccdp_speedup r = float_of_int r.seq_cycles /. float_of_int r.ccdp_cycles

let improvement r =
  100.0 *. (float_of_int (r.base_cycles - r.ccdp_cycles) /. float_of_int r.base_cycles)

type spec = { pes : int list; verify : bool; tuning : Ccdp_analysis.Schedule.tuning }

let default_spec =
  {
    pes = [ 1; 2; 4; 8; 16; 32; 64 ];
    verify = true;
    tuning = Ccdp_analysis.Schedule.default_tuning;
  }

(* [jobs]: intra-run shard count for the epoch simulation (see
   Interp.run's [pool]); [None] — the default, and what [evaluate]'s grid
   cells use from inside their own pool tasks — runs the serial walk
   without creating any pool. *)
let run_program ?tuning ?machine ?jobs ~n_pes mode program =
  let s = Pipeline.for_mode ?tuning ?machine ~n_pes mode program in
  let go ?pool () = Interp.run s.cfg ?pool s.program ~plan:s.plan ~mode () in
  match jobs with
  | Some j when j > 1 -> Pool.with_pool ~jobs:j (fun pool -> go ~pool ())
  | _ -> go ()

let run_mode ?tuning ?machine ?jobs ~n_pes mode (w : Workload.t) =
  run_program ?tuning ?machine ?jobs ~n_pes mode w.program

(* The grid is embarrassingly parallel: every Interp.run allocates its
   whole machine state, so (workload, width) cells run on any domain in
   any order. Results are collected by index (Pool.map_runs), which makes
   the row list byte-identical to the sequential construction. *)
let evaluate ?jobs ?(spec = default_spec) workloads =
  Pool.with_pool ?jobs (fun pool ->
      let seqs =
        Pool.map_runs pool
          ~label:(fun i -> "seq:" ^ (List.nth workloads i).Workload.name)
          (fun _ (w : Workload.t) -> run_mode ~n_pes:1 Memsys.Seq w)
          workloads
      in
      let units =
        List.concat_map
          (fun (w, seq) -> List.map (fun n_pes -> (w, seq, n_pes)) spec.pes)
          (List.combine workloads seqs)
      in
      Pool.map_runs pool
        ~label:(fun i ->
          let (w : Workload.t), _, n_pes = List.nth units i in
          Printf.sprintf "%s@%dpe" w.Workload.name n_pes)
        (fun _ ((w : Workload.t), (seq : Interp.result), n_pes) ->
          let check (r : Interp.result) =
            if not spec.verify then true
            else
              (Verify.compare_states ~expected:seq.Interp.sys ~got:r.Interp.sys
                 (Ccdp_ir.Program.inline w.program))
                .Verify.ok
          in
          let base = run_mode ~n_pes Memsys.Base w in
          let ccdp = run_mode ~tuning:spec.tuning ~n_pes Memsys.Ccdp w in
          {
            workload = w.name;
            pes = n_pes;
            seq_cycles = seq.Interp.cycles;
            base_cycles = base.Interp.cycles;
            ccdp_cycles = ccdp.Interp.cycles;
            base_ok = check base;
            ccdp_ok = check ccdp;
            ccdp_stats = ccdp.Interp.stats;
          })
        units)

let workload_names rows =
  List.fold_left
    (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
    [] rows

let pe_counts rows =
  List.sort_uniq compare (List.map (fun (r : row) -> r.pes) rows)

(* ------------------------------------------------------------------ *)
(* Tables as values                                                    *)
(* ------------------------------------------------------------------ *)

type table = { title : string; headers : string list; trows : string list list }

let print_tbl ppf t = Report.table ppf ~title:t.title ~headers:t.headers t.trows

let table1 rows =
  let names = workload_names rows in
  let headers =
    "#PEs"
    :: List.concat_map (fun n -> [ n ^ " BASE"; n ^ " CCDP" ]) names
  in
  let body =
    List.map
      (fun p ->
        string_of_int p
        :: List.concat_map
             (fun name ->
               match
                 List.find_opt
                   (fun (r : row) -> r.workload = name && r.pes = p)
                   rows
               with
               | Some r ->
                   let tag b = if b then "" else "!" in
                   [
                     Report.fx (base_speedup r) ^ tag r.base_ok;
                     Report.fx (ccdp_speedup r) ^ tag r.ccdp_ok;
                   ]
               | None -> [ "-"; "-" ])
             names)
      (pe_counts rows)
  in
  {
    title =
      "Table 1. Speedups over sequential execution time ('!' marks a failed \
       numeric verification)";
    headers;
    trows = body;
  }

let table2 rows =
  let names = workload_names rows in
  let headers = "#PEs" :: names in
  let body =
    List.map
      (fun p ->
        string_of_int p
        :: List.map
             (fun name ->
               match
                 List.find_opt
                   (fun (r : row) -> r.workload = name && r.pes = p)
                   rows
               with
               | Some r -> Report.fpct (improvement r)
               | None -> "-")
             names)
      (pe_counts rows)
  in
  {
    title = "Table 2. Improvement in execution time of CCDP codes over BASE codes";
    headers;
    trows = body;
  }

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
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* Each ablation's rows are independent (one per workload, or one per
   sweep point), so the row list is a Pool.run over them; per-row run
   order is preserved inside the closure. *)

let map_workload_rows ?jobs (workloads : Workload.t list) f =
  Pool.run ?jobs
    ~label:(fun i -> (List.nth workloads i).Workload.name)
    (fun _ w -> f w)
    workloads

let ccdp_cycles_with ~n_pes ?tuning ?innermost_only ?group_spatial
    (w : Workload.t) =
  let cfg = Config.t3d ~n_pes in
  let compiled =
    Pipeline.compile cfg ?tuning ?innermost_only ?group_spatial w.program
  in
  (Interp.run cfg compiled.Pipeline.program ~plan:compiled.Pipeline.plan
     ~mode:Memsys.Ccdp ())
    .Interp.cycles

let ablation_target_table ?(n_pes = 16) ?jobs workloads =
  let rows =
    map_workload_rows ?jobs workloads (fun (w : Workload.t) ->
        let full = ccdp_cycles_with ~n_pes w in
        let no_group = ccdp_cycles_with ~n_pes ~group_spatial:false w in
        let all_stale =
          ccdp_cycles_with ~n_pes ~group_spatial:false ~innermost_only:false w
        in
        [
          w.name;
          string_of_int full;
          string_of_int no_group;
          string_of_int all_stale;
          Report.fpct (100. *. float_of_int (no_group - full) /. float_of_int full);
          Report.fpct (100. *. float_of_int (all_stale - full) /. float_of_int full);
        ])
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
    trows = rows;
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
  let rows =
    map_workload_rows ?jobs workloads (fun (w : Workload.t) ->
        w.name
        :: List.map
             (fun (_, tuning) ->
               string_of_int (ccdp_cycles_with ~n_pes ~tuning w))
             variants)
  in
  {
    title =
      Printf.sprintf "Ablation B (%d PEs): single scheduling technique (cycles)"
        n_pes;
    headers = "workload" :: List.map fst variants;
    trows = rows;
  }

let ablation_coherence_table ?(n_pes = 16) ?jobs workloads =
  let rows =
    map_workload_rows ?jobs workloads (fun (w : Workload.t) ->
        let base = (run_mode ~n_pes Memsys.Base w).Interp.cycles in
        let inv = (run_mode ~n_pes Memsys.Invalidate w).Interp.cycles in
        let hscd = (run_mode ~n_pes Memsys.Hscd w).Interp.cycles in
        let ccdp = (run_mode ~n_pes Memsys.Ccdp w).Interp.cycles in
        [
          w.name;
          string_of_int base;
          string_of_int inv;
          string_of_int hscd;
          string_of_int ccdp;
          Report.fpct (100. *. float_of_int (base - ccdp) /. float_of_int base);
          Report.fpct (100. *. float_of_int (inv - ccdp) /. float_of_int inv);
          Report.fpct (100. *. float_of_int (hscd - ccdp) /. float_of_int hscd);
        ])
  in
  {
    title =
      Printf.sprintf
        "Ablation C (%d PEs): coherence schemes (cycles; uncached BASE, \
         epoch-invalidate, version-based HSCD, CCDP)" n_pes;
    headers =
      [ "workload"; "BASE"; "INV"; "HSCD"; "CCDP"; "vs BASE"; "vs INV";
        "vs HSCD" ];
    trows = rows;
  }

let ablation_prefetch_clean_table ?(n_pes = 16) ?jobs workloads =
  let rows =
    map_workload_rows ?jobs workloads (fun (w : Workload.t) ->
        let cfg = Config.t3d ~n_pes in
        let run ?prefetch_clean () =
          let c = Pipeline.compile cfg ?prefetch_clean w.program in
          Interp.run cfg c.Pipeline.program ~plan:c.Pipeline.plan
            ~mode:Memsys.Ccdp ()
        in
        let ccdp = run () in
        let plus = run ~prefetch_clean:true () in
        [
          w.name;
          string_of_int ccdp.Interp.cycles;
          string_of_int plus.Interp.cycles;
          Report.fpct
            (100.
            *. float_of_int (ccdp.Interp.cycles - plus.Interp.cycles)
            /. float_of_int ccdp.Interp.cycles);
          string_of_int (Stats.total_prefetches plus.Interp.stats);
        ])
  in
  {
    title =
      Printf.sprintf
        "Experiment E (%d PEs): CCDP + prefetching of non-stale references           (the paper's future work)" n_pes;
    headers = [ "workload"; "CCDP"; "CCDP+clean"; "extra gain"; "prefetches" ];
    trows = rows;
  }

let ablation_vpg_levels_table ?(n_pes = 16) ?jobs workloads =
  let open Ccdp_analysis.Schedule in
  let run tuning (w : Workload.t) =
    let cfg = Config.t3d ~n_pes in
    let c = Pipeline.compile cfg ~tuning w.program in
    Interp.run cfg c.Pipeline.program ~plan:c.Pipeline.plan ~mode:Memsys.Ccdp ()
  in
  let rows =
    map_workload_rows ?jobs workloads (fun (w : Workload.t) ->
        let one = run default_tuning w in
        let two = run { default_tuning with vpg_levels = 2 } w in
        [
          w.name;
          string_of_int one.Interp.cycles;
          string_of_int two.Interp.cycles;
          Report.fpct
            (100.
            *. float_of_int (one.Interp.cycles - two.Interp.cycles)
            /. float_of_int one.Interp.cycles);
          string_of_int two.Interp.stats.Stats.pf_evicted;
        ])
  in
  {
    title =
      Printf.sprintf
        "Experiment G (%d PEs): one-level vs multi-level vector-prefetch           pulling (the paper's Gornish modification)" n_pes;
    headers = [ "workload"; "1-level"; "2-level"; "2-level gain"; "evicted" ];
    trows = rows;
  }

let ablation_topology_table ?(n_pes = 64) ?jobs workloads =
  let run machine mode w = (run_mode ~machine ~n_pes mode w).Interp.cycles in
  let rows =
    map_workload_rows ?jobs workloads (fun (w : Workload.t) ->
        let flat = Config.t3d and torus = Config.t3d_torus in
        let bf = run flat Memsys.Base w and bt = run torus Memsys.Base w in
        let cf = run flat Memsys.Ccdp w and ct = run torus Memsys.Ccdp w in
        [
          w.name;
          string_of_int bf;
          string_of_int bt;
          string_of_int cf;
          string_of_int ct;
          Report.fpct (100. *. float_of_int (bt - ct) /. float_of_int bt);
        ])
  in
  {
    title =
      Printf.sprintf
        "Experiment F (%d PEs): uniform remote latency vs 3-D torus distance           model (cycles)" n_pes;
    headers =
      [ "workload"; "BASE flat"; "BASE torus"; "CCDP flat"; "CCDP torus";
        "torus improvement" ];
    trows = rows;
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
    | Some name -> (
        match Config.preset_of_string name with
        | Some p -> [ (String.lowercase_ascii name, p) ]
        | None -> invalid_arg ("unknown machine preset: " ^ name))
  in
  let units =
    List.concat_map (fun w -> List.map (fun m -> (w, m)) machines) workloads
  in
  let rows =
    Pool.run ?jobs
      ~label:(fun i ->
        let (w : Workload.t), (mname, _) = List.nth units i in
        w.Workload.name ^ "@" ^ mname)
      (fun _ ((w : Workload.t), (mname, preset)) ->
        let base = run_mode ~machine:preset ~n_pes Memsys.Base w in
        let ccdp = run_mode ~machine:preset ~n_pes Memsys.Ccdp w in
        let s = ccdp.Interp.stats in
        [
          w.Workload.name;
          mname;
          string_of_int base.Interp.cycles;
          string_of_int ccdp.Interp.cycles;
          Report.fpct
            (100.
            *. float_of_int (base.Interp.cycles - ccdp.Interp.cycles)
            /. float_of_int base.Interp.cycles);
          string_of_int s.Stats.link_conflicts;
          string_of_int s.Stats.link_occ_max;
        ])
      units
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
    trows = rows;
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
    | Some name ->
        let name = String.lowercase_ascii name in
        List.filter (fun (mname, _) -> mname = name) cluster_presets
  in
  let groups =
    if presets = [] then []
    else
      Pool.run ?jobs
        ~label:(fun i -> (List.nth workloads i).Workload.name ^ "@clusters")
        (fun _ (w : Workload.t) ->
          let ccdp = run_mode ~machine:Config.t3d_xbar ~n_pes Memsys.Ccdp w in
          let dir =
            run_mode ~machine:Config.t3d_xbar ~n_pes Memsys.Directory w
          in
          List.map
            (fun (mname, preset) ->
              let clu = run_mode ~machine:preset ~n_pes Memsys.Clustered w in
              let s = clu.Interp.stats in
              let pct (anchor : Interp.result) =
                Report.fpct
                  (100.
                  *. float_of_int (anchor.Interp.cycles - clu.Interp.cycles)
                  /. float_of_int anchor.Interp.cycles)
              in
              [
                w.Workload.name;
                mname;
                string_of_int clu.Interp.cycles;
                string_of_int ccdp.Interp.cycles;
                string_of_int dir.Interp.cycles;
                pct ccdp;
                pct dir;
                string_of_int s.Stats.cluster_hits;
                string_of_int s.Stats.cluster_inter;
                string_of_int s.Stats.bus_conflicts;
              ])
            presets)
        workloads
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
    trows = List.concat groups;
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
  Pool.with_pool ?jobs (fun pool ->
      let seqs =
        Pool.map_runs pool
          ~label:(fun i -> "seq:" ^ (List.nth workloads i).Workload.name)
          (fun _ (w : Workload.t) ->
            Seq_oracle.run (Config.t3d ~n_pes:1)
              (Ccdp_ir.Program.inline w.program) ())
          workloads
      in
      let units =
        List.concat_map
          (fun (w, seq) -> List.map (fun m -> (w, seq, m)) rival_machines)
          (List.combine workloads seqs)
      in
      let groups =
        Pool.map_runs pool
          ~label:(fun i ->
            let (w : Workload.t), _, (mname, _) = List.nth units i in
            w.Workload.name ^ "@" ^ mname)
          (fun _ ((w : Workload.t), seq, (mname, preset)) ->
            let inlined = Ccdp_ir.Program.inline w.program in
            let base = run_mode ~machine:preset ~n_pes Memsys.Base w in
            List.map
              (fun mode ->
                let r =
                  if mode = Memsys.Base then base
                  else run_mode ~machine:preset ~n_pes mode w
                in
                let ok =
                  (Verify.compare_states ~expected:seq ~got:r.Interp.sys
                     inlined)
                    .Verify.ok
                in
                {
                  rv_workload = w.name;
                  rv_machine = mname;
                  rv_mode = Memsys.mode_name mode;
                  rv_pes = n_pes;
                  rv_cycles = r.Interp.cycles;
                  rv_norm =
                    float_of_int r.Interp.cycles
                    /. float_of_int base.Interp.cycles;
                  rv_ok = ok;
                  rv_stats = r.Interp.stats;
                })
              rival_modes)
          units
      in
      List.concat groups)

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

let map_point_rows ?jobs points f =
  Pool.run ?jobs
    ~label:(fun i -> string_of_int (List.nth points i))
    (fun _ p -> f p)
    points

(* cycles of [w] under [mode] on the t3d machine with [edit] applied *)
let sweep_cycles ~n_pes edit mode w =
  (run_mode ~machine:(fun ~n_pes -> edit (Config.t3d ~n_pes)) ~n_pes mode w)
    .Interp.cycles

let sweep_cache_table ?(n_pes = 16) ?(points = [ 512; 1024; 2048; 4096; 8192 ])
    ?jobs (w : Workload.t) =
  let rows =
    map_point_rows ?jobs points (fun cache_words ->
        let run mode =
          sweep_cycles ~n_pes (fun c -> { c with Config.cache_words }) mode w
        in
        [
          string_of_int cache_words;
          string_of_int (run Memsys.Invalidate);
          string_of_int (run Memsys.Hscd);
          string_of_int (run Memsys.Ccdp);
        ])
  in
  {
    title =
      Printf.sprintf "Sweep: cache capacity, %s at %d PEs (cycles)"
        w.Workload.name n_pes;
    headers = [ "cache (words)"; "INV"; "HSCD"; "CCDP" ];
    trows = rows;
  }

let sweep_remote_table ?(n_pes = 16) ?(points = [ 30; 60; 90; 150; 300; 600 ])
    ?jobs (w : Workload.t) =
  let rows =
    map_point_rows ?jobs points (fun remote ->
        let run mode =
          sweep_cycles ~n_pes (fun c -> { c with Config.remote }) mode w
        in
        let base = run Memsys.Base and ccdp = run Memsys.Ccdp in
        [
          string_of_int remote;
          string_of_int base;
          string_of_int ccdp;
          Report.fpct (100. *. float_of_int (base - ccdp) /. float_of_int base);
        ])
  in
  {
    title =
      Printf.sprintf "Sweep: remote latency, %s at %d PEs" w.Workload.name
        n_pes;
    headers = [ "remote (cyc)"; "BASE"; "CCDP"; "improvement" ];
    trows = rows;
  }

let sweep_queue_table ?(n_pes = 16) ?(points = [ 4; 8; 16; 32; 64 ]) ?jobs
    (w : Workload.t) =
  let rows =
    map_point_rows ?jobs points (fun q ->
        let cfg =
          { (Config.t3d ~n_pes) with Config.prefetch_queue_words = q }
        in
        let compiled = Pipeline.compile cfg w.Workload.program in
        let r =
          Interp.run cfg compiled.Pipeline.program ~plan:compiled.Pipeline.plan
            ~mode:Memsys.Ccdp ()
        in
        [
          string_of_int q;
          string_of_int r.Interp.cycles;
          string_of_int r.Interp.stats.Stats.pf_dropped;
          string_of_int r.Interp.stats.Stats.pf_late;
        ])
  in
  {
    title =
      Printf.sprintf "Sweep: prefetch queue capacity, %s at %d PEs"
        w.Workload.name n_pes;
    headers = [ "queue (words)"; "CCDP cycles"; "dropped"; "late" ];
    trows = rows;
  }
