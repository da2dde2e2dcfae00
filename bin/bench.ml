(* The studies behind [ccdp bench]: every table of the paper plus the
   ablation studies indexed in DESIGN.md, the staleness-oracle overhead
   and the engine throughput.

   The table/ablation/sweep grids are sharded across OCaml domains
   (lib/exec); -j N (or CCDP_JOBS) pins the worker count, -j1 forces the
   sequential reference path. Numbers are identical for every job count.
   Each study also writes its rows and tables as BENCH_<study>.json in the
   working directory (schema: lib/core/bench_json.mli).

   Usage:
     ccdp bench                      -- every study
     ccdp bench table1               -- just Tables 1 and 2
     ccdp bench ablate sweep         -- several studies
     ccdp bench oracle               -- staleness-oracle overhead
     ccdp bench perf --quick         -- engine throughput, reduced sizes
     ccdp bench machines --machine t3d-mesh
                                     -- interconnect sweep, one preset
     ccdp bench rivals --quick       -- hardware-coherence rivals
     ccdp bench all -n 128 --iters 3 --pe 32
                                     -- paper-shaped sizes (slow)
     ccdp bench table1 -n 32 --pes 1,4,16
                                     -- Tables 1 and 2, smaller
     ccdp bench table1 -j 8          -- eight worker domains
   `ccdp perf` times one cell of the perf study with [perf_cell]. *)

open Ccdp_workloads
open Ccdp_core

(* [ccdp bench]'s -n, --iters, --pes and --pe: the problem size and
   time-loop iterations of every study, the machine widths of Tables 1-2
   and the extra kernels, and the one width of the ablations, sweeps,
   machine sweep, oracle and perf studies *)
type sizes = { n : int; iters : int; pes : int list; abl_pes : int }

let ppf = Format.std_formatter

let header title =
  Format.fprintf ppf "@.=== %s ===@.@." title

(* Run [f] against a fresh Bench_json document, then write
   BENCH_<bench>.json stamped with the host wall-clock. *)
let with_bench_json ~bench ~jobs f =
  let doc = Bench_json.create ~bench in
  let t0 = Unix.gettimeofday () in
  f doc;
  let wall_clock_s = Unix.gettimeofday () -. t0 in
  let path = Bench_json.write doc ~jobs ~wall_clock_s in
  Format.fprintf ppf "[%s: wall %.2fs at -j%d]@." path wall_clock_s jobs

let emit doc tbl =
  Bench_json.add_table doc tbl;
  Experiment.print_tbl ppf tbl

let tables sizes jobs =
  header
    (Printf.sprintf
       "Paper Tables 1 and 2 (n=%d, iters=%d; simulated T3D; every run \
        numerically verified against sequential execution)"
       sizes.n sizes.iters);
  let ws = Suite.spec_four ~n:sizes.n ~iters:sizes.iters () in
  let rows = ref [] in
  with_bench_json ~bench:"table1" ~jobs (fun doc ->
      rows := Experiment.evaluate ~jobs ~pes:sizes.pes ws;
      Bench_json.add_rows doc !rows;
      emit doc (Experiment.table1 !rows));
  with_bench_json ~bench:"table2" ~jobs (fun doc ->
      Bench_json.add_rows doc !rows;
      emit doc (Experiment.table2 !rows));
  Format.fprintf ppf
    "Paper Table 2 reference bands: MXM 64.5-89.8%%, VPENTA 4.4-23.9%%, \
     TOMCATV 44.8-69.6%%, SWIM 2.5-13.2%%.@."

let extras_table sizes jobs =
  header "Extra kernels (same protocol)";
  let ws =
    [
      Extras.jacobi ~n:sizes.n ~iters:sizes.iters;
      Extras.dynamic ~n:sizes.n;
      Extras.opaque_sweep ~n:sizes.n;
      Extras.triad ~n:sizes.n;
    ]
  in
  with_bench_json ~bench:"extras" ~jobs (fun doc ->
      let rows = Experiment.evaluate ~jobs ~pes:sizes.pes ws in
      Bench_json.add_rows doc rows;
      emit doc (Experiment.table2 rows))

let ablations sizes jobs =
  header "Ablation studies (DESIGN.md experiments A-C)";
  let ws = Suite.spec_four ~n:sizes.n ~iters:sizes.iters () in
  with_bench_json ~bench:"ablate" ~jobs (fun doc ->
      let emit = emit doc in
      emit (Experiment.ablation_target_table ~n_pes:sizes.abl_pes ~jobs ws);
      emit (Experiment.ablation_technique_table ~n_pes:sizes.abl_pes ~jobs ws);
      emit (Experiment.ablation_coherence_table ~n_pes:sizes.abl_pes ~jobs ws);
      emit (Experiment.ablation_prefetch_clean_table ~n_pes:sizes.abl_pes ~jobs ws);
      emit (Experiment.ablation_vpg_levels_table ~n_pes:sizes.abl_pes ~jobs ws);
      emit (Experiment.ablation_topology_table ~n_pes:64 ~jobs ws))

let sweeps sizes jobs =
  header "Parameter sweeps (DESIGN.md experiment D)";
  let tom = Tomcatv.workload ~n:sizes.n ~iters:sizes.iters in
  let mxm = Mxm.workload ~n:sizes.n in
  with_bench_json ~bench:"sweep" ~jobs (fun doc ->
      let emit = emit doc in
      emit (Experiment.sweep_remote_table ~n_pes:sizes.abl_pes ~jobs tom);
      emit (Experiment.sweep_remote_table ~n_pes:sizes.abl_pes ~jobs mxm);
      (* the queue only matters on the software-pipelined path *)
      emit
        (Experiment.sweep_queue_table ~n_pes:sizes.abl_pes ~jobs
           (Extras.opaque_sweep ~n:sizes.n));
      emit
        (Experiment.sweep_cache_table ~n_pes:sizes.abl_pes ~jobs
           (Mxm.workload ~n:sizes.n)))

(* ---- machine sweep -------------------------------------------------- *)

(* Workload x mode x interconnect: the same kernels on each of the four
   T3D interconnect variants (uniform / torus / mesh / crossbar), plus
   the coherence-cluster sweep — the Clustered mode on the CXL island
   presets anchored against flat CCDP and the flat directory on the same
   crossbar fabric. The t3d rows are the paper machine; the others show
   how much of the CCDP advantage survives a distance model and link
   contention. *)
let machines_bench sizes ~quick ~machine jobs =
  let n = if quick then 24 else sizes.n in
  let iters = if quick then 1 else sizes.iters in
  header
    (Printf.sprintf
       "Machine sweep (n=%d, iters=%d, %d PEs): workload x mode x \
        interconnect"
       n iters sizes.abl_pes);
  let ws = Suite.spec_four ~n ~iters () in
  with_bench_json ~bench:"machines" ~jobs (fun doc ->
      (* a cxl-* --machine filter belongs to the cluster sweep below, not
         the flat BASE/CCDP table (whose presets it would re-island) *)
      let flat_only =
        match machine with
        | Some m
          when Experiment.(
                 List.mem_assoc (String.lowercase_ascii m) cluster_presets) ->
            None
        | m -> m
      in
      emit doc
        (Experiment.machines_table ~n_pes:sizes.abl_pes ?only:flat_only ~jobs
           ws);
      let ctbl =
        Experiment.clusters_table ~n_pes:sizes.abl_pes ?only:machine ~jobs ws
      in
      if ctbl.Experiment.trows <> [] then emit doc ctbl)

(* ---- hardware-coherence rivals -------------------------------------- *)

(* Workload x mode x machine: BASE/CCDP against MSI/MESI snooping and the
   full-map directory, on the torus and crossbar machines. The payoff is
   the scaling cliff: at high PE counts every snooping transaction
   serializes through one bus, so its normalized time blows past both the
   directory and CCDP — most brutally on the crossbar, whose shared ports
   already concentrate the traffic. *)
let rivals_bench sizes ~quick jobs =
  let n = if quick then 16 else sizes.n in
  let iters = if quick then 1 else sizes.iters in
  let n_pes = if quick then 16 else 64 in
  header
    (Printf.sprintf
       "Hardware-coherence rivals (n=%d, iters=%d, %d PEs): workload x \
        mode x machine, normalized to BASE" n iters n_pes);
  let ws = Suite.spec_four ~n ~iters () in
  with_bench_json ~bench:"rivals" ~jobs (fun doc ->
      let rows = Experiment.rivals_rows ~n_pes ~jobs ws in
      Bench_json.add_rivals doc rows;
      emit doc (Experiment.rivals_table rows))

(* ---- engine wall-clock throughput ---------------------------------- *)

(* [warm]: the first run pays lowering/page-in noise. Minor words are
   counted on every domain, outside the timed interval: a sharded run
   allocates on the pool's workers too. *)
let time_run ?(warm = true) f =
  if warm then ignore (f ());
  let words = Ccdp_exec.Pool.all_minor_words in
  let m0 = words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  (r, wall, words () -. m0)

(* one timed run as a BENCH_perf.json row *)
let perf_row ~workload ~mode ~pes ~jobs ~engine ~wall ~cycles
    ~(stats : Ccdp_machine.Stats.t) minor_words =
  let per t = if wall > 0.0 then float_of_int t /. wall else 0.0 in
  let accesses = stats.reads + stats.writes in
  {
    Bench_json.p_workload = workload;
    p_mode = Ccdp_runtime.Memsys.mode_name mode;
    p_engine = engine;
    p_pes = pes;
    p_jobs = jobs;
    p_wall_s = wall;
    p_cycles = cycles;
    p_cycles_per_s = per cycles;
    p_accesses = accesses;
    p_accesses_per_s = per accesses;
    p_minor_words = minor_words;
  }

(* One perf cell: the compiled-plan engine over set-up [s], sharded over
   [jobs] domains when [jobs > 1], then with [~reference] the reference
   tree-walking engine. The reference engine always runs serially, so its
   cycle agreement also certifies sharded against serial. Returns the
   cell's rows, plan first. *)
let perf_cell ?warm ~jobs ~reference ~workload mode (s : Pipeline.setup) =
  let row = perf_row ~workload ~mode ~pes:s.cfg.Ccdp_machine.Config.n_pes in
  let time ?pool () =
    time_run ?warm (fun () ->
        Ccdp_runtime.Interp.run s.cfg ?pool s.program ~plan:s.plan ~mode ())
  in
  let r, wall, mw =
    if jobs > 1 then Ccdp_exec.Pool.with_pool ~jobs (fun pool -> time ~pool ())
    else time ()
  in
  let plan =
    row ~jobs ~engine:"plan" ~wall ~cycles:r.cycles ~stats:r.stats mw
  in
  if not reference then [ plan ]
  else
    let rr, rwall, rmw =
      time_run (fun () ->
          Ccdp_runtime.Interp_ref.run s.cfg s.program ~plan:s.plan ~mode ())
    in
    if rr.cycles <> r.cycles then
      failwith
        (Printf.sprintf "perf: engines disagree on %s/%s (%d vs %d cycles)"
           workload plan.p_mode r.cycles rr.cycles);
    [
      plan;
      row ~jobs:1 ~engine:"ref" ~wall:rwall ~cycles:rr.cycles ~stats:rr.stats
        rmw;
    ]

let perf_header () =
  Format.fprintf ppf "%-8s %-10s %-5s %10s %12s %14s %14s %14s@." "workload"
    "mode" "eng" "wall" "cycles" "sim-cycles/s" "accesses/s" "minor-words"

(* one row as a line of the engine table *)
let print_perf_row (p : Bench_json.perf_row) =
  Format.fprintf ppf "%-8s %-10s %-5s %9.3fs %12d %14.0f %14.0f %14.0f@."
    p.p_workload p.p_mode p.p_engine p.p_wall_s p.p_cycles p.p_cycles_per_s
    p.p_accesses_per_s p.p_minor_words

(* the compiled-plan engine's throughput relative to the reference
   engine, from a cell's [plan; ref] rows *)
let print_ratio = function
  | [ (p : Bench_json.perf_row); r ] when p.p_wall_s > 0.0 ->
      Format.fprintf ppf
        "@.%s/%s compiled-plan engine: %.2fx simulated-cycles/sec of the \
         reference engine.@."
        (String.uppercase_ascii p.p_workload)
        (String.lowercase_ascii p.p_mode)
        (r.p_wall_s /. p.p_wall_s)
  | _ -> ()

(* Host-time throughput of the compiled-plan engine (Interp) across the
   paper's four workloads and every coherence mode, plus the reference
   tree-walking engine (Interp_ref) on the CCDP rows so the speedup of
   the compiled plans is visible in the same document. Timed serially —
   wall-clock and minor words are per-run measurements and parallel
   workers would contend for both. The simulated side (cycles, accesses)
   is asserted identical between the two engines. *)
let perf sizes ~quick jobs =
  let n = if quick then 24 else sizes.n in
  let iters = if quick then 1 else sizes.iters in
  let n_pes = sizes.abl_pes in
  header
    (Printf.sprintf
       "Engine throughput (host wall-clock; n=%d, iters=%d, %d PEs; \
        engine=plan is the compiled-plan Interp, engine=ref the reference \
        tree-walker)"
       n iters n_pes);
  let ws = Suite.spec_four ~n ~iters () in
  with_bench_json ~bench:"perf" ~jobs (fun doc ->
      let emit p =
        Bench_json.add_perf doc p;
        print_perf_row p
      in
      perf_header ();
      let mxm = ref [] in
      List.iter
        (fun (w : Workload.t) ->
          List.iter
            (fun mode ->
              let rows =
                perf_cell ~jobs:1
                  ~reference:(mode = Ccdp_runtime.Memsys.Ccdp)
                  ~workload:w.Workload.name mode
                  (Pipeline.for_mode ~n_pes mode w.Workload.program)
              in
              List.iter emit rows;
              if
                mode = Ccdp_runtime.Memsys.Ccdp
                && String.lowercase_ascii w.Workload.name = "mxm"
              then mxm := rows)
            Ccdp_runtime.Memsys.all_modes)
        ws;
      print_ratio !mxm;
      (* ---- intra-run shard scaling -------------------------------- *)
      (* Wide machines, one run each, sharded over -j domains inside the
         epoch loop (Interp ?pool). Simulated cycles are asserted
         identical across job counts — that is the deterministic claim
         this section certifies; the wall-clock column is reported as
         measured and only speeds up when the host grants real cores. *)
      let scale_pes = if quick then [ 256 ] else [ 1024; 2048; 4096 ] in
      let scale_jobs = if quick then [ 1; 8 ] else [ 1; 4; 8 ] in
      let scale_n = if quick then 48 else 192 in
      let w = Mxm.workload ~n:scale_n in
      Format.fprintf ppf
        "@.Intra-run shard scaling (MXM n=%d, ccdp mode; cycles asserted \
         identical across -j)@."
        scale_n;
      Format.fprintf ppf "%-8s %6s %5s %10s %12s %9s@." "workload" "pes"
        "jobs" "wall" "cycles" "speedup";
      let mode = Ccdp_runtime.Memsys.Ccdp in
      List.iter
        (fun pes ->
          let s = Pipeline.for_mode ~n_pes:pes mode w.Workload.program in
          let baseline = ref None in
          List.iter
            (fun j ->
              (* no warm-up: one timed run per (pes, jobs) cell keeps the
                 wide grid affordable; cycle identity does not need it *)
              let p =
                List.hd
                  (perf_cell ~warm:false ~jobs:j ~reference:false
                     ~workload:w.Workload.name mode s)
              in
              let cycles = p.p_cycles and wall = p.p_wall_s in
              (match !baseline with
              | None -> baseline := Some (cycles, wall)
              | Some (c0, _) ->
                  if cycles <> c0 then
                    failwith
                      (Printf.sprintf
                         "perf scaling: -j%d changed simulated time at %d \
                          PEs (%d vs %d cycles)"
                         j pes cycles c0));
              let speedup =
                match !baseline with
                | Some (_, w0) when wall > 0.0 -> w0 /. wall
                | _ -> 1.0
              in
              Bench_json.add_perf doc p;
              Format.fprintf ppf "%-8s %6d %5d %9.3fs %12d %8.2fx@."
                w.Workload.name pes j wall cycles speedup)
            scale_jobs)
        scale_pes)

(* ---- staleness-oracle cost ---------------------------------------- *)

(* Host cost of arming the dynamic staleness oracle, as minor words per
   simulated access with the oracle off and on, counted by [time_run]
   like every perf row: exact and repeatable, where one timed run each
   way could not resolve the oracle's cost in wall-clock. The oracle is
   pure instrumentation: it must not change the simulated machine
   (cycles are asserted identical). *)
let oracle_overhead sizes =
  header
    "Staleness-oracle cost (minor words per simulated access; simulated \
     cycles unchanged)";
  let ws =
    [
      Tomcatv.workload ~n:sizes.n ~iters:sizes.iters;
      Mxm.workload ~n:sizes.n;
      Extras.jacobi ~n:sizes.n ~iters:sizes.iters;
    ]
  in
  Format.fprintf ppf "%-10s %12s %12s %12s %10s@." "workload" "off (w/acc)"
    "on (w/acc)" "checks" "violations";
  List.iter
    (fun (w : Workload.t) ->
      let mode = Ccdp_runtime.Memsys.Ccdp in
      let s = Pipeline.for_mode ~n_pes:sizes.abl_pes mode w.Workload.program in
      let run ~oracle () =
        Ccdp_runtime.Interp.run s.cfg ~oracle s.program ~plan:s.plan ~mode ()
      in
      let r_off, _, words_off = time_run (run ~oracle:false) in
      let r_on, _, words_on = time_run (run ~oracle:true) in
      if r_on.Ccdp_runtime.Interp.cycles <> r_off.Ccdp_runtime.Interp.cycles
      then
        failwith
          (Printf.sprintf "%s: oracle changed simulated time (%d vs %d)"
             w.Workload.name r_on.Ccdp_runtime.Interp.cycles
             r_off.Ccdp_runtime.Interp.cycles);
      let stats = r_on.Ccdp_runtime.Interp.stats in
      let accesses = float_of_int (stats.reads + stats.writes) in
      let sys = r_on.Ccdp_runtime.Interp.sys in
      Format.fprintf ppf "%-10s %12.4f %12.4f %12d %10d@." w.Workload.name
        (words_off /. accesses) (words_on /. accesses)
        (Ccdp_runtime.Memsys.oracle_checked sys)
        (Ccdp_runtime.Memsys.oracle_violation_count sys))
    ws;
  Format.fprintf ppf "@."

(* ---- studies ------------------------------------------------------- *)

type study =
  | All
  | Table1
  | Table2
  | Ablate
  | Sweep
  | Oracle
  | Perf
  | Machines
  | Rivals

let studies =
  [
    ("all", All); ("table1", Table1); ("table2", Table2); ("ablate", Ablate);
    ("sweep", Sweep); ("oracle", Oracle); ("perf", Perf);
    ("machines", Machines); ("rivals", Rivals);
  ]

(* Runs the named studies in a fixed order, whatever order they are
   named in. [All], or no study at all, runs every study plus the extra
   kernels; Tables 1 and 2 come from one evaluation. *)
let run ~sizes ~quick ~machine ~jobs named =
  let all = named = [] || List.mem All named in
  let has s = all || List.mem s named in
  if has Table1 || has Table2 then tables sizes jobs;
  if all then extras_table sizes jobs;
  if has Ablate then ablations sizes jobs;
  if has Sweep then sweeps sizes jobs;
  if has Machines then machines_bench sizes ~quick ~machine jobs;
  if has Rivals then rivals_bench sizes ~quick jobs;
  if has Oracle then oracle_overhead sizes;
  if has Perf then perf sizes ~quick jobs
