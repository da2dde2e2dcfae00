(* The repository benchmark: one process is one run of one workload.

     main.exe --workload W --seed N --seconds S --trace 0|1

   The run sets up the workload (timed several times, median reported as
   setup_s), makes one oracle-armed check pass that also warms the
   process, then repeats timed passes for S seconds; each unit's host
   time is its fastest pass (its median on shard-wide, see unit_times).
   With --trace 0 the passes go through the library's public
   entry points as a user's run does (Experiment.run_mode +
   Verify.against_sequential, Driver.campaign, Interp.run ?pool) and the
   end-to-end metrics are printed. With --trace 1 untraced passes
   alternate with layered passes that call each layer's public function
   under a span; the per-layer metrics and the tracing overhead are
   printed, and the spans are written to _perfbench/. The last line of
   stdout is one JSON object: {"correct", "attempted", "failed",
   "metrics"}. See perfbench/README.md. *)

module Config = Ccdp_machine.Config
module Stats = Ccdp_machine.Stats
module Program = Ccdp_ir.Program
module Epoch = Ccdp_ir.Epoch
module Craft_parse = Ccdp_ir.Craft_parse
module Annot = Ccdp_analysis.Annot
module Ref_info = Ccdp_analysis.Ref_info
module Region = Ccdp_analysis.Region
module Stale = Ccdp_analysis.Stale
module Target = Ccdp_analysis.Target
module Schedule = Ccdp_analysis.Schedule
module Xplan = Ccdp_analysis.Xplan
module Pipeline = Ccdp_core.Pipeline
module Experiment = Ccdp_core.Experiment
module Craft_emit = Ccdp_core.Craft_emit
module Check = Ccdp_check.Check
module Memsys = Ccdp_runtime.Memsys
module Interp = Ccdp_runtime.Interp
module Verify = Ccdp_runtime.Verify
module Workload = Ccdp_workloads.Workload
module Pool = Ccdp_exec.Pool
module Gen = Ccdp_fuzz.Gen
module Driver = Ccdp_fuzz.Driver

let now = Unix.gettimeofday

let add tbl name v =
  Hashtbl.replace tbl name
    (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0)

let get tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest order statistic with at least ten samples above it; the
   median when there are too few samples for that to lie above it. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else Float.max (median xs) a.(max 0 (n - 11))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Sizes; README.md says why each was chosen. *)
let kernel_n = 64
let kernel_iters = 2
let fuzz_programs = 800

(* Programs Driver.campaign checks between progress reports at ~jobs:1. *)
let fuzz_batch = 8

let shard_n = 128
let shard_pes = 256
let shard_domains = 2
let setup_reps = 101

(* The nine modes the per-layer ledger reports, by metric suffix. *)
let ledger_modes =
  Memsys.[ Seq; Base; Ccdp; Invalidate; Hscd; Msi; Mesi; Directory; Clustered ]

let mode_key m = String.lowercase_ascii (Memsys.mode_name m)

(* One verified unit of paper-run: one kernel under one mode on the T3D
   at [kernel_pes], the `ccdp run` path. *)
type kunit = {
  w : Workload.t;
  mode : Memsys.mode;
  mutable expect_cycles : int;  (** set by the check pass *)
}

let kernel_pes = 16

let paper_units () =
  List.concat_map
    (fun w ->
      List.map
        (fun mode -> { w; mode; expect_cycles = -1 })
        Memsys.[ Seq; Base; Ccdp; Invalidate; Hscd ])
    (Ccdp_workloads.Suite.spec_four ~n:kernel_n ~iters:kernel_iters ())

(* The kernels are the paper's, so the seed cannot change their work: it
   fixes the order the units run in. *)
let shuffle seed xs =
  let rng = Random.State.make [| seed; 0x7be5 |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The programs Driver.campaign draws for [seed]: its generator stream is
   Random.State.make [| seed; 0x51ab |]. The traced run checks that its
   run count matches the campaign's, so a change to that stream fails the
   run instead of silently timing different programs. *)
let fuzz_descs seed count =
  let rng = Random.State.make [| seed; 0x51ab |] in
  List.init count (fun _ -> Gen.generate rng)

type shard_env = {
  sw : Workload.t;
  scfg : Config.t;
  compiled : Pipeline.t;
  pool : Pool.t;
  mutable reference : Interp.result option;  (** 1-domain run *)
}

type env =
  | Kernels of kunit list
  | Fuzz of { seed : int; descs : Gen.desc list }
  | Shard of shard_env

let workloads = [ "paper-run"; "fuzz"; "shard-wide" ]

let setup name seed =
  match name with
  | "paper-run" -> Kernels (shuffle seed (paper_units ()))
  | "fuzz" -> Fuzz { seed; descs = fuzz_descs seed fuzz_programs }
  | "shard-wide" ->
      let sw = Ccdp_workloads.Mxm.workload ~n:shard_n in
      let scfg = Config.t3d ~n_pes:shard_pes in
      let compiled = Pipeline.compile scfg sw.Workload.program in
      let pool = Pool.create ~jobs:shard_domains in
      Shard { sw; scfg; compiled; pool; reference = None }
  | _ -> invalid_arg name

let release = function Shard s -> Pool.shutdown s.pool | _ -> ()

(* ------------------------------------------------------------------ *)
(* Untraced passes: public entry points only                           *)
(* ------------------------------------------------------------------ *)

type pass = {
  wall : float;
  unit_s : (float * int) list;
      (** host time of each sample and the verified units it covers: one
          for kernels and shard-wide, a campaign batch for fuzz *)
  runs : int;  (** verified simulator runs *)
  attempted : int;  (** units *)
  failed : int;
  cycles : int;
  accesses : int;
  minor_words : float;
  problems : string list;
}

let empty_pass =
  {
    wall = 0.0;
    unit_s = [];
    runs = 0;
    attempted = 0;
    failed = 0;
    cycles = 0;
    accesses = 0;
    minor_words = 0.0;
    problems = [];
  }

let accesses_of (r : Interp.result) =
  r.Interp.stats.Stats.reads + r.Interp.stats.Stats.writes

let kernel_unit u =
  let r = Experiment.run_mode ~n_pes:kernel_pes u.mode u.w in
  let v = Verify.against_sequential u.w.Workload.program ~init:(fun _ -> ()) r in
  let ok =
    v.Verify.ok
    && Memsys.oracle_violation_count r.Interp.sys = 0
    && r.Interp.cycles = u.expect_cycles
  in
  (ok, r)

let plain_pass env =
  match env with
  | Kernels units ->
      List.fold_left
        (fun p u ->
          let t0 = now () in
          let outcome =
            match kernel_unit u with
            | ok, r -> (ok, r.Interp.cycles, accesses_of r, "")
            | exception e -> (false, 0, 0, Printexc.to_string e)
          in
          let dt = now () -. t0 in
          let ok, cycles, accesses, exn = outcome in
          {
            p with
            unit_s = (dt, 1) :: p.unit_s;
            runs = p.runs + 1;
            attempted = p.attempted + 1;
            failed = (p.failed + if ok then 0 else 1);
            cycles = p.cycles + cycles;
            accesses = p.accesses + accesses;
            problems =
              (if ok then p.problems
               else
                 Printf.sprintf "%s/%s: %d cycles (expected %d), unverified %s"
                   u.w.Workload.name (Memsys.mode_name u.mode) cycles
                   u.expect_cycles exn
                 :: p.problems);
          })
        empty_pass units
  | Fuzz { seed; descs } -> (
      let count = List.length descs in
      (* the campaign checks [fuzz_batch] programs, then reports each of
         them: one sample per batch, its time per program *)
      let marks = ref [] in
      let last = ref (now ()) and pending = ref 0 in
      let progress i =
        incr pending;
        if i mod fuzz_batch = 0 || i = count then begin
          let t = now () in
          marks := (t -. !last, !pending) :: !marks;
          last := t;
          pending := 0
        end
      in
      match Driver.campaign ~jobs:1 ~seed ~count ~progress () with
      | s ->
          let nfail = List.length s.Driver.s_failures in
          let escapes = s.Driver.s_static_escapes in
          {
            empty_pass with
            unit_s = !marks;
            runs = s.Driver.s_runs;
            attempted = count;
            failed = max nfail escapes;
            problems =
              (if nfail + escapes = 0 then []
               else
                 [
                   Printf.sprintf "fuzz: %d failing programs, %d static escapes"
                     nfail escapes;
                 ]);
          }
      | exception e ->
          {
            empty_pass with
            attempted = count;
            failed = count;
            problems = [ Printexc.to_string e ];
          })
  | Shard s -> (
      let t0 = now () in
      let prog = s.compiled.Pipeline.program in
      match
        Interp.run s.scfg ~pool:s.pool prog ~plan:s.compiled.Pipeline.plan
          ~mode:Memsys.Ccdp ()
      with
      | exception e ->
          { empty_pass with attempted = 1; failed = 1; problems = [ Printexc.to_string e ] }
      | r ->
          let dt = now () -. t0 in
          let ok =
            match s.reference with
            | None -> false
            | Some ref_r ->
                r.Interp.cycles = ref_r.Interp.cycles
                && (Verify.compare_states ~expected:ref_r.Interp.sys
                      ~got:r.Interp.sys prog)
                     .Verify.ok
          in
          {
            empty_pass with
            unit_s = [ (dt, 1) ];
            runs = 1;
            attempted = 1;
            failed = (if ok then 0 else 1);
            cycles = r.Interp.cycles;
            accesses = accesses_of r;
            problems =
              (if ok then []
               else [ "sharded run differs from the 1-domain run" ]);
          })

(* ------------------------------------------------------------------ *)
(* Layered passes: each layer's public function under a span           *)
(* ------------------------------------------------------------------ *)

(* Per-pass ledger of the layered path: exact counters (simulated events,
   allocations, compiler facts) in [counts]; span times in the tracer,
   copied into [times] when the pass ends. *)
type ledger = {
  tr : Trace.t;
  counts : (string, float) Hashtbl.t;
  mutable times : (string, float) Hashtbl.t;
  mutable side : float;
  mutable l_wall : float;
  mutable l_attempted : int;
  mutable l_failed : int;
  mutable l_problems : string list;
}

let problem lg fmt =
  Printf.ksprintf (fun s -> lg.l_problems <- s :: lg.l_problems) fmt

let unit_ok lg ~name ok =
  lg.l_attempted <- lg.l_attempted + 1;
  if not ok then begin
    lg.l_failed <- lg.l_failed + 1;
    problem lg "%s failed verification" name
  end

let machine_counters =
  [
    ("machine.hits", fun s -> s.Stats.hits);
    ("machine.miss_remote", fun s -> s.Stats.miss_remote);
    ("machine.bypass_reads", fun s -> s.Stats.bypass_reads);
    ("machine.pf_issued", fun s -> s.Stats.pf_issued);
    ("machine.pf_late", fun s -> s.Stats.pf_late);
    ("machine.pf_dropped", fun s -> s.Stats.pf_dropped);
    ("machine.pf_unused", fun s -> s.Stats.pf_unused);
    ("machine.stall_cycles", fun s -> s.Stats.stall_cycles);
    ("machine.invalidations", fun s -> s.Stats.invalidations);
    ("machine.dir_msgs", fun s -> s.Stats.dir_msgs);
    ("machine.bus_conflicts", fun s -> s.Stats.bus_conflicts);
    ("machine.link_conflicts", fun s -> s.Stats.link_conflicts);
    ("machine.cluster_hits", fun s -> s.Stats.cluster_hits);
    ("machine.cluster_inter", fun s -> s.Stats.cluster_inter);
  ]

(* Simulated totals of a run being verified. *)
let record_run lg (r : Interp.result) =
  let s = r.Interp.stats in
  let c name v = add lg.counts name (float_of_int v) in
  c "sim_cycles" r.Interp.cycles;
  c "accesses" (accesses_of r);
  c "runs" 1;
  List.iter (fun (name, f) -> c name (f s)) machine_counters;
  let lw = (Memsys.cfg r.Interp.sys).Config.line_words in
  c "pf.consumed" (s.Stats.pf_on_time + s.Stats.pf_late);
  c "pf.attempts"
    (s.Stats.pf_issued + (s.Stats.pf_vector_words / max 1 lw) + s.Stats.pf_dropped);
  c "runtime.oracle_checks" (Memsys.oracle_checked r.Interp.sys)

(* Interp.run under a span named after its mode, with its allocation.
   [reference] runs (the fuzz sequential baselines, the shard workload's
   1-domain run) count towards their mode's time and allocation but not
   towards the simulated totals, which cover the runs being verified. *)
let interp lg ?(side = false) ?(reference = false) ?oracle ?pool cfg program
    ~plan ~mode =
  let key = mode_key mode in
  let w0 = Gc.minor_words () in
  let r =
    Trace.span ~side lg.tr ("runtime.interp." ^ key) (fun () ->
        Interp.run cfg ?oracle ?pool program ~plan ~mode ())
  in
  add lg.counts ("words." ^ key) (Gc.minor_words () -. w0);
  add lg.counts ("accesses." ^ key) (float_of_int (accesses_of r));
  if not reference then record_run lg r;
  r

(* The phases of Pipeline.compile, one span each, run beside the real
   compile (whose result is the one used) so each phase's time shows. *)
let compile_phases lg cfg ~tuning ~prefetch_clean ~cluster_coherent program =
  let sp name f = Trace.span lg.tr name f in
  Trace.span ~side:true lg.tr "compile.phases" (fun () ->
      let program = sp "ir.inline" (fun () -> Program.inline program) in
      let epochs =
        sp "ir.partition" (fun () -> Epoch.partition program.Program.main)
      in
      let infos = sp "analysis.refs" (fun () -> Ref_info.collect epochs) in
      let region =
        sp "analysis.region" (fun () ->
            Region.make program ~n_pes:cfg.Config.n_pes)
      in
      let cluster_pes =
        if cluster_coherent && cfg.Config.n_pes mod cfg.Config.cluster_pes = 0
        then cfg.Config.cluster_pes
        else 1
      in
      let stale =
        sp "analysis.stale" (fun () -> Stale.analyze ~cluster_pes region infos)
      in
      let target =
        sp "analysis.target" (fun () ->
            Target.analyze ~prefetch_clean region cfg infos stale)
      in
      ignore
        (sp "analysis.schedule" (fun () ->
             Schedule.analyze region cfg ~tuning infos stale target)))

let compile lg ?(tuning = Schedule.default_tuning) ?(prefetch_clean = false)
    ?(cluster_coherent = false) cfg program =
  let c =
    Trace.span lg.tr "core.compile" (fun () ->
        Pipeline.compile cfg ~tuning ~prefetch_clean ~cluster_coherent program)
  in
  let count name v = add lg.counts name (float_of_int v) in
  count "core.compiles" 1;
  count "analysis.reads" c.Pipeline.stale.Stale.n_reads;
  count "analysis.stale" c.Pipeline.stale.Stale.n_stale;
  let k = Annot.count c.Pipeline.plan in
  count "analysis.plan_ops"
    (k.Annot.n_vector + k.Annot.n_pipelined + k.Annot.n_back);
  compile_phases lg cfg ~tuning ~prefetch_clean ~cluster_coherent program;
  ignore
    (Trace.span ~side:true lg.tr "analysis.xplan_lower" (fun () ->
         Xplan.lower c.Pipeline.program c.Pipeline.epochs c.Pipeline.plan));
  c

(* Certifier errors of a compile; [side] when the run path does not
   certify (the kernels' `ccdp run` path). *)
let certify lg ?(side = false) c =
  let diags = Trace.span ~side lg.tr "check.certify" (fun () -> Check.certify c) in
  add lg.counts "check.diags" (float_of_int (List.length diags));
  Check.errors diags

(* Parse CRAFT text the system emitted: the front end on real input. *)
let parse_back lg ~name emit =
  let text = Trace.span ~side:true lg.tr "core.emit" emit in
  match
    Trace.span ~side:true lg.tr "ir.parse" (fun () -> Craft_parse.program text)
  with
  | _ -> true
  | exception Craft_parse.Error (l, c, msg) ->
      problem lg "%s: emitted CRAFT does not parse back (%d:%d: %s)" name l c msg;
      false

(* One kernel unit decomposed; mirrors Experiment.run_mode. *)
let layered_kernel lg ~oracle u =
  let name = Printf.sprintf "%s/%s" u.w.Workload.name (Memsys.mode_name u.mode) in
  let cfg = Config.t3d ~n_pes:(if u.mode = Memsys.Seq then 1 else kernel_pes) in
  let program, plan, static_ok =
    match u.mode with
    | Memsys.Ccdp ->
        let c = compile lg cfg u.w.Workload.program in
        let certified = certify lg ~side:true c = [] in
        let parsed = parse_back lg ~name (fun () -> Craft_emit.to_string c) in
        (c.Pipeline.program, c.Pipeline.plan, certified && parsed)
    | _ ->
        ( Trace.span lg.tr "ir.inline" (fun () -> Program.inline u.w.Workload.program),
          Annot.empty (),
          true )
  in
  ignore
    (Trace.span ~side:true lg.tr "runtime.memsys_create" (fun () ->
         Memsys.create cfg program ~plan u.mode));
  let r = interp lg ~oracle cfg program ~plan ~mode:u.mode in
  let v =
    Trace.span lg.tr "runtime.verify" (fun () ->
        Verify.against_sequential u.w.Workload.program ~init:(fun _ -> ()) r)
  in
  add lg.counts "runtime.verify_elems" (float_of_int v.Verify.checked);
  if u.expect_cycles < 0 then u.expect_cycles <- r.Interp.cycles;
  unit_ok lg ~name
    (static_ok && v.Verify.ok
    && Memsys.oracle_violation_count r.Interp.sys = 0
    && r.Interp.cycles = u.expect_cycles);
  r

(* The differential campaign's variants in Driver's run order (Driver does
   not export them), rebuilt here so each layer call can be timed. *)
let fuzz_variants =
  let t = Schedule.default_tuning in
  Memsys.
    [
      (Base, None);
      (Ccdp, Some t);
      (Ccdp, Some { t with Schedule.allow_sp = false; allow_mbp = false });
      (Ccdp, Some { t with Schedule.allow_vpg = false; allow_mbp = false });
      (Ccdp, Some { t with Schedule.allow_vpg = false; allow_sp = false });
      (Msi, None);
      (Mesi, None);
      (Directory, None);
      (Clustered, Some t);
    ]

(* One fuzz program decomposed; mirrors Driver.check_full. *)
let layered_fuzz lg (d : Gen.desc) =
  let program = Trace.span lg.tr "fuzz.build" (fun () -> Gen.build d) in
  let cfg = Config.of_kind d.Gen.net ~n_pes:d.Gen.n_pes in
  let seq =
    interp lg ~reference:true
      { cfg with Config.n_pes = 1; cluster_pes = 1 }
      program ~plan:(Annot.empty ()) ~mode:Memsys.Seq
  in
  let rec variants = function
    | [] -> true
    | (mode, tuning) :: rest ->
        let cfg, cluster_coherent =
          match mode with
          | Memsys.Clustered ->
              let n = cfg.Config.n_pes in
              let cluster_pes = if n > 1 && n mod 2 = 0 then n / 2 else 1 in
              ({ cfg with Config.cluster_pes }, true)
          | _ -> (cfg, false)
        in
        let run_program, plan =
          match tuning with
          | None -> (program, Annot.empty ())
          | Some tuning ->
              let c =
                compile lg ~tuning ~prefetch_clean:d.Gen.pclean
                  ~cluster_coherent cfg program
              in
              (c.Pipeline.program, c.Pipeline.plan)
        in
        let r = interp lg ~oracle:true cfg run_program ~plan ~mode in
        let v =
          Trace.span lg.tr "runtime.verify" (fun () ->
              Verify.compare_states ~expected:seq.Interp.sys ~got:r.Interp.sys
                program)
        in
        add lg.counts "runtime.verify_elems" (float_of_int v.Verify.checked);
        Memsys.oracle_violation_count r.Interp.sys = 0
        && v.Verify.ok && variants rest
  in
  let dynamic_ok = variants fuzz_variants in
  let static_ok =
    certify lg (compile lg ~prefetch_clean:d.Gen.pclean cfg program) = []
  in
  let parsed =
    parse_back lg ~name:"fuzz program" (fun () -> Driver.reproducer_text d)
  in
  unit_ok lg ~name:"fuzz program" (dynamic_ok && static_ok && parsed)

(* The shard workload decomposed: the 1-domain run (the reference every
   sharded pass must equal) and the sharded run. With [oracle] the
   1-domain run is oracle-armed, verified against sequential execution and
   kept as the reference. *)
let layered_shard lg ~oracle s =
  let prog = s.compiled.Pipeline.program and plan = s.compiled.Pipeline.plan in
  let serial =
    interp lg ~side:true ~reference:true ~oracle s.scfg prog ~plan
      ~mode:Memsys.Ccdp
  in
  if oracle then begin
    let v =
      Trace.span ~side:true lg.tr "runtime.verify" (fun () ->
          Verify.against_sequential s.sw.Workload.program ~init:(fun _ -> ())
            serial)
    in
    add lg.counts "runtime.verify_elems" (float_of_int v.Verify.checked);
    add lg.counts "runtime.oracle_checks"
      (float_of_int (Memsys.oracle_checked serial.Interp.sys));
    unit_ok lg ~name:"MXM/CCDP on 1 domain"
      (v.Verify.ok && Memsys.oracle_violation_count serial.Interp.sys = 0);
    s.reference <- Some serial
  end;
  let r =
    Trace.span lg.tr "exec.shard" (fun () ->
        Interp.run s.scfg ~pool:s.pool prog ~plan ~mode:Memsys.Ccdp ())
  in
  record_run lg r;
  let v =
    Trace.span lg.tr "runtime.verify" (fun () ->
        Verify.compare_states ~expected:serial.Interp.sys ~got:r.Interp.sys prog)
  in
  add lg.counts "runtime.verify_elems" (float_of_int v.Verify.checked);
  unit_ok lg ~name:"MXM/CCDP sharded"
    (v.Verify.ok && r.Interp.cycles = serial.Interp.cycles)

(* CCDP over BASE, percent, per kernel (paper Table 2). *)
let improvements results =
  List.filter_map
    (fun (u, r) ->
      if u.mode <> Memsys.Base then None
      else
        List.find_map
          (fun (u', c) ->
            if u'.mode = Memsys.Ccdp && u'.w == u.w then
              let b = float_of_int r.Interp.cycles in
              Some
                ( String.lowercase_ascii u.w.Workload.name,
                  100.0 *. (b -. float_of_int c.Interp.cycles) /. b )
            else None)
          results)
    results

let layered_pass ~oracle tr env =
  Trace.new_pass tr;
  let lg =
    {
      tr;
      counts = Hashtbl.create 64;
      times = Hashtbl.create 0;
      side = 0.0;
      l_wall = 0.0;
      l_attempted = 0;
      l_failed = 0;
      l_problems = [];
    }
  in
  let guarded name f =
    Trace.new_unit tr;
    match Trace.span tr "unit" f with
    | v -> Some v
    | exception e ->
        lg.l_attempted <- lg.l_attempted + 1;
        lg.l_failed <- lg.l_failed + 1;
        problem lg "%s raised %s" name (Printexc.to_string e);
        None
  in
  let t0 = now () in
  (match env with
  | Kernels units ->
      let results =
        List.filter_map
          (fun u ->
            Option.map
              (fun r -> (u, r))
              (guarded u.w.Workload.name (fun () -> layered_kernel lg ~oracle u)))
          units
      in
      List.iter
        (fun (k, pct) -> add lg.counts ("accuracy.improvement_pct." ^ k) pct)
        (improvements results)
  | Fuzz { seed; descs } ->
      let descs =
        Trace.span tr "fuzz.gen" (fun () -> fuzz_descs seed (List.length descs))
      in
      List.iter
        (fun d -> ignore (guarded "fuzz program" (fun () -> layered_fuzz lg d)))
        descs
  | Shard s -> ignore (guarded "MXM" (fun () -> layered_shard lg ~oracle s)));
  lg.l_wall <- now () -. t0;
  lg.times <- Hashtbl.copy tr.Trace.totals;
  lg.side <- tr.Trace.side_total;
  lg

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Peak resident set of the process (VmHWM), falling back to the OCaml
   heap's peak where /proc is missing. *)
let peak_rss_mb () =
  let heap () =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> heap ()
  | ic ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> heap ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

(* Host time of each sample across the timed passes, with its unit
   count. The host is a shared VM whose speed drifts by up to 2x over
   minutes (README.md, "Run discipline"); interference only ever adds
   time, so a single-threaded sample's fastest observation is its
   steadiest estimate. shard-wide runs on every core at once and is
   fastest only in rare moments when the host frees them all, so its
   median is the steadier figure. *)
let unit_times workload passes =
  let stat =
    if workload = "shard-wide" then median
    else function [] -> 0.0 | x :: xs -> List.fold_left Float.min x xs
  in
  let n =
    List.fold_left (fun a p -> min a (List.length p.unit_s)) max_int passes
  in
  let cols = List.map (fun p -> Array.of_list p.unit_s) passes in
  List.init n (fun i ->
      (stat (List.map (fun a -> fst a.(i)) cols), snd (List.hd cols).(i)))

let end_to_end ~workload ~setup_s ~check ~attempted ~failed
    (passes : pass list) =
  let samples = unit_times workload passes in
  let wall = List.fold_left (fun a (t, _) -> a +. t) 0.0 samples in
  let units = List.map (fun (t, k) -> t /. float_of_int k) samples in
  let first = List.hd passes in
  (* Driver.campaign reports no simulated totals: for fuzz they come from
     the layered check pass over the same programs *)
  let cycles, accesses =
    if first.accesses > 0 then
      (float_of_int first.cycles, float_of_int first.accesses)
    else (get check.counts "sim_cycles", get check.counts "accesses")
  in
  [
    m "setup_s" "s" setup_s;
    m "wall_s" "s" wall;
    m "runs_per_s" "1/s" (ratio (float_of_int first.runs) wall);
    m "sim_cycles_per_s" "cycles/s" (ratio cycles wall);
    m "accesses_per_s" "1/s" (ratio accesses wall);
    m "unit_ms_p50" "ms" (1000.0 *. median units);
    m "unit_ms_tail" "ms" (1000.0 *. tail units);
    m "minor_words_per_access" "words" (ratio first.minor_words accesses);
    m "peak_heap_mb" "MB" (peak_rss_mb ());
    m "sim_cycles" "cycles" cycles;
    m "verified_ratio" "ratio"
      (ratio (float_of_int (attempted - failed)) (float_of_int attempted));
  ]

let span_metrics =
  [
    ("ir.parse_s", "ir.parse");
    ("ir.inline_s", "ir.inline");
    ("ir.partition_s", "ir.partition");
    ("analysis.refs_s", "analysis.refs");
    ("analysis.region_s", "analysis.region");
    ("analysis.stale_s", "analysis.stale");
    ("analysis.target_s", "analysis.target");
    ("analysis.schedule_s", "analysis.schedule");
    ("analysis.xplan_lower_s", "analysis.xplan_lower");
    ("core.compile_s", "core.compile");
    ("check.certify_s", "check.certify");
    ("runtime.memsys_create_s", "runtime.memsys_create");
    ("runtime.verify_s", "runtime.verify");
    ("exec.shard_s", "exec.shard");
    ("fuzz.gen_s", "fuzz.gen");
    ("fuzz.build_s", "fuzz.build");
  ]

(* Paper Table 2: CCDP over BASE, percent, across 1-64 PEs. *)
let paper_band =
  [
    ("mxm", 64.5, 89.8);
    ("vpenta", 4.4, 23.9);
    ("tomcatv", 44.8, 69.6);
    ("swim", 2.5, 13.2);
  ]

(* Span times are per-pass medians over the traced passes; counters come
   from the last traced pass (checked identical across them), except the
   oracle count outside fuzz: those traced runs leave the oracle off as
   the untraced path does, so it comes from the oracle-armed check pass. *)
let per_layer ~workload ~check ~traced ~overhead_pct =
  let last = List.hd (List.rev traced) in
  let span name = median (List.map (fun lg -> get lg.times name) traced) in
  let count name = get last.counts name in
  let oracle_source = if workload = "fuzz" then last else check in
  List.map (fun (metric, sp) -> m metric "s" (span sp)) span_metrics
  @ [
      m "analysis.stale_ratio" "ratio"
        (ratio (count "analysis.stale") (count "analysis.reads"));
      m "analysis.plan_ops" "count" (count "analysis.plan_ops");
      m "core.compiles" "count" (count "core.compiles");
      m "check.diags" "count" (count "check.diags");
      m "runtime.verify_elems" "count" (count "runtime.verify_elems");
      m "runtime.oracle_checks" "count"
        (get oracle_source.counts "runtime.oracle_checks");
    ]
  @ List.concat_map
      (fun mode ->
        let k = mode_key mode in
        [
          m ("runtime.interp_s." ^ k) "s" (span ("runtime.interp." ^ k));
          m
            ("runtime.minor_words_per_access." ^ k)
            "words"
            (ratio (count ("words." ^ k)) (count ("accesses." ^ k)));
        ])
      ledger_modes
  @ List.map (fun (n, _) -> m n "count" (count n)) machine_counters
  @ [
      m "machine.pf_useful_ratio" "ratio"
        (ratio (count "pf.consumed") (count "pf.attempts"));
      m "exec.shard_speedup" "x"
        (if workload = "shard-wide" then
           ratio (span "runtime.interp.ccdp") (span "exec.shard")
         else 0.0);
      m "trace.overhead_pct" "%" overhead_pct;
    ]
  @ List.map
      (fun (k, _, _) ->
        m
          ("accuracy.improvement_pct." ^ k)
          "%"
          (get check.counts ("accuracy.improvement_pct." ^ k)))
      paper_band

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-40s %18.6f %s\n" x.name x.value x.unit_)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (json_number x.value) x.unit_)
          metrics))

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* Minor words allocated by every domain so far. Gc.minor_words counts the
   calling domain only, which on shard-wide would depend on which shards
   that domain happened to run; after a minor collection Gc.quick_stat
   holds the program-wide total. *)
let all_minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let timed f =
  Gc.full_major ();
  let w0 = all_minor_words () in
  let t0 = now () in
  let p = f () in
  let wall = now () -. t0 in
  { p with wall; minor_words = all_minor_words () -. w0 }

let sorted_counts lg =
  List.sort compare (List.of_seq (Hashtbl.to_seq lg.counts))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  let usage =
    "main.exe --workload " ^ String.concat "|" workloads
    ^ " --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads && (!trace = 0 || !trace = 1)) then begin
    prerr_endline usage;
    exit 2
  end;
  let traced_run = !trace = 1 in
  let set_up () =
    let t0 = now () in
    let e = setup !workload !seed in
    (now () -. t0, e)
  in
  let times =
    List.init (setup_reps - 1) (fun _ ->
        let t, e = set_up () in
        release e;
        t)
  in
  let t_last, env = set_up () in
  let setup_s = median (t_last :: times) in
  let tr = Trace.create () in
  let t0 = now () in
  let check = layered_pass ~oracle:true tr env in
  let check_s = now () -. t0 in
  (* the sharded path's first run is markedly slower *)
  (match env with Shard _ -> ignore (plain_pass env) | _ -> ());
  let deadline = now () +. !seconds in
  (* stop once the next pass, judged by the fastest so far, would overrun *)
  let fastest = function [] -> 0.0 | x :: xs -> List.fold_left Float.min x xs in
  let rec loop plains traced =
    let next =
      fastest (List.map (fun p -> p.wall) plains)
      +. fastest (List.map (fun lg -> lg.l_wall) traced)
    in
    if plains <> [] && now () +. next > deadline then
      (List.rev plains, List.rev traced)
    else
      let p = timed (fun () -> plain_pass env) in
      if traced_run then
        loop (p :: plains) (layered_pass ~oracle:false tr env :: traced)
      else loop (p :: plains) traced
  in
  let plains, traced = loop [] [] in
  release env;
  let attempted =
    check.l_attempted
    + List.fold_left (fun a p -> a + p.attempted) 0 plains
    + List.fold_left (fun a lg -> a + lg.l_attempted) 0 traced
  in
  let failed =
    check.l_failed
    + List.fold_left (fun a p -> a + p.failed) 0 plains
    + List.fold_left (fun a lg -> a + lg.l_failed) 0 traced
  in
  let problems =
    check.l_problems
    @ List.concat_map (fun p -> p.problems) plains
    @ List.concat_map (fun lg -> lg.l_problems) traced
  in
  let problems =
    match env with
    | Fuzz _ ->
        let layered = int_of_float (get check.counts "runs") in
        let campaign = (List.hd plains).runs in
        if layered = campaign then problems
        else
          Printf.sprintf
            "layered fuzz pass made %d variant runs, Driver.campaign %d"
            layered campaign
          :: problems
    | _ -> problems
  in
  let problems =
    match traced with
    | first :: rest
      when List.exists (fun lg -> sorted_counts lg <> sorted_counts first) rest
      ->
        "exact counters differ between traced passes" :: problems
    | _ -> problems
  in
  Printf.printf
    "%s seed %d: set-up %.4f s (median of %d), check pass %.2f s, %d timed \
     passes%s\n"
    !workload !seed setup_s setup_reps check_s (List.length plains)
    (if traced_run then Printf.sprintf ", %d traced" (List.length traced) else "");
  Printf.printf "pass walls (s): %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) plains));
  List.iter (fun s -> Printf.printf "problem: %s\n" s) problems;
  if !workload = "paper-run" then
    List.iter
      (fun (k, lo, hi) ->
        let v = get check.counts ("accuracy.improvement_pct." ^ k) in
        Printf.printf
          "  accuracy (informational) %-8s CCDP over BASE %6.1f%%, paper \
           Table 2 %.1f-%.1f%% %s\n"
          k v lo hi
          (if v >= lo && v <= hi then "inside" else "outside"))
      paper_band;
  let metrics =
    if not traced_run then
      end_to_end ~workload:!workload ~setup_s ~check ~attempted ~failed plains
    else begin
      (* each layered pass runs right after an untraced one, so the pair
         shares the host's speed of the moment; the median pair decides *)
      let pairs =
        List.map2
          (fun p lg -> (p.wall, lg.l_wall -. lg.side))
          plains traced
      in
      let overhead_pct =
        median
          (List.map (fun (p, t) -> 100.0 *. ratio (t -. p) p) pairs)
      in
      Printf.printf
        "tracing overhead: %s (untraced s, layered s without side spans); \
         median %+.1f%%\n"
        (String.concat " "
           (List.map (fun (p, t) -> Printf.sprintf "%.3f/%.3f" p t) pairs))
        overhead_pct;
      (try Sys.mkdir "_perfbench" 0o755 with Sys_error _ -> ());
      let path =
        Printf.sprintf "_perfbench/trace-%s-seed%d.json" !workload !seed
      in
      Trace.write tr path;
      Printf.printf "spans written to %s\n" path;
      per_layer ~workload:!workload ~check ~traced ~overhead_pct
    end
  in
  print_result
    ~correct:(failed = 0 && problems = [])
    ~attempted ~failed metrics
