(* Engine equivalence: the compiled-plan interpreter (Interp) against the
   reference tree-walker (Interp_ref).

   Interp_ref is the pre-refactor engine kept verbatim as the executable
   specification of the timed semantics; the compiled-plan engine must
   reproduce it cycle-for-cycle. Checked here on a fixed-seed fuzz corpus
   and on the paper's four workloads, across every coherence mode:
   cycles, access statistics, per-PE clocks, epoch count and profile, and
   the final shared-memory image must all be identical (tolerance 0).

   The point of the compiled plans is a hot path that allocates nothing
   per access, so the last group is a Gc regression gate on MXM n=32 at
   8 PEs: the compiled engine must stay under half the reference
   engine's minor-heap words, within 26 minor words per simulated access
   on CCDP and within 3 in every mode (each measures under 1: what
   remains is per-run set-up), and the sequential verification of a run
   within half a word per access it verifies. *)

open Ccdp_test_support.Tutil
module Memsys = Ccdp_runtime.Memsys
module Interp = Ccdp_runtime.Interp
module Interp_ref = Ccdp_runtime.Interp_ref
module Gen = Ccdp_fuzz.Gen
module Workload = Ccdp_workloads.Workload
module Pipeline = Ccdp_core.Pipeline

let modes = Memsys.all_modes

(* one shared 4-worker pool for the sharded re-runs below; created once
   around the whole suite (see the bottom of the file) because domain
   spawn/join per case would dominate the test's runtime *)
let shard_pool : Ccdp_exec.Pool.t option ref = ref None

let assert_equal_runs ?machine name program ~n_pes mode =
  let { Pipeline.cfg; program = prog; plan; _ } =
    Pipeline.for_mode ?machine ~n_pes mode program
  in
  let a = Interp.run cfg prog ~plan ~mode () in
  let b = Interp_ref.run cfg prog ~plan ~mode () in
  let against tagp (r : Interp.result) =
    let tag s = name ^ "/" ^ Memsys.mode_name mode ^ tagp ^ ": " ^ s in
    check_int (tag "cycles") b.Interp_ref.cycles r.Interp.cycles;
    check_true (tag "stats") (b.Interp_ref.stats = r.Interp.stats);
    check_true (tag "per-PE clocks")
      (b.Interp_ref.per_pe_cycles = r.Interp.per_pe_cycles);
    check_int (tag "epochs") b.Interp_ref.epochs r.Interp.epochs;
    check_true (tag "epoch profile")
      (b.Interp_ref.epoch_profile = r.Interp.epoch_profile);
    let mem =
      Ccdp_runtime.Verify.compare_states ~expected:b.Interp_ref.sys
        ~got:r.Interp.sys prog
    in
    check_true (tag "memory image") mem.Ccdp_runtime.Verify.ok
  in
  against "" a;
  (* the sharded run (jobs=4) must reproduce the serial reference too —
     including the modes/machines where Memsys.shardable says no and the
     run falls back to the serial walk *)
  match !shard_pool with
  | None -> ()
  | Some pool -> against "[sharded]" (Interp.run cfg ~pool prog ~plan ~mode ())

(* fixed seed: the corpus (and so the test) is deterministic *)
let fuzz_corpus =
  let st = Random.State.make [| 0xC0FFEE |] in
  List.init 12 (fun i -> (i, Gen.generate st))

let fuzz_cases =
  List.map
    (fun (i, (d : Gen.desc)) ->
      case
        (Printf.sprintf "fuzz #%d agrees in every mode" i)
        (fun () ->
          let program = Gen.build d in
          (* the desc's own interconnect: the corpus exercises the Net
             dispatch on both engines, not just the uniform machine *)
          let machine = Ccdp_machine.Config.of_kind d.Gen.net in
          List.iter
            (fun mode ->
              assert_equal_runs ~machine
                (Printf.sprintf "fuzz%d" i)
                program ~n_pes:d.Gen.n_pes mode)
            modes))
    fuzz_corpus

let workload_cases =
  List.map
    (fun (w : Workload.t) ->
      case (w.Workload.name ^ " agrees in every mode") (fun () ->
          List.iter
            (fun mode ->
              assert_equal_runs w.Workload.name w.Workload.program ~n_pes:4
                mode)
            modes))
    (Ccdp_workloads.Suite.spec_four ~n:16 ~iters:1 ()
    @ [ Ccdp_workloads.Extras.gauss ~n:16 ])

(* stores inside nested loops refresh the enclosing scopes' register
   copies the same way in both engines *)
let nested_store_case =
  case "nested-loop stores agree in every mode" (fun () ->
      List.iter
        (fun mode ->
          assert_equal_runs "nested" (nested_store_program ()) ~n_pes:4 mode)
        modes)

(* cycle-identity on every interconnect: both engines route through the
   same Net instance state (including the crossbar's shared-port
   contention bookings), so TOMCATV must agree mode-for-mode on all four
   machine presets *)
let machine_cases =
  List.map
    (fun (mname, machine) ->
      case ("tomcatv agrees in every mode on " ^ mname) (fun () ->
          let w = Ccdp_workloads.Tomcatv.workload ~n:16 ~iters:1 in
          List.iter
            (fun mode ->
              assert_equal_runs ~machine
                (w.Workload.name ^ "@" ^ mname)
                w.Workload.program ~n_pes:4 mode)
            modes))
    Ccdp_core.Experiment.machine_presets

(* the coherence-cluster machines: at 8 PEs cxl-2x32 gives real islands
   of 4, cxl-4x16 islands of 2, and cxl-8x8 degrades to the flat
   crossbar — Clustered (and every flat mode riding the cheap local
   fabric) must stay cycle-identical across both engines and under the
   sharded run's serial fallback on all three *)
let cluster_machine_cases =
  List.map
    (fun (mname, machine) ->
      case ("tomcatv agrees in every mode on " ^ mname) (fun () ->
          let w = Ccdp_workloads.Tomcatv.workload ~n:16 ~iters:1 in
          List.iter
            (fun mode ->
              assert_equal_runs ~machine
                (w.Workload.name ^ "@" ^ mname)
                w.Workload.program ~n_pes:8 mode)
            modes))
    Ccdp_core.Experiment.cluster_presets

(* pinned intra-epoch synchronization programs: the cycle-costed lock
   (PE-major arbitration; the sharded engine falls back to the serial
   walk, which must still match) and the recognized-reduction barrier
   merge must agree engine-for-engine in every mode *)
let sync_cases =
  let mk name ~wrap epochs =
    case (name ^ " agrees in every mode") (fun () ->
        let d =
          {
            Gen.n = 8;
            dist_dim = 0;
            n_pes = 4;
            net = Ccdp_machine.Net.Uniform;
            pclean = false;
            epochs;
            wrap;
          }
        in
        (match Gen.validate d with
        | Ok () -> ()
        | Error m -> Alcotest.fail ("invalid sync desc: " ^ m));
        let program = Gen.build d in
        List.iter
          (fun mode -> assert_equal_runs name program ~n_pes:d.Gen.n_pes mode)
          modes)
  in
  [
    mk "locked accumulation (block)" ~wrap:false
      [
        Gen.Lock
          { sched = Gen.Block; src = 0; dst = 1; col = 0; col2 = 1; fused = false };
      ];
    mk "locked accumulation (cyclic, fused, wrapped)" ~wrap:true
      [
        Gen.Lock
          { sched = Gen.Cyclic; src = 2; dst = 0; col = 1; col2 = 2; fused = true };
      ];
    mk "recognized reductions (add then max)" ~wrap:false
      [
        Gen.Red { sched = Gen.Block; op = Gen.Radd; src = 0; dst = 1; seed = true };
        Gen.Red { sched = Gen.Cyclic; op = Gen.Rmax; src = 1; dst = 2; seed = false };
      ];
    mk "lock feeding a reduction (wrapped)" ~wrap:true
      [
        Gen.Lock
          { sched = Gen.Block; src = 0; dst = 1; col = 0; col2 = 0; fused = false };
        Gen.Red { sched = Gen.Block; op = Gen.Rmin; src = 1; dst = 2; seed = true };
      ];
  ]

(* minor-heap words of one run of [f], after one warm-up run *)
let minor_words_of f =
  ignore (f ());
  let m0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. m0

let accesses_of (r : Interp.result) =
  let s = r.Interp.stats in
  s.Ccdp_machine.Stats.reads + s.Ccdp_machine.Stats.writes

let alloc_cases =
  let mxm mode =
    let w = Ccdp_workloads.Mxm.workload ~n:32 in
    Pipeline.for_mode ~n_pes:8 mode w.Workload.program
  in
  let mxm_ccdp () = mxm Memsys.Ccdp in
  [
    case "compiled engine allocates < 50% of the reference (MXM/ccdp)"
      (fun () ->
        let { Pipeline.cfg; program = prog; plan; _ } = mxm_ccdp () in
        let plan_mw =
          minor_words_of (fun () ->
              Interp.run cfg prog ~plan ~mode:Memsys.Ccdp ())
        in
        let ref_mw =
          minor_words_of (fun () ->
              Interp_ref.run cfg prog ~plan ~mode:Memsys.Ccdp ())
        in
        check_true
          (Printf.sprintf "plan %.0f words < 0.5 * ref %.0f words" plan_mw
             ref_mw)
          (plan_mw < 0.5 *. ref_mw));
    (* an absolute budget: the relative gate above loosens whenever the
       reference engine allocates more *)
    case "compiled engine stays within 26 words per access (MXM/ccdp)"
      (fun () ->
        let { Pipeline.cfg; program = prog; plan; _ } = mxm_ccdp () in
        let run () = Interp.run cfg prog ~plan ~mode:Memsys.Ccdp () in
        let mw = minor_words_of run in
        let accesses = accesses_of (run ()) in
        let per = mw /. float_of_int accesses in
        check_true
          (Printf.sprintf "%.0f words / %d accesses = %.2f <= 26" mw accesses
             per)
          (per <= 26.0));
    case "every mode stays within 3 words per access (MXM)" (fun () ->
        List.iter
          (fun mode ->
            let { Pipeline.cfg; program = prog; plan; _ } = mxm mode in
            let run () = Interp.run cfg prog ~plan ~mode () in
            let mw = minor_words_of run in
            let accesses = accesses_of (run ()) in
            let per = mw /. float_of_int accesses in
            check_true
              (Printf.sprintf "%s: %.0f words / %d accesses = %.2f <= 3"
                 (Memsys.mode_name mode) mw accesses per)
              (per <= 3.0))
          modes);
    case "verification stays within 0.5 words per verified access (MXM/ccdp)"
      (fun () ->
        let { Pipeline.cfg; program = prog; plan; _ } = mxm_ccdp () in
        let r = Interp.run cfg prog ~plan ~mode:Memsys.Ccdp () in
        let mw =
          minor_words_of (fun () ->
              Ccdp_runtime.Verify.against_sequential prog ~init:ignore r)
        in
        let accesses = accesses_of r in
        let per = mw /. float_of_int accesses in
        check_true
          (Printf.sprintf "%.0f words / %d verified accesses = %.2f <= 0.5" mw
             accesses per)
          (per <= 0.5));
  ]

let () =
  Ccdp_exec.Pool.with_pool ~jobs:4 (fun pool ->
      shard_pool := Some pool;
      Alcotest.run "engine"
        [
          ("fuzz corpus", fuzz_cases);
          ("workloads", workload_cases @ [ nested_store_case ]);
          ("synchronization", sync_cases);
          ("machines", machine_cases);
          ("cluster machines", cluster_machine_cases);
          ("allocation", alloc_cases);
        ])
