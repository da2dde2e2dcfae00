(* Sharded-vs-serial equivalence of intra-run parallel epoch simulation.

   Interp ?pool shards a DOALL epoch's PEs across domains when
   Memsys.shardable allows it; the contract is that the sharded run is
   bit-identical to the serial one at every job count — simulated cycles,
   access statistics, per-PE clocks, epoch count and profile, the final
   memory image, and the staleness oracle's verdicts including the ORDER
   of its violation log (drained PE-major at each barrier).

   Checked as a qcheck property over generated fuzz programs at jobs
   {1, 2, 7}, plus deterministic cases pinning the serial-fallback modes:
   HSCD and the hardware protocols (MSI/MESI/Directory) couple PEs
   mid-epoch, link contention (t3d-xbar) serializes them through shared
   per-link state, and dynamically scheduled loops assign chunks by a
   shared least-loaded heuristic — all must report Memsys.shardable =
   false (or take the serial walk) and still produce identical results
   when a pool is offered. *)

open Ccdp_test_support.Tutil
module Memsys = Ccdp_runtime.Memsys
module Interp = Ccdp_runtime.Interp
module Pool = Ccdp_exec.Pool
module Pipeline = Ccdp_core.Pipeline
module Gen = Ccdp_fuzz.Gen
module Workload = Ccdp_workloads.Workload

(* shared pools, one per job count under test, created once around the
   whole suite (domain spawn per property iteration would dominate) *)
let pools : (int * Pool.t) list ref = ref []
let jobs_under_test = [ 1; 2; 7 ]

(* every deterministic observable of a run, oracle log in order *)
let obs (r : Interp.result) =
  ( r.Interp.cycles,
    r.Interp.stats,
    Array.to_list r.Interp.per_pe_cycles,
    r.Interp.epochs,
    r.Interp.epoch_profile,
    Memsys.oracle_checked r.Interp.sys,
    Memsys.oracle_violation_count r.Interp.sys,
    Memsys.oracle_violations r.Interp.sys,
    List.sort compare (Memsys.observed_stale_ids r.Interp.sys) )

let same_memory prog ~(serial : Interp.result) ~(sharded : Interp.result) =
  (Ccdp_runtime.Verify.compare_states ~expected:serial.Interp.sys
     ~got:sharded.Interp.sys prog)
    .Ccdp_runtime.Verify.ok

(* serial run vs the same run over each pool; true iff all identical *)
let equivalent ?machine ~n_pes mode program =
  let { Pipeline.cfg; program = prog; plan; _ } =
    Pipeline.for_mode ?machine ~n_pes mode program
  in
  let serial = Interp.run cfg ~oracle:true prog ~plan ~mode () in
  List.for_all
    (fun jobs ->
      let pool = List.assoc jobs !pools in
      let sharded = Interp.run cfg ~oracle:true ~pool prog ~plan ~mode () in
      obs serial = obs sharded && same_memory prog ~serial ~sharded)
    jobs_under_test

(* ---- qcheck property over the fuzz generator ----------------------- *)

let desc_gen =
  QCheck.Gen.map
    (fun seed -> Gen.generate (Random.State.make [| seed; 0x5A4D |]))
    QCheck.Gen.(int_bound 0xFFFFFF)

let desc_arb = QCheck.make ~print:(Format.asprintf "%a" Gen.pp) desc_gen

let property_modes = Memsys.[ Base; Ccdp; Invalidate; Incoherent ]

let prop_cases =
  [
    qcheck ~count:30 "sharded run is identical to serial (generated programs)"
      desc_arb
      (fun (d : Gen.desc) ->
        let program = Gen.build d in
        let machine = Ccdp_machine.Config.of_kind d.Gen.net in
        List.for_all
          (fun mode -> equivalent ~machine ~n_pes:d.Gen.n_pes mode program)
          property_modes);
  ]

(* ---- deterministic serial-fallback pins ----------------------------- *)

(* a cross-column stencil the protocols actually have to work on *)
let fallback_desc : Gen.desc =
  {
    Gen.n = 8;
    dist_dim = 1;
    n_pes = 4;
    net = Ccdp_machine.Net.Uniform;
    pclean = false;
    wrap = true;
    epochs =
      [
        Gen.Par
          {
            sched = Gen.Cyclic;
            lo1 = true;
            opaque_hi = false;
            stmts =
              [ { Gen.dst = 0; doi = 0; reads = [ (1, 0, 1 ) ]; guarded = false } ];
          };
        Gen.Par
          {
            sched = Gen.Cyclic;
            lo1 = true;
            opaque_hi = false;
            stmts =
              [ { Gen.dst = 1; doi = 0; reads = [ (0, 0, 1) ]; guarded = false } ];
          };
      ];
  }

let dynamic_desc =
  {
    fallback_desc with
    Gen.epochs =
      (match fallback_desc.Gen.epochs with
      | Gen.Par p :: rest -> Gen.Par { p with sched = Gen.Dynamic 2 } :: rest
      | eps -> eps);
  }

let run_with mode ?machine ?pool desc =
  let { Pipeline.cfg; program = prog; plan; _ } =
    Pipeline.for_mode ?machine ~n_pes:desc.Gen.n_pes mode (Gen.build desc)
  in
  (prog, Interp.run cfg ~oracle:true ?pool prog ~plan ~mode ())

let fallback_cases =
  [
    case "hardware modes and HSCD report shardable=false yet agree with a pool"
      (fun () ->
        List.iter
          (fun mode ->
            let _, serial = run_with mode fallback_desc in
            check_true
              (Memsys.mode_name mode ^ " not shardable")
              (not (Memsys.shardable serial.Interp.sys));
            check_true
              (Memsys.mode_name mode ^ " equivalent")
              (equivalent ~n_pes:fallback_desc.Gen.n_pes mode
                 (Gen.build fallback_desc)))
          Memsys.[ Hscd; Msi; Mesi; Directory ]);
    case "link contention (t3d-xbar) disables sharding yet agrees" (fun () ->
        let machine = Ccdp_machine.Config.t3d_xbar in
        let _, serial = run_with Memsys.Ccdp ~machine fallback_desc in
        check_true "xbar not shardable"
          (not (Memsys.shardable serial.Interp.sys));
        check_true "xbar equivalent"
          (equivalent ~machine ~n_pes:fallback_desc.Gen.n_pes Memsys.Ccdp
             (Gen.build fallback_desc)));
    case "buffered modes on the uniform machine are shardable" (fun () ->
        List.iter
          (fun mode ->
            let _, serial = run_with mode fallback_desc in
            check_true
              (Memsys.mode_name mode ^ " shardable")
              (Memsys.shardable serial.Interp.sys))
          property_modes);
    case "dynamically scheduled loops fall back serially yet agree" (fun () ->
        List.iter
          (fun mode ->
            check_true
              (Memsys.mode_name mode ^ " dynamic equivalent")
              (equivalent ~n_pes:dynamic_desc.Gen.n_pes mode
                 (Gen.build dynamic_desc)))
          property_modes);
    case "a real workload agrees at every job count (tomcatv/ccdp)" (fun () ->
        let w = Ccdp_workloads.Tomcatv.workload ~n:16 ~iters:2 in
        List.iter
          (fun mode ->
            check_true
              (Memsys.mode_name mode ^ " tomcatv")
              (equivalent ~n_pes:8 mode w.Workload.program))
          Memsys.[ Base; Ccdp ]);
  ]

let () =
  Pool.with_pool ~jobs:1 (fun p1 ->
      Pool.with_pool ~jobs:2 (fun p2 ->
          Pool.with_pool ~jobs:7 (fun p7 ->
              pools := [ (1, p1); (2, p2); (7, p7) ];
              Alcotest.run "shard"
                [
                  ("property", prop_cases); ("fallback", fallback_cases);
                ])))
