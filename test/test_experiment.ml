open Ccdp_workloads
open Ccdp_core
open Ccdp_test_support.Tutil

let small_pes = [ 1; 4 ]

let rows () = Experiment.evaluate ~pes:small_pes [ Extras.jacobi ~n:12 ~iters:2 ]

let evaluation =
  [
    case "evaluate produces one row per (workload, width)" (fun () ->
        check_int "rows" 2 (List.length (rows ())));
    case "every row verifies in both modes" (fun () ->
        List.iter
          (fun (r : Experiment.row) ->
            check_true "base ok" r.Experiment.base_ok;
            check_true "ccdp ok" r.Experiment.ccdp_ok)
          (rows ()));
    case "speedups and improvement are consistent" (fun () ->
        List.iter
          (fun (r : Experiment.row) ->
            let imp = Experiment.improvement r in
            let faster = Experiment.ccdp_speedup r > Experiment.base_speedup r in
            check_true "signs agree" (faster = (imp > 0.0)))
          (rows ()));
    case "sequential cycles are shared across widths" (fun () ->
        match rows () with
        | [ a; b ] -> check_int "same seq" a.Experiment.seq_cycles b.Experiment.seq_cycles
        | _ -> Alcotest.fail "two rows");
    case "jacobi improves with CCDP at 4 PEs" (fun () ->
        let r = List.find (fun (r : Experiment.row) -> r.Experiment.pes = 4) (rows ()) in
        check_true "positive" (Experiment.improvement r > 0.0));
  ]

let printing =
  [
    case "table printers render without raising" (fun () ->
        let rs = rows () in
        let buf = Buffer.create 256 in
        let ppf = Format.formatter_of_buffer buf in
        Experiment.print_tbl ppf (Experiment.table1 rs);
        Experiment.print_tbl ppf (Experiment.table2 rs);
        Format.pp_print_flush ppf ();
        check_true "mentions Table 1" (String.length (Buffer.contents buf) > 100));
    case "report table rejects ragged rows" (fun () ->
        check_true "raises"
          (try
             Report.table Format.str_formatter ~title:"x" ~headers:[ "a"; "b" ]
               [ [ "1" ] ];
             false
           with Invalid_argument _ -> true));
  ]

let ablations =
  [
    case "ablation reports run end to end" (fun () ->
        let ws = [ Extras.jacobi ~n:12 ~iters:1 ] in
        let buf = Buffer.create 256 in
        let ppf = Format.formatter_of_buffer buf in
        let w = List.hd ws in
        List.iter (Experiment.print_tbl ppf)
          Experiment.
            [
              ablation_target_table ~n_pes:4 ws;
              ablation_technique_table ~n_pes:4 ws;
              ablation_coherence_table ~n_pes:4 ws;
              sweep_remote_table ~n_pes:4 ~points:[ 40; 90 ] w;
              sweep_queue_table ~n_pes:4 ~points:[ 8; 16 ] w;
              sweep_cache_table ~n_pes:4 ~points:[ 512; 1024 ] w;
              ablation_vpg_levels_table ~n_pes:4 ws;
              ablation_topology_table ~n_pes:8 ws;
            ];
        Format.pp_print_flush ppf ();
        check_true "output produced" (String.length (Buffer.contents buf) > 300));
    case "single-technique tuning still verifies" (fun () ->
        let w = Extras.jacobi ~n:12 ~iters:2 in
        List.iter
          (fun tuning ->
            List.iter
              (fun n_pes ->
                let r =
                  Experiment.run_mode ~tuning ~n_pes Ccdp_runtime.Memsys.Ccdp w
                in
                let v =
                  Ccdp_runtime.Verify.against_sequential w.Workload.program
                    ~init:(fun _ -> ()) r
                in
                check_true "ok" v.Ccdp_runtime.Verify.ok)
              small_pes)
          Ccdp_analysis.Schedule.
            [
              { default_tuning with allow_vpg = false };
              { default_tuning with allow_sp = false; allow_vpg = false };
              { default_tuning with allow_mbp = false };
            ]);
  ]

let future_work =
  [
    case "prefetch_clean adds leads and still verifies" (fun () ->
        let w = Extras.jacobi ~n:12 ~iters:2 in
        let cfg = Ccdp_machine.Config.t3d ~n_pes:4 in
        let plain = Pipeline.compile cfg w.Ccdp_workloads.Workload.program in
        let plus =
          Pipeline.compile cfg ~prefetch_clean:true
            w.Ccdp_workloads.Workload.program
        in
        let count (c : Pipeline.t) =
          (Ccdp_analysis.Annot.count c.Pipeline.plan).Ccdp_analysis.Annot.n_lead
        in
        check_true "more leads" (count plus > count plain);
        let r =
          Ccdp_runtime.Interp.run cfg plus.Pipeline.program
            ~plan:plus.Pipeline.plan ~mode:Ccdp_runtime.Memsys.Ccdp ()
        in
        let v =
          Ccdp_runtime.Verify.against_sequential
            w.Ccdp_workloads.Workload.program ~init:(fun _ -> ()) r
        in
        check_true "verified" v.Ccdp_runtime.Verify.ok);
    case "prefetch_clean report runs" (fun () ->
        let buf = Buffer.create 128 in
        let ppf = Format.formatter_of_buffer buf in
        Experiment.print_tbl ppf
          (Experiment.ablation_prefetch_clean_table ~n_pes:4
             [ Extras.triad ~n:12 ]);
        Format.pp_print_flush ppf ();
        check_true "output" (String.length (Buffer.contents buf) > 50));
  ]

(* the one set-up rule the coherence schemes are compared under, on a
   machine with two-PE islands so the two plan modes' discharges differ *)
let setup =
  [
    case "for_mode gives each mode its machine, program and plan" (fun () ->
        let open Ccdp_runtime in
        let w = Swim.workload ~n:16 ~iters:1 in
        let inlined = Ccdp_ir.Program.inline w.Workload.program in
        let no_plan = Ccdp_analysis.Annot.(count (empty ())) in
        List.iter
          (fun mode ->
            let s =
              Pipeline.for_mode ~machine:Ccdp_machine.Config.cxl_4x16 ~n_pes:8
                mode w.Workload.program
            in
            let tag c = Memsys.mode_name mode ^ ": " ^ c in
            check_true (tag "inlined program") (s.program = inlined);
            check_int (tag "width")
              (if mode = Memsys.Seq then 1 else 8)
              s.cfg.Ccdp_machine.Config.n_pes;
            match (mode, s.compiled) with
            | Memsys.Ccdp, Some c ->
                check_int (tag "flat discharge") 1 c.Pipeline.cluster_pes;
                check_true (tag "its plan") (s.plan == c.Pipeline.plan)
            | Memsys.Clustered, Some c ->
                check_int (tag "island discharge") 2 c.Pipeline.cluster_pes;
                check_true (tag "its plan") (s.plan == c.Pipeline.plan)
            | (Memsys.Ccdp | Memsys.Clustered), None ->
                Alcotest.fail (tag "no compile")
            | _, Some _ -> Alcotest.fail (tag "a plan-free mode compiled")
            | _, None ->
                check_true (tag "empty plan")
                  (Ccdp_analysis.Annot.count s.plan = no_plan))
          Memsys.all_modes);
  ]

let () =
  Alcotest.run "experiment"
    [
      ("evaluation", evaluation);
      ("printing", printing);
      ("ablations", ablations);
      ("future-work", future_work);
      ("set-up", setup);
    ]
